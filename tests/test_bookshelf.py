"""Shelves, the bookshelf map, its inverse, and the commuting square."""

import pytest

from catbij import (
    GappedYoungDiagram,
    InvariantError,
    LEAF,
    Node,
    Shelf,
    TreeCoordinate,
    YoungDiagram,
    bookshelf,
    bookshelf_gapped,
    column_profile,
    dyck_to_tree,
    dyck_to_young,
    enumerate_trees,
    enumerate_young,
    from_paren,
    inverse_bookshelf,
    left_comb,
    min_tree_size,
    push_gaps,
    right_comb,
    shelves,
    size,
    to_paren,
    tree_to_dyck,
    young_to_dyck,
)
from catbij.bookshelf import tree_from_profile
from catbij.verify import _gap_insertion

# the worked five-leaf tree whose shelves run (1,0)->(1,3) and (2,1)->(2,2)
WORKED_TREE = Node(Node(LEAF, Node(Node(LEAF, LEAF), LEAF)), LEAF)

# the step-by-step inverse example: 17 cells, ambient 7, eight leaves
WORKED_DIAGRAM = (5, 5, 3, 2, 1, 1)
WORKED_INVERSE = Node(
    Node(Node(LEAF, LEAF), Node(Node(Node(LEAF, LEAF), LEAF), LEAF)),
    Node(LEAF, LEAF),
)


def test_shelves_right_comb_empty():
    for n in range(1, 7):
        assert shelves(right_comb(n)) == []


def test_shelves_worked_example():
    sh = shelves(WORKED_TREE)
    assert [(s.start, s.end) for s in sh] == [
        (TreeCoordinate(1, 0), TreeCoordinate(1, 3)),
        (TreeCoordinate(2, 1), TreeCoordinate(2, 2)),
    ]
    assert [s.length for s in sh] == [3, 1]


def test_shelf_single():
    sh = shelves(from_paren("((..).)"))
    assert len(sh) == 1 and sh[0].length == 1
    with pytest.raises(InvariantError, match=r"^degenerate shelf "):
        Shelf(TreeCoordinate(1, 2), TreeCoordinate(1, 2))


def test_shelf_lengths_weakly_decrease_along_containment():
    # nested shelves narrow going down, by the drawn geometry
    for n in range(1, 9):
        for t in enumerate_trees(n):
            sh = shelves(t)
            for hi in sh:
                for lo in sh:
                    if lo.row > hi.row and not (
                        lo.end.y <= hi.start.y or lo.start.y >= hi.end.y
                    ):
                        # overlapping columns force containment and shorter length
                        assert hi.start.y <= lo.start.y <= lo.end.y <= hi.end.y
                        assert lo.length <= hi.length


def test_one_shelf_per_row():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            rows = [s.row for s in shelves(t)]
            assert len(rows) == len(set(rows))


def test_gapped_worked_example():
    g = bookshelf_gapped(WORKED_TREE)
    assert g.boxes == frozenset({(1, 0), (1, 1), (1, 2), (2, 1)})
    assert push_gaps(g).rows == (3, 1)


def test_gapped_empty():
    assert bookshelf_gapped(LEAF).boxes == frozenset()
    assert bookshelf(LEAF).rows == ()


def test_boxes_stack_to_the_ceiling():
    # a shelf with nothing covering it stacks boxes all the way up
    t = from_paren("((..)(.(..)))")
    g = bookshelf_gapped(t)
    assert g.boxes == frozenset({(1, 0), (2, 0), (3, 0)})
    assert bookshelf(t).rows == (1, 1, 1)


def test_box_conservation():
    # cells sitting directly on a shelf account for exactly the shelf
    # lengths (the sum of descending non-ceiling edge units), and pushing
    # preserves the total cell count
    for n in range(0, 8):
        for t in enumerate_trees(n):
            g = bookshelf_gapped(t)
            sh = shelves(t)
            on_shelf = sum(
                1
                for s in sh
                for c in range(s.start.y, s.end.y)
                if (s.row, c) in g.boxes
            )
            assert on_shelf == sum(s.length for s in sh)
            assert push_gaps(g).cell_count() == g.cell_count()


def test_commutativity_with_dyck_route():
    for n in range(0, 8):
        for t in enumerate_trees(n):
            assert push_gaps(bookshelf_gapped(t)) == dyck_to_young(tree_to_dyck(t))


def test_commutativity_four_subtree_cases():
    # empty and nonempty left/right subtrees, checked case by case
    for n in range(0, 7):
        for sx in range(0, n):
            sy = n - 1 - sx
            for x in enumerate_trees(sx):
                for y in enumerate_trees(sy):
                    t = Node(x, y)
                    assert push_gaps(bookshelf_gapped(t)) == dyck_to_young(tree_to_dyck(t))


def test_bookshelf_simple_values():
    assert bookshelf(from_paren("(.(..))")).rows == ()
    assert bookshelf(from_paren("((..).)")).rows == (1,)


def test_push_gaps_rejects_non_images():
    ok = GappedYoungDiagram(frozenset({(1, 0), (1, 1), (2, 1), (2, 2)}), 5)
    assert push_gaps(ok).rows == (2, 2)
    floating = GappedYoungDiagram(frozenset({(2, 0), (2, 1), (1, 3)}), 5)
    with pytest.raises(InvariantError):
        push_gaps(floating)  # row 1 shorter than row 2


def test_construction_outputs_have_anchored_columns():
    for n in range(0, 8):
        for t in enumerate_trees(n):
            assert bookshelf_gapped(t).columns_anchored()


def test_min_tree_size_values():
    assert min_tree_size(YoungDiagram(WORKED_DIAGRAM, 7)) == 8  # max{6+1+1, 5+2+1}
    assert min_tree_size(YoungDiagram((1,), 2)) == 3
    assert min_tree_size(YoungDiagram((2, 1), 3)) == 4
    assert min_tree_size(YoungDiagram((), 1)) == 1  # degenerate case


def test_inverse_bookshelf_worked_example():
    y = YoungDiagram(WORKED_DIAGRAM, 7)
    t = inverse_bookshelf(y, 7)
    assert t == WORKED_INVERSE
    # the four red shelves of the final drawing
    sh = shelves(t)
    assert [(s.row, s.start.y, s.end.y) for s in sh] == [
        (2, 0, 5),
        (3, 2, 4),
        (4, 2, 3),
        (6, 0, 1),
    ]
    # and the drawn gapped placement: five-wide double row, a column of four,
    # a two-box row, a single box
    g = bookshelf_gapped(t)
    expected = (
        {(r, c) for r in (1, 2) for c in range(5)}
        | {(r, 0) for r in range(3, 7)}
        | {(3, 2), (3, 3)}
        | {(4, 2)}
    )
    assert g.boxes == frozenset(expected)


def test_inverse_bookshelf_trivial():
    assert inverse_bookshelf(YoungDiagram((), 1), 1) == Node(LEAF, LEAF)


def test_inverse_bookshelf_round_trips():
    for n in range(0, 8):
        for t in enumerate_trees(n):
            assert inverse_bookshelf(bookshelf(t), n) == t
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            assert bookshelf(inverse_bookshelf(y, n)) == y


def test_inverse_bookshelf_matches_search_oracle():
    # independent oracle: search all trees for the unique preimage
    for n in range(0, 8):
        table = {}
        for t in enumerate_trees(n):
            y = bookshelf(t)
            assert y not in table, "bookshelf must be injective"
            table[y] = t
        assert len(table) == len(enumerate_trees(n)), "and surjective"
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            assert inverse_bookshelf(y, n) == table[y]
            assert _gap_insertion(rows, n) == table[y]


def test_inverse_bookshelf_ambient_errors():
    with pytest.raises(InvariantError):
        inverse_bookshelf(YoungDiagram((2, 1), 3), 2)  # ambient too small
    with pytest.raises(InvariantError) as refusal:
        tree_from_profile([5])  # a column taller than the ambient of one column
    assert str(refusal.value) == "columns (5,) do not close a path in ambient 1"


def test_ambient_changes_the_tree():
    y2 = inverse_bookshelf(YoungDiagram((1,), 2), 2)
    y3 = inverse_bookshelf(YoungDiagram((1,), 3), 3)
    assert to_paren(y2) == "((••)•)"
    assert size(y3) == 3 and bookshelf(y3).rows == (1,)


def test_leaf_end_routes_match_the_dyck_compositions():
    # bookshelf and its inverse read rows off the leaf ends; the path route
    # they replaced stays the oracle, on every object of size <= 9
    for n in range(0, 10):
        for t in enumerate_trees(n):
            assert bookshelf(t) == dyck_to_young(tree_to_dyck(t))
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            assert inverse_bookshelf(y, n) == dyck_to_tree(young_to_dyck(y))


def test_column_profile_is_the_shelf_stacking():
    # the paper's shelves as the oracle: each column rises to its lowest shelf
    for n in range(0, 10):
        for t in enumerate_trees(n):
            heights = [0] * n
            for s in shelves(t):
                for c in range(s.start.y, s.end.y):
                    heights[c] = max(heights[c], s.row)
            assert column_profile(t) == heights


def test_bookshelf_has_no_depth_limit():
    depth = 2_000
    for t in (left_comb(depth), right_comb(depth)):
        assert inverse_bookshelf(bookshelf(t), depth) == t
    assert bookshelf(left_comb(depth)).rows == tuple(range(depth - 1, 0, -1))
    assert bookshelf(right_comb(depth)).rows == ()
