"""Core types, enumerators, and their counting identities."""

import itertools
from math import factorial

import pytest

from catbij import (
    AmbientMismatchError,
    DyckPath,
    GappedYoungDiagram,
    Interval,
    InvariantError,
    LEAF,
    Node,
    NotAPermutationError,
    TorsionPair,
    TreeCoordinate,
    YoungDiagram,
    catalan,
    enumerate_dyck,
    enumerate_parens,
    enumerate_perms213,
    enumerate_torsion,
    enumerate_trees,
    enumerate_young,
    from_paren,
    is_213_avoiding,
    is_leaf,
    left_comb,
    node_coordinates,
    perm_to_tree,
    right_comb,
    size,
    to_paren,
)
from catbij.core import node_spans

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def binomial_oracle(n):
    # direct evaluation of the closed formula, independent of math.comb
    return factorial(2 * n) // (factorial(n) ** 2 * (n + 1))


def test_catalan_small_values():
    assert catalan(0) == 1  # empty product
    assert catalan(2) == 2  # two ways to associate three items
    assert catalan(4) == binomial_oracle(4) == 14


def test_catalan_matches_formula_oracle():
    for n in range(0, 40):
        assert catalan(n) == binomial_oracle(n)


def test_catalan_is_exact_for_large_n():
    # far beyond any machine word; must not wrap
    assert catalan(200) > 2 ** 256
    assert catalan(200) == binomial_oracle(200)


def test_catalan_rejects_negative():
    with pytest.raises(InvariantError):
        catalan(-1)


# -- trees --------------------------------------------------------------


def test_enumerate_trees_base_cases():
    assert enumerate_trees(0) == (LEAF,)
    two = enumerate_trees(2)
    assert set(map(to_paren, two)) == {"((••)•)", "(•(••))"}


def test_enumerate_trees_counts_and_uniqueness():
    for n in range(0, 9):
        ts = enumerate_trees(n)
        assert len(ts) == CATALAN[n] == len(set(ts))
        assert all(size(t) == n for t in ts)


def test_enumerate_trees_canonical_order():
    # splits with ascending left size, left subtree varying slowest
    order = [to_paren(t) for t in enumerate_trees(3)]
    assert order == [
        "(•(•(••)))",
        "(•((••)•))",
        "((••)(••))",
        "((•(••))•)",
        "(((••)•)•)",
    ]


def recursive_paren_oracle(t):
    # the textbook definition, for trees too shallow to hit the recursion limit
    if is_leaf(t):
        return "•"
    return "(" + recursive_paren_oracle(t.left) + recursive_paren_oracle(t.right) + ")"


def test_to_paren_matches_the_recursive_definition():
    for n in range(0, 10):
        for t in enumerate_trees(n):
            assert to_paren(t) == recursive_paren_oracle(t)


def test_to_paren_has_no_depth_limit():
    depth = 100_000
    assert to_paren(left_comb(depth)) == "(" * depth + "•" + "•)" * depth
    assert to_paren(right_comb(depth)) == "(•" * depth + "•" + ")" * depth


def test_enumerate_parens_follows_enumerate_trees():
    for n in range(0, 10):
        assert list(enumerate_parens(n)) == [to_paren(t) for t in enumerate_trees(n)]
    with pytest.raises(InvariantError):
        enumerate_parens(-1)


def test_paren_round_trip():
    for n in range(0, 9):
        for t in enumerate_trees(n):
            assert from_paren(to_paren(t)) == t


def test_hub_objects_store_size_and_hash():
    def count(t):  # independent of the stored size
        return 0 if is_leaf(t) else 1 + count(t.left) + count(t.right)

    for n in range(0, 8):
        for t in enumerate_trees(n):
            assert size(t) == count(t) == n
            copy = from_paren(to_paren(t))
            assert copy == t and hash(copy) == hash(t)
            assert n == 0 or copy is not t


def test_deep_trees_compare_and_hash():
    # equality and hash read node_spans, a loop, not the nesting of children
    assert perm_to_tree(tuple(range(1, 2001))) == left_comb(2000)
    assert left_comb(2000) != right_comb(2000)
    assert len({left_comb(3000), left_comb(3000)}) == 1


def test_hub_objects_are_immutable():
    t = from_paren("((..).)")
    x = Interval(1, 2)
    for obj, attr in ((t, "left"), (t, "size"), (t, "extra"), (x, "a"), (x, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, LEAF)
    assert t == Node(Node(LEAF, LEAF), LEAF) and size(t) == 2
    assert x == Interval(1, 2)


def test_paren_parser_accepts_ascii_and_whitespace():
    assert from_paren(" ( . (. .) ) ") == Node(LEAF, Node(LEAF, LEAF))
    with pytest.raises(InvariantError):
        from_paren("((..)")
    with pytest.raises(InvariantError):
        from_paren("(..)x")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(•••)", "unbalanced parenthesization"),
        ("(••", "unbalanced parenthesization"),
        ("((••)", "unexpected end of parenthesization"),
        ("", "unexpected end of parenthesization"),
        ("(•)", "unexpected character ')' in parenthesization"),
        ("•(••)", "trailing characters after parenthesization"),
    ],
)
def test_paren_parser_refusals_name_the_fault(text, message):
    with pytest.raises(InvariantError) as refusal:
        from_paren(text)
    assert str(refusal.value) == message


# -- coordinates --------------------------------------------------------


def test_node_coordinates_leaf():
    assert node_coordinates(LEAF) == {"": TreeCoordinate(0, 0)}


def test_node_coordinates_worked_four_leaf_tree():
    # the labeled 4-leaf drawing: a right comb with 4 leaves
    t = right_comb(3)
    coords = node_coordinates(t)
    assert coords[""] == TreeCoordinate(0, 0)
    assert coords["R"] == TreeCoordinate(0, 1)
    assert coords["RR"] == TreeCoordinate(0, 2)
    # stretched leaves end at level 4
    assert coords["L"] == TreeCoordinate(3, 0)
    assert coords["RL"] == TreeCoordinate(2, 1)
    assert coords["RRL"] == TreeCoordinate(1, 2)
    assert coords["RRR"] == TreeCoordinate(0, 3)
    # the drawing passes exactly through the ten labeled lattice points
    covered = set()
    for path, c in coords.items():
        p = coords[path[:-1]] if path else c
        if path.endswith("L"):  # a left edge runs down the first coordinate
            covered.update((x, c.y) for x in range(p.x, c.x + 1))
        else:
            covered.update((c.x, y) for y in range(p.y, c.y + 1))
    assert covered == {
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3),
    }


def test_node_coordinates_left_comb():
    coords = node_coordinates(left_comb(3))
    assert coords["LLL"] == TreeCoordinate(3, 0)  # leftmost leaf
    assert coords["L"] == TreeCoordinate(1, 0)
    assert coords["LL"] == TreeCoordinate(2, 0)


def recursive_spans_oracle(t, i=0):
    # (i, m, j) per internal node in preorder, by the textbook recursion
    if is_leaf(t):
        return []
    m = i + size(t.left)
    return (
        [(i, m, i + size(t))]
        + recursive_spans_oracle(t.left, i)
        + recursive_spans_oracle(t.right, m + 1)
    )


def recursive_coordinates_oracle(t):
    # the recursive walk node_coordinates was first written as
    n = size(t)
    coords = {}

    def go(node, path, i):
        if is_leaf(node):
            coords[path] = TreeCoordinate(n - i, i)
            return i
        m = go(node.left, path + "L", i)
        j = go(node.right, path + "R", m + 1)
        coords[path] = TreeCoordinate(n - j, i)
        return j

    go(t, "", 0)
    return coords


def test_node_spans_and_coordinates_match_the_recursive_walks():
    for n in range(0, 10):
        for t in enumerate_trees(n):
            assert node_spans(t) == tuple(recursive_spans_oracle(t))
            if n <= 8:
                assert node_coordinates(t) == recursive_coordinates_oracle(t)


def test_node_spans_are_walked_once_and_kept_on_the_root():
    t = from_paren("((••)((••)•))")
    spans = node_spans(t)
    assert node_spans(t) is spans
    assert spans == tuple(recursive_spans_oracle(t))
    # equality and hash read the kept spans of each side
    u = from_paren("((••)((••)•))")
    assert u == t and hash(u) == hash(t) == hash(spans)
    assert node_spans(u) is not spans and node_spans(u) == spans
    assert node_spans(LEAF) == ()


def test_node_spans_kept_by_racing_threads_are_the_walk():
    import sys
    import threading

    trees = [from_paren(to_paren(t)) for n in range(1, 8) for t in enumerate_trees(n)]
    want = [tuple(recursive_spans_oracle(t)) for t in trees]
    got = [[] for _ in range(4)]
    start = threading.Barrier(len(got))

    def walk(out):
        start.wait()
        out.extend(node_spans(t) for t in trees)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(out,)) for out in got]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for out in got:
        assert out == want
    assert [node_spans(t) for t in trees] == want


def test_tree_walks_have_no_depth_limit():
    depth = 100_000
    left = tuple((0, depth - 1 - k, depth - k) for k in range(depth))
    assert node_spans(left_comb(depth)) == left
    assert node_spans(right_comb(depth)) == tuple((k, k, depth) for k in range(depth))
    depth = 3_000  # the paths make node_coordinates quadratic in the depth
    coords = node_coordinates(left_comb(depth))
    assert len(coords) == 2 * depth + 1
    assert coords["L" * depth] == TreeCoordinate(depth, 0)
    for k in (0, 1, depth - 1):
        assert coords["L" * k] == TreeCoordinate(k, 0)
        assert coords["L" * k + "R"] == TreeCoordinate(k, depth - k)


def test_coordinate_level_and_bounds():
    assert TreeCoordinate(2, 1).level == 4
    with pytest.raises(InvariantError):
        TreeCoordinate(-1, 0)
    for n in range(0, 7):
        for t in enumerate_trees(n):
            for c in node_coordinates(t).values():
                assert c.x + c.y <= n


# -- family enumerators --------------------------------------------------


def test_all_families_are_catalan_counted():
    for n in range(0, 9):
        assert len(enumerate_trees(n)) == CATALAN[n]
        assert len(enumerate_dyck(n)) == CATALAN[n]
        assert len(enumerate_young(n)) == CATALAN[n]
        assert len(enumerate_perms213(n)) == CATALAN[n]
        assert len(enumerate_torsion(n)) == CATALAN[n]


def test_enumerate_dyck_basics():
    assert enumerate_dyck(0) == [""]
    assert enumerate_dyck(1) == ["UR"]
    for w in enumerate_dyck(5):
        DyckPath(w)  # validates


def test_enumerate_dyck_is_the_sorted_brute_force():
    # every word over {U, R} of length 2n, filtered by the ballot condition
    # and sorted with U before R: an oracle independent of the meet in the
    # middle that enumerate_dyck uses
    def is_dyck(w):
        height = 0
        for c in w:
            height += 1 if c == "U" else -1
            if height < 0:
                return False
        return height == 0

    for n in range(0, 9):
        brute = ("".join(w) for w in itertools.product("UR", repeat=2 * n))
        want = sorted(filter(is_dyck, brute), key=lambda w: w.replace("U", "0").replace("R", "1"))
        assert enumerate_dyck(n) == want


def test_enumerators_refuse_negative_sizes():
    for enumerate_family in (enumerate_trees, enumerate_parens, enumerate_dyck,
                             enumerate_young, enumerate_perms213):
        with pytest.raises(InvariantError):
            enumerate_family(-1)


def test_enumerate_young_objects_valid():
    for n in range(0, 7):
        rows_list = enumerate_young(n)
        assert len(rows_list) == len(set(rows_list))
        for rows in rows_list:
            YoungDiagram(rows, n)  # validates staircase


def test_enumerate_young_is_the_sorted_brute_force():
    for n in range(0, 10):
        # weakly decreasing tuples come out of combinations of the
        # descending lengths; the staircase filter is applied afterwards
        brute = [
            rows
            for k in range(n + 1)
            for rows in itertools.combinations_with_replacement(range(n - 1, 0, -1), k)
            if all(r + i + 1 <= n for i, r in enumerate(rows))
        ]
        assert enumerate_young(n) == sorted(brute)


def test_enumerate_perms213_examples():
    per5 = enumerate_perms213(5)
    assert (5, 1, 2, 3, 4) in per5
    assert (2, 3, 1, 4, 5) not in per5
    assert per5 == sorted(per5)


def test_enumerate_perms213_matches_filter_oracle():
    for n in range(0, 9):
        brute = sorted(
            p
            for p in itertools.permutations(range(1, n + 1))
            if is_213_avoiding(p)
        )
        assert enumerate_perms213(n) == brute


# -- 213 avoidance -------------------------------------------------------


def cubic_213_oracle(p):
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if p[j] < p[i] < p[k]:
                    return False
    return True


def test_is_213_known_examples():
    assert is_213_avoiding((5, 1, 2, 3, 4))
    assert not is_213_avoiding((2, 3, 1, 4, 5))  # m1 > m3 but m4 > m1
    assert is_213_avoiding((1,))
    assert is_213_avoiding(())


def test_is_213_matches_cubic_definition():
    for n in range(0, 8):
        for p in itertools.permutations(range(1, n + 1)):
            assert is_213_avoiding(p) == cubic_213_oracle(p)


def test_is_213_rejects_non_permutations():
    with pytest.raises(NotAPermutationError):
        is_213_avoiding((1, 1))
    with pytest.raises(NotAPermutationError):
        is_213_avoiding((2, 3))


# -- type invariants -------------------------------------------------------


def test_dyck_path_invariants():
    DyckPath("UURR")
    with pytest.raises(InvariantError):
        DyckPath("RU")  # dips below the diagonal
    with pytest.raises(InvariantError):
        DyckPath("UUR")  # unbalanced
    with pytest.raises(InvariantError):
        DyckPath("UX")


def test_young_diagram_invariants():
    YoungDiagram((2, 1), 3)
    with pytest.raises(InvariantError):
        YoungDiagram((1, 2), 3)  # not weakly decreasing
    with pytest.raises(InvariantError):
        YoungDiagram((3,), 3)  # breaks the staircase
    with pytest.raises(InvariantError):
        YoungDiagram((2, 0), 3)  # zero rows not stored
    with pytest.raises(InvariantError):
        YoungDiagram((True,), 3)  # a bool is not a row length


def test_young_conjugate():
    assert YoungDiagram((5, 5, 3, 2, 1, 1), 7).conjugate() == (6, 4, 3, 2, 2)
    assert YoungDiagram((), 4).conjugate() == ()


def test_gapped_diagram_invariants():
    GappedYoungDiagram(frozenset({(1, 0), (1, 2)}), 4)  # row gaps are fine
    with pytest.raises(InvariantError):
        GappedYoungDiagram(frozenset({(3, 3)}), 4)  # outside the triangle
    with pytest.raises(InvariantError):
        GappedYoungDiagram(frozenset({(0, 0)}), 4)  # above the ceiling
    with pytest.raises(InvariantError):
        GappedYoungDiagram(frozenset({(True, 0)}), 4)  # a bool is not a row
    floating = GappedYoungDiagram(frozenset({(2, 0)}), 4)
    assert not floating.columns_anchored()


def test_interval_invariants():
    Interval(1, 1)
    with pytest.raises(InvariantError):
        Interval(2, 1)
    with pytest.raises(InvariantError):
        Interval(0, 1)


def test_torsion_pair_invariants():
    x, y, out = Interval(1, 1), Interval(2, 3), Interval(2, 4)
    TorsionPair({x}, {y}, 4)
    # a ball outside the ambient is named, in either class, before an overlap
    for tors, free in (({out}, {x}), ({x}, {y, out}), ({out}, {out})):
        with pytest.raises(AmbientMismatchError, match=r"^\[2, 4\] outside ambient 4$"):
            TorsionPair(tors, free, 4)
    with pytest.raises(InvariantError, match="^torsion and torsion-free classes intersect$"):
        TorsionPair({x, y}, {y}, 4)
