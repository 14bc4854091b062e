"""Wire diagrams: ball classification, tracing, and the permutation bijection."""

import pytest

from catbij import (
    BASEBALL,
    CROSSBALL,
    Interval,
    InvariantError,
    LEAF,
    Node,
    NotAPermutationError,
    catalan,
    classify_balls,
    dyck_to_tree,
    enumerate_perms213,
    enumerate_trees,
    from_paren,
    is_213_avoiding,
    node_coordinates,
    perm_to_tree,
    size,
    trace_wires,
    tree_to_perm,
    tree_to_torsion,
)
from catbij.dyck import _from_ends


def test_single_ball_cases():
    # one baseball reads (1, 2); one crossball reads (2, 1)
    left = from_paren("((..).)")
    right = from_paren("(.(..))")
    assert classify_balls(left) == {Interval(1, 1): BASEBALL}
    assert classify_balls(right) == {Interval(1, 1): CROSSBALL}
    assert tree_to_perm(left) == (1, 2)
    assert tree_to_perm(right) == (2, 1)


def test_degenerate_sizes():
    assert tree_to_perm(LEAF) == ()
    assert tree_to_perm(Node(LEAF, LEAF)) == (1,)
    assert perm_to_tree(()) == LEAF
    assert perm_to_tree((1,)) == Node(LEAF, LEAF)


def test_worked_permutation_1342():
    t = perm_to_tree((1, 3, 4, 2))
    assert t == Node(Node(LEAF, Node(Node(LEAF, LEAF), LEAF)), LEAF)
    kinds = classify_balls(t)
    base = {x for x, k in kinds.items() if k == BASEBALL}
    cross = {x for x, k in kinds.items() if k == CROSSBALL}
    assert base == {Interval(1, 3), Interval(2, 3), Interval(3, 3), Interval(2, 2)}
    assert cross == {Interval(1, 1), Interval(1, 2)}
    assert tree_to_perm(t) == (1, 3, 4, 2)


def test_worked_permutation_51234():
    from catbij import TreeCoordinate, node_coordinates

    t = perm_to_tree((5, 1, 2, 3, 4))
    comb = Node(Node(Node(LEAF, LEAF), LEAF), LEAF)
    assert t == Node(comb, Node(LEAF, LEAF))
    # internal nodes sit at (0,0), (2,0), (3,0), (4,0) and (0,4)
    coords = node_coordinates(t)
    assert coords[""] == TreeCoordinate(0, 0)
    assert coords["L"] == TreeCoordinate(2, 0)
    assert coords["LL"] == TreeCoordinate(3, 0)
    assert coords["LLL"] == TreeCoordinate(4, 0)
    assert coords["R"] == TreeCoordinate(0, 4)
    kinds = classify_balls(t)
    cross = {x for x, k in kinds.items() if k == CROSSBALL}
    assert cross == {Interval(a, 4) for a in range(1, 5)}
    assert tree_to_perm(t) == (5, 1, 2, 3, 4)


def drawn_baseballs(t):
    """Read from the stretched drawing: an internal left child at (x, y)
    carries the balls [a, n - x] for a in y + 1 .. n - x."""
    n = size(t)
    coords = node_coordinates(t)
    return {
        Interval(a, n - c.x)
        for path, c in coords.items()
        if path.endswith("L") and path + "L" in coords
        for a in range(c.y + 1, n - c.x + 1)
    }


def test_baseballs_are_the_torsion_class():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            kinds = classify_balls(t)
            base = {x for x, k in kinds.items() if k == BASEBALL}
            assert base == drawn_baseballs(t) == tree_to_torsion(t).torsion


def test_every_ball_classified():
    from catbij import all_balls

    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert set(classify_balls(t)) == set(all_balls(n))


def test_round_trip_and_avoidance():
    # avoidance and the wire diagram hold through n = 8; round trips
    # exhaustive through n = 7
    for n in range(0, 9):
        for t in enumerate_trees(n):
            p = tree_to_perm(t)
            assert is_213_avoiding(p)
            assert sorted(p) == list(range(1, n + 1))
            assert trace_wires(t) == p
    for n in range(0, 8):
        outputs = set()
        for t in enumerate_trees(n):
            p = tree_to_perm(t)
            assert perm_to_tree(p) == t
            outputs.add(p)
        assert len(outputs) == catalan(n)
        for p in enumerate_perms213(n):
            assert tree_to_perm(perm_to_tree(p)) == p


def test_perm_to_tree_matches_the_path_route():
    # perm_to_tree builds from its leaf ends; the path those ends spell is
    # the route it replaced, on every 213-avoider of length <= 9.  Here the
    # ends come from the definition: read backwards, entry k ends at the
    # next smaller entry, or at leaf n if there is none
    for n in range(0, 10):
        for p in enumerate_perms213(n):
            back = p[::-1]
            ends = [0] * (n + 1)
            for k, v in enumerate(back):
                ends[next((l for l in range(k + 1, n) if back[l] < v), n)] += 1
            assert perm_to_tree(p) == dyck_to_tree(_from_ends(ends))


def min_split_oracle(t):
    # perm(Node(X, Y)) = (perm(Y) + size(X) + 1) ++ (1,) ++ (perm(X) + 1)
    if size(t) == 0:
        return ()
    px = tuple(v + 1 for v in min_split_oracle(t.left))
    py = tuple(v + size(t.left) + 1 for v in min_split_oracle(t.right))
    return py + (1,) + px


def test_block_structure():
    # values above the minimum split around it by subtree, recursively
    for n in range(0, 10):
        for t in enumerate_trees(n):
            p = min_split_oracle(t)
            assert tree_to_perm(t) == p
            assert perm_to_tree(p) == t


def test_perm_bijection_has_no_depth_limit():
    from catbij import left_comb, right_comb, to_paren

    depth = 2_000  # is_213_avoiding is one pass, linear in the length
    identity, reverse = tuple(range(1, depth + 1)), tuple(range(depth, 0, -1))
    assert tree_to_perm(left_comb(depth)) == identity
    assert tree_to_perm(right_comb(depth)) == reverse
    # compared as paren strings: Node equality recurses
    assert to_paren(perm_to_tree(identity)) == to_paren(left_comb(depth))
    assert to_paren(perm_to_tree(reverse)) == to_paren(right_comb(depth))


def test_perm_to_tree_errors():
    with pytest.raises(NotAPermutationError):
        perm_to_tree((1, 1))
    with pytest.raises(InvariantError):
        perm_to_tree((2, 3, 1, 4, 5))  # contains 213


def test_tree_to_perm_self_check_raises_a_catbij_error(monkeypatch):
    from catbij import CatbijError, baseball

    monkeypatch.setattr(baseball, "is_213_avoiding", lambda p: False)
    with pytest.raises(CatbijError):
        tree_to_perm(from_paren("((..).)"))


def test_torsion_permutation_bridge():
    from catbij import all_balls, right_comb, torsion_to_tree

    # empty class: all crossballs, the reversed word at the lattice top;
    # full class: all baseballs, the identity at the bottom
    assert tree_to_perm(torsion_to_tree(frozenset(), 4)) == (4, 3, 2, 1)
    assert tree_to_perm(torsion_to_tree(all_balls(4), 4)) == (1, 2, 3, 4)
    for n in range(2, 7):
        assert tree_to_perm(torsion_to_tree(frozenset(), n)) == tree_to_perm(right_comb(n))
        assert tree_to_perm(torsion_to_tree(all_balls(n), n)) == tuple(range(1, n + 1))
    for n in range(1, 7):
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            p = tree_to_perm(torsion_to_tree(g, n))
            assert tree_to_torsion(perm_to_tree(p)).torsion == g
