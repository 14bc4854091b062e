"""Tamari lattice structure, chain counts, and order reversal."""

import random
from itertools import permutations
from math import factorial

import pytest

from catbij import (
    InvariantError,
    Node,
    TamariPoset,
    build_lattice,
    catalan,
    count_maximal_chains,
    covers_of,
    enumerate_trees,
    from_paren,
    is_lattice,
    is_leaf,
    left_comb,
    right_comb,
    to_paren,
    tree_to_torsion,
    verify_order_reversing,
)
from catbij.tamari import _cover_indices, _leq_matrix


def reorderings(nodes):
    """The node tuple reversed, and shuffled with a fixed seed."""
    shuffled = list(nodes)
    random.Random(len(nodes)).shuffle(shuffled)
    return [tuple(reversed(nodes)), tuple(shuffled)]


def rotations_by_recursion(t):
    """The right rotations of t by the recursion on (uv)w -> u(vw), at the
    root, then in the left subtree, then in the right: the reference."""
    if is_leaf(t):
        return []
    x, y = t.left, t.right
    out = []
    if x.size:
        out.append(Node(x.left, Node(x.right, y)))
        out.extend(Node(c, y) for c in rotations_by_recursion(x))
    if y.size:
        out.extend(Node(x, c) for c in rotations_by_recursion(y))
    return out


def parens(trees):
    # compared as strings, so the check does not lean on Node equality
    return [to_paren(t) for t in trees]


def test_covers_of_matches_the_recursive_rotation():
    # as lists, so the rotation-site order counts too
    for n in range(0, 9):
        for t in enumerate_trees(n):
            assert parens(covers_of(t)) == parens(rotations_by_recursion(t))


def test_cover_indices_are_the_per_tree_covers():
    # the split-table join against covers_of, one tree at a time, mapped
    # through enumerate_trees; as lists, so the rotation-site order counts
    for n in range(0, 9):
        nodes = enumerate_trees(n)
        index = {to_paren(t): k for k, t in enumerate(nodes)}
        want = [[index[u] for u in parens(covers_of(t))] for t in nodes]
        assert [list(up) for up in _cover_indices(n)] == want


def test_build_lattice_covers_are_the_recursive_rotations():
    for n in range(1, 8):
        want = {
            (to_paren(t), u)
            for t in enumerate_trees(n)
            for u in parens(rotations_by_recursion(t))
        }
        assert {(to_paren(l), to_paren(u)) for l, u in build_lattice(n).covers} == want


def test_covers_of_top():
    assert covers_of(from_paren("(.(..))")) == []
    for n in range(1, 7):
        assert covers_of(right_comb(n)) == []


def test_preface_cover_example():
    low = from_paren("(((..).)(..))")
    high = from_paren("((.(..))(..))")
    assert high in covers_of(low)


def test_left_comb_cover_count():
    for n in range(2, 8):
        assert len(covers_of(left_comb(n))) == n - 1


def test_cover_count_equals_shelf_count():
    # one rotation site per descending non-ceiling line
    from catbij import shelves

    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert len(covers_of(t)) == len(shelves(t))


def test_lattice_counts():
    p2 = build_lattice(2)
    assert len(p2.nodes) == 2 and len(p2.covers) == 1
    p3 = build_lattice(3)
    assert len(p3.nodes) == 5 and len(p3.covers) == 5  # the pentagon
    p4 = build_lattice(4)
    assert len(p4.nodes) == 14 and len(p4.covers) == 21


def test_bottom_and_top():
    for n in range(1, 7):
        p = build_lattice(n)
        assert p.bottom() == left_comb(n)
        assert p.top() == right_comb(n)
        assert len(p.nodes) == catalan(n)
    antichain = TamariPoset(tuple(enumerate_trees(2)), frozenset())
    with pytest.raises(InvariantError, match="^2 minimal elements; expected 1$"):
        antichain.bottom()
    with pytest.raises(InvariantError, match="^2 maximal elements; expected 1$"):
        antichain.top()


def test_is_lattice():
    for n in range(1, 7):
        p = build_lattice(n)
        assert is_lattice(p)
        # the check must not rely on the nodes coming in canonical order
        for nodes in reorderings(p.nodes):
            assert is_lattice(TamariPoset(nodes, p.covers))


def test_removed_edge_breaks_lattice():
    p = build_lattice(3)
    removed = next(iter(p.covers))
    for nodes in [p.nodes] + reorderings(p.nodes):
        broken = TamariPoset(nodes, p.covers - {removed})
        assert not is_lattice(broken)


def test_two_minimal_upper_bounds_break_lattice():
    # bottom < a, b < c, d < top: bounded, but a and b lie below both c and d,
    # two minimal common upper bounds, so they have no join
    bot, a, b, c, d, top = enumerate_trees(4)[:6]
    covers = frozenset(
        {(bot, a), (bot, b), (a, c), (a, d), (b, c), (b, d), (c, top), (d, top)}
    )
    nodes = (bot, a, b, c, d, top)
    for order in [nodes] + reorderings(nodes):
        p = TamariPoset(order, covers)
        assert p.bottom() == bot and p.top() == top
        assert not is_lattice(p)


@pytest.mark.parametrize("kind", ["cycle", "self-loop", "foreign cover"])
def test_malformed_poset_raises_invariant_error(kind):
    a, b = enumerate_trees(2)
    covers = {
        "cycle": {(a, b), (b, a)},
        "self-loop": {(a, a)},
        "foreign cover": {(a, enumerate_trees(3)[0])},
    }[kind]
    p = TamariPoset((a, b), frozenset(covers))
    with pytest.raises(InvariantError):
        _leq_matrix(p)
    with pytest.raises(InvariantError):
        is_lattice(p)


def test_all_meets_without_a_top_is_not_a_lattice():
    # the pentagon without its top: every pair has a meet, but the two
    # lower covers of the top are both maximal, so they have no join
    p = build_lattice(3)
    top = p.top()
    nodes = tuple(t for t in p.nodes if t != top)
    covers = frozenset(c for c in p.covers if top not in c)
    _, down = _leq_matrix(TamariPoset(nodes, covers))
    assert all(d & e in set(down) for d in down for e in down)  # the meets
    for order in permutations(nodes):
        assert is_lattice(TamariPoset(order, covers)) is False


def test_leq_matrix_fills_a_long_chain():
    # deeper than the default recursion limit; bit k of a down-set stands
    # for the k-th node of the topological order, whatever the node order
    nodes = enumerate_trees(9)[:3000]
    chain = frozenset(zip(nodes, nodes[1:]))
    full = (1 << len(nodes)) - 1
    for listed in (nodes, nodes[::-1]):
        order, down = _leq_matrix(TamariPoset(listed, chain))
        assert [listed[i] for i in order] == list(nodes)
        assert down == [full >> (len(nodes) - 1 - i) for i in range(len(nodes))]


def test_tamari_order_is_reversed_torsion_inclusion():
    # Ingalls-Thomas: t <= u exactly when the class of u lies in that of t
    for n in range(1, 8):
        p = build_lattice(n)
        tors = [tree_to_torsion(t).torsion for t in p.nodes]
        order, down = _leq_matrix(p)
        for k, i in enumerate(order):
            below = sum(1 << h for h, j in enumerate(order) if tors[i] <= tors[j])
            assert down[k] == below


def test_interval_count_matches_chapoton():
    # Chapoton (2006): the size-n Tamari lattice has 2(4n+1)!/((n+1)!(3n+2)!)
    # intervals, that is pairs t <= u
    counts = []
    for n in range(1, 7):
        down = _leq_matrix(build_lattice(n))[1]
        counts.append(sum(row.bit_count() for row in down))
        assert counts[-1] == 2 * factorial(4 * n + 1) // (
            factorial(n + 1) * factorial(3 * n + 2)
        )
    assert counts == [1, 3, 13, 68, 399, 2530]


def test_chain_counts():
    assert count_maximal_chains(1) == 1
    assert count_maximal_chains(2) == 1
    assert count_maximal_chains(3) == 2
    assert count_maximal_chains(4) == 9


def test_chain_count_regression_pins():
    # regression pins taken from the split-table implementation, not an
    # independent oracle (as bench/workloads.py pins n = 9)
    assert count_maximal_chains(10) == 36812710172987995
    assert count_maximal_chains(11) == 12001387004225881846755


def test_chain_count_and_order_check_build_no_tree(monkeypatch):
    import catbij.core as core
    import catbij.tamari as tamari

    def refuse(n):
        raise AssertionError("enumerate_trees called")

    monkeypatch.setattr(tamari, "enumerate_trees", refuse)
    monkeypatch.setattr(core, "enumerate_trees", refuse)
    assert count_maximal_chains(9) == 994441978397
    assert verify_order_reversing(8)


def shifted_staircase_tableaux(m):
    """Standard shifted tableaux of shape (m, m-1, ..., 1), by the shifted
    hook-length formula: the hook of cell (i, j) is the rest of row i from
    j, the cells below it in column j, and all of row j + 1."""
    rows = list(range(m, 0, -1))  # row i (0-indexed) holds columns i..m-1
    hooks = 1
    for i, length in enumerate(rows):
        for j in range(i, i + length):
            below = sum(1 for r in range(i + 1, len(rows)) if r <= j < r + rows[r])
            hooks *= (i + length - j) + below + (rows[j + 1] if j + 1 < len(rows) else 0)
    return factorial(sum(rows)) // hooks


def test_longest_chains_are_shifted_staircase_tableaux():
    # Fishel-Nelson (2014): the chains of length n(n-1)/2 in the size-n
    # Tamari lattice are counted by the standard shifted tableaux of shape
    # (n-1, ..., 1).  Chains are counted by length along the covers, from
    # the top (index 0) down to the bottom (the last index).
    counts = []
    for n in range(1, 8):
        by_length = []  # per tree: {length: chains from the tree up to the top}
        for up in _cover_indices(n):
            lengths = {0: 1} if not up else {}
            for j in up:
                for length, c in by_length[j].items():
                    lengths[length + 1] = lengths.get(length + 1, 0) + c
            by_length.append(lengths)
        longest = n * (n - 1) // 2
        assert max(by_length[-1]) == longest
        counts.append(by_length[-1][longest])
        assert counts[-1] == shifted_staircase_tableaux(n - 1)
    assert counts == [1, 1, 1, 2, 12, 286, 33592]


def test_chain_count_against_plain_dfs():
    # unmemoized path enumeration as the independent oracle
    for n in range(1, 7):
        p = build_lattice(n)
        top = p.top()
        up = {}
        for (l, u) in p.covers:
            up.setdefault(l, []).append(u)

        def walk(t):
            if t == top:
                return 1
            return sum(walk(u) for u in up.get(t, ()))

        assert count_maximal_chains(n) == walk(p.bottom())


def test_not_graded_for_n3():
    # chains of different lengths exist, so counting by rank would be wrong
    p = build_lattice(3)
    top = p.top()
    up = {}
    for (l, u) in p.covers:
        up.setdefault(l, []).append(u)
    lengths = set()

    def walk(t, d):
        if t == top:
            lengths.add(d)
            return
        for u in up.get(t, ()):
            walk(u, d + 1)

    walk(p.bottom(), 0)
    assert len(lengths) > 1


def test_order_reversing():
    from catbij import Interval

    # the n = 2 cover drops the torsion class from one ball to none
    low = from_paren("((..).)")
    (high,) = covers_of(low)
    assert tree_to_torsion(low).torsion == frozenset({Interval(1, 1)})
    assert tree_to_torsion(high).torsion == frozenset()
    for n in range(1, 8):
        assert verify_order_reversing(n)


def test_cover_strictness_explicit():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            low = tree_to_torsion(t).torsion
            for u in covers_of(t):
                high = tree_to_torsion(u).torsion
                assert high < low


def test_perm_relabeled_lattice_is_isomorphic():
    from catbij import perm_to_tree, tree_to_perm

    for n in range(1, 7):
        p = build_lattice(n)
        relabeled_nodes = {tree_to_perm(t) for t in p.nodes}
        assert len(relabeled_nodes) == len(p.nodes)
        relabeled_covers = {
            (tree_to_perm(l), tree_to_perm(u)) for (l, u) in p.covers
        }
        assert len(relabeled_covers) == len(p.covers)
        # mapping back reproduces the edge set exactly
        back = {
            (perm_to_tree(a), perm_to_tree(b)) for (a, b) in relabeled_covers
        }
        assert back == set(p.covers)


def test_build_lattice_rejects_zero():
    with pytest.raises(InvariantError):
        build_lattice(0)


@pytest.mark.parametrize("drop", ["lowest", "highest"])
def test_order_reversing_fails_without_one_torsion_ball(monkeypatch, drop):
    # the check compares masks; with one torsion bit gone from every tree,
    # some cover no longer shrinks the class strictly, so it cannot be vacuous
    import catbij.tamari as tamari

    masks = tamari._torsion_masks

    def one_bit_short(n):
        for tors, free in masks(n):
            bit = tors & -tors if drop == "lowest" else 1 << tors.bit_length() >> 1
            yield tors & ~bit, free

    monkeypatch.setattr(tamari, "_torsion_masks", one_bit_short)
    assert verify_order_reversing(1)  # no cover
    for n in range(2, 8):
        assert not verify_order_reversing(n)
