"""Dyck path bijections, pinned to the four drawn path/tree pairs and the
three path/diagram pairs."""

from catbij import (
    DyckPath,
    InvariantError,
    LEAF,
    YoungDiagram,
    dyck_to_tree,
    dyck_to_young,
    enumerate_dyck,
    enumerate_trees,
    enumerate_young,
    from_paren,
    left_comb,
    right_comb,
    to_paren,
    tree_to_dyck,
    young_to_dyck,
)
from catbij.core import node_spans
from catbij.dyck import _ends, _tree_from_ends

import pytest


# four pinned path/tree pairs freezing the reading convention
PINNED_PAIRS = [
    ("UUURRR", "(•(•(••)))"),          # right comb
    ("UURRUR", "((•(••))•)"),
    ("URURUR", "(((••)•)•)"),          # left comb
    ("URUURURR", "((••)((••)•))"),  # the L/D labeled pair
]

PINNED_YOUNG = [
    ("UURRUR", (2,)),
    ("URURUR", (2, 1)),
    ("URUURURR", (2, 1, 1)),
]


def test_empty_cases():
    assert tree_to_dyck(LEAF).steps == ""
    assert dyck_to_tree(DyckPath("")) == LEAF


def test_pinned_tree_path_pairs():
    for steps, tree_str in PINNED_PAIRS:
        t = from_paren(tree_str)
        assert tree_to_dyck(t).steps == steps
        assert to_paren(dyck_to_tree(DyckPath(steps))) == tree_str


def test_pinned_young_triples():
    for steps, rows in PINNED_YOUNG:
        y = dyck_to_young(DyckPath(steps))
        assert y.rows == rows
        assert young_to_dyck(y).steps == steps


def test_round_trips_exhaustive():
    for n in range(0, 8):
        for t in enumerate_trees(n):
            assert dyck_to_tree(tree_to_dyck(t)) == t
        for w in enumerate_dyck(n):
            p = DyckPath(w)
            assert tree_to_dyck(dyck_to_tree(p)).steps == w
            assert young_to_dyck(dyck_to_young(p)).steps == w
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            assert dyck_to_young(young_to_dyck(y)) == y


def test_cell_count_is_area_above_path():
    # area under the path plus cells above it fill the n x n square
    for n in range(0, 8):
        for w in enumerate_dyck(n):
            p = DyckPath(w)
            area_under = 0
            h = 0
            for c in w:
                if c == "U":
                    h += 1
                else:
                    area_under += h
            assert dyck_to_young(p).cell_count() == n * n - area_under


def test_extreme_paths():
    # combs map to the two extreme paths, pinning the convention
    for n in range(1, 8):
        assert tree_to_dyck(right_comb(n)).steps == "U" * n + "R" * n
        assert tree_to_dyck(left_comb(n)).steps == "UR" * n
        # the alternating path carves out the maximal staircase
        alt = dyck_to_young(DyckPath("UR" * n))
        assert alt.rows == tuple(range(n - 1, 0, -1))
        # the all-ups-first path carves out nothing
        assert dyck_to_young(DyckPath("U" * n + "R" * n)).rows == ()
    depth = 100_000  # and a comb of any depth converts
    assert tree_to_dyck(right_comb(depth)).steps == "U" * depth + "R" * depth
    assert tree_to_dyck(left_comb(depth)).steps == "UR" * depth


def test_semilength_matches_size():
    for n in range(0, 7):
        for t in enumerate_trees(n):
            assert tree_to_dyck(t).semilength == n


def test_young_to_dyck_requires_staircase_fit():
    with pytest.raises(InvariantError):
        YoungDiagram((3, 1), 3)  # cannot even construct
    # same rows fit a bigger ambient and convert fine
    assert young_to_dyck(YoungDiagram((2,), 4)).steps == "UUURRURR"
    assert dyck_to_young(DyckPath("UUURRURR")).rows == (2,)


def young_rows_by_counting(p):
    """Row j counts the columns of at least j cells, each column counted
    against every row: the quadratic reference."""
    n = p.semilength
    cols, h = [], 0
    for c in p.steps:
        if c == "U":
            h += 1
        else:
            cols.append(n - h)
    return tuple(r for r in (sum(1 for c in cols if c >= j) for j in range(1, n + 1)) if r)


def test_young_legs_match_the_quadratic_count():
    for n in range(10):
        for w in enumerate_dyck(n):
            y = dyck_to_young(DyckPath(w))
            assert y.rows == young_rows_by_counting(DyckPath(w))
            rows = y.rows
            want = tuple(sum(1 for r in rows if r > c) for c in range(rows[0] if rows else 0))
            assert y.conjugate() == want


def test_leaf_ends_rebuild_every_tree():
    for n in range(0, 10):
        for t in enumerate_trees(n):
            assert _tree_from_ends(_ends(node_spans(t), n)) == t


def test_dyck_bijection_has_no_depth_limit():
    depth = 2_000
    for t in (left_comb(depth), right_comb(depth)):
        assert dyck_to_tree(tree_to_dyck(t)) == t
    assert tree_to_dyck(right_comb(depth)).steps == "U" * depth + "R" * depth


def test_other_families_rebuild_trees_without_a_path(monkeypatch):
    from catbij import bookshelf, covers_of, inverse_bookshelf, perm_to_tree, tree_to_perm

    def refuse(self, steps):
        raise AssertionError(f"a DyckPath {steps!r} was built")

    monkeypatch.setattr(DyckPath, "__init__", refuse)
    for n in range(0, 7):
        for t in enumerate_trees(n):
            assert inverse_bookshelf(bookshelf(t), n) == t
            assert perm_to_tree(tree_to_perm(t)) == t
            assert all(u.size == n for u in covers_of(t))
