"""Acceptance criteria, one test per criterion.

Each criterion also runs standalone: `python tests/test_acceptance.py` prints
one pass/fail line per criterion and exits nonzero on any failure.  All
checks are exact; the only tolerances are the stated runtime budgets.
"""

import itertools
import json
import pathlib
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from catbij import (
    DyckPath,
    Interval,
    YoungDiagram,
    all_balls,
    bookshelf,
    bookshelf_gapped,
    build_lattice,
    catalan,
    classify_balls,
    complete_torsion_hu,
    count_maximal_chains,
    dyck_to_young,
    enumerate_dyck,
    enumerate_perms213,
    enumerate_torsion,
    enumerate_trees,
    enumerate_young,
    from_paren,
    hom_nonzero,
    inverse_bookshelf,
    is_213_avoiding,
    is_lattice,
    is_torsion_class,
    min_tree_size,
    node_coordinates,
    perm_to_tree,
    perp_left,
    perp_right,
    push_gaps,
    torsion_generate,
    torsion_to_gapped_young,
    torsion_to_tree,
    tree_to_dyck,
    tree_to_perm,
    tree_to_torsion,
    verify_order_reversing,
)
from catbij.baseball import BASEBALL
from catbij.cli import FAMILIES, _from_tree, _to_tree
from catbij.serialize import serialize_young

COUNTS = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_criterion_01_catalan_counts():
    start = time.monotonic()
    for n in range(0, 9):
        assert len(enumerate_trees(n)) == COUNTS[n]
        assert len(enumerate_dyck(n)) == COUNTS[n]
        assert len(enumerate_young(n)) == COUNTS[n]
        assert len(enumerate_perms213(n)) == COUNTS[n]
        assert len(enumerate_torsion(n)) == COUNTS[n]
    assert time.monotonic() - start < 30.0


def test_criterion_02_pinned_young_triples():
    got = [
        serialize_young(dyck_to_young(DyckPath(steps)))
        for steps in ("UURRUR", "URURUR", "URUURURR")
    ]
    assert got == [
        '{"n": 3, "rows": [2]}',
        '{"n": 3, "rows": [2, 1]}',
        '{"n": 4, "rows": [2, 1, 1]}',
    ]


def test_criterion_03_commutativity():
    start = time.monotonic()
    trees7 = enumerate_trees(7)
    assert len(trees7) == 429
    for t in trees7:
        assert push_gaps(bookshelf_gapped(t)) == dyck_to_young(tree_to_dyck(t))
    assert time.monotonic() - start < 10.0


def test_criterion_04_bookshelf_round_trip():
    for n in range(0, 8):
        for t in enumerate_trees(n):
            assert inverse_bookshelf(bookshelf(t), n) == t
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            assert bookshelf(inverse_bookshelf(y, n)) == y
    worked = YoungDiagram((5, 5, 3, 2, 1, 1), 7)
    assert min_tree_size(worked) == 8  # max{6+1+1, 5+2+1}


def test_criterion_05_hom_calibration():
    n = 6
    X1, X2, X4 = Interval(1, 2), Interval(2, 3), Interval(4, 5)
    Y1, Y2, Y3 = Interval(1, 3), Interval(2, 4), Interval(3, 5)
    Z2, W = Interval(2, 5), Interval(1, 5)
    S = {k: Interval(k, k) for k in range(1, 6)}
    assert hom_nonzero(X1, Z2, n)
    for x in all_balls(n):
        assert hom_nonzero(x, x, n)
    assert not hom_nonzero(X1, Y3, n)
    assert not hom_nonzero(Y2, Y1, n)
    assert not hom_nonzero(X2, W, n)
    tors = frozenset({S[1], S[3], S[5]})
    free = frozenset({S[2], X2, Y2, Z2, S[4], X4})
    assert perp_right(tors, n) == free
    assert perp_left(free, n) == tors


def test_criterion_06_closure_equivalence():
    start = time.monotonic()
    for n in (5, 6):
        balls = sorted(all_balls(n))
        seeds = 0
        for r in range(len(balls) + 1):
            for seed in itertools.combinations(balls, r):
                assert (
                    complete_torsion_hu(seed, n)
                    == torsion_generate(seed, n).torsion
                )
                seeds += 1
        assert seeds == 2 ** len(balls)
    assert time.monotonic() - start < 60.0


def test_criterion_07_tree_torsion_bijection():
    for n in range(1, 8):
        images = set()
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            assert g not in images
            images.add(g)
            assert torsion_to_tree(g, n) == t
        assert len(images) == catalan(n)
        # image set is exactly the torsion classes (brute force at n <= 5)
        if n <= 5:
            balls = sorted(all_balls(n))
            for r in range(len(balls) + 1):
                for sub in itertools.combinations(balls, r):
                    assert (frozenset(sub) in images) == is_torsion_class(
                        frozenset(sub), n
                    )


def test_criterion_08_baseball_bijection():
    for n in range(0, 8):
        for p in enumerate_perms213(n):
            assert tree_to_perm(perm_to_tree(p)) == p
        for t in enumerate_trees(n):
            assert is_213_avoiding(tree_to_perm(t))
    assert tree_to_perm(from_paren("((..).)")) == (1, 2)
    assert tree_to_perm(from_paren("(.(..))")) == (2, 1)
    assert tree_to_perm(perm_to_tree((1, 3, 4, 2))) == (1, 3, 4, 2)
    assert tree_to_perm(perm_to_tree((5, 1, 2, 3, 4))) == (5, 1, 2, 3, 4)
    # the baseballs, read from the stretched drawing: an internal left child
    # at (x, y) carries the balls [a, n - x] for a in y + 1 .. n - x
    for n in range(1, 8):
        for t in enumerate_trees(n):
            coords = node_coordinates(t)
            drawn = {
                Interval(a, n - c.x)
                for path, c in coords.items()
                if path.endswith("L") and path + "L" in coords
                for a in range(c.y + 1, n - c.x + 1)
            }
            base = {x for x, k in classify_balls(t).items() if k == BASEBALL}
            assert base == drawn


def test_criterion_09_tamari_structure():
    p4 = build_lattice(4)
    assert len(p4.nodes) == 14
    for n in range(1, 7):
        assert is_lattice(build_lattice(n))
    low = from_paren("(((••)•)(••))".replace("•", "."))
    high = from_paren("((•(••))(••))".replace("•", "."))
    assert (low, high) in p4.covers
    assert [count_maximal_chains(n) for n in (2, 3, 4)] == [1, 2, 9]
    for n in range(1, 8):
        assert verify_order_reversing(n)


def test_criterion_10_end_to_end_coherence():
    start = time.monotonic()
    for n in range(0, 7):
        for t in enumerate_trees(n):
            for a in FAMILIES:
                doc = _from_tree(a, t, "json")
                for b in FAMILIES:
                    mid = _from_tree(b, _to_tree(a, doc), "json")
                    assert _from_tree(a, _to_tree(b, mid), "json") == doc
    # the direct maps agree with the tree-hub route
    for n in range(0, 7):
        for t in enumerate_trees(n):
            assert dyck_to_young(tree_to_dyck(t)) == bookshelf(t)
    for n in range(1, 7):
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            assert torsion_to_gapped_young(g, n) == bookshelf_gapped(t)
            assert tree_to_perm(torsion_to_tree(g, n)) == tree_to_perm(t)
    assert time.monotonic() - start < 60.0


CRITERIA = [
    ("catalan counts 0..8 for all five families", test_criterion_01_catalan_counts),
    ("pinned path/diagram triples byte-exact", test_criterion_02_pinned_young_triples),
    ("bookshelf == dyck route on all 429 size-7 trees", test_criterion_03_commutativity),
    ("bookshelf round trips and minimum-size formula", test_criterion_04_bookshelf_round_trip),
    ("hom calibration and the labeled torsion pair", test_criterion_05_hom_calibration),
    ("closure == generation on 2^10 + 2^15 seeds", test_criterion_06_closure_equivalence),
    ("tree <-> torsion bijection up to n = 7", test_criterion_07_tree_torsion_bijection),
    ("baseball bijection and pinned permutations", test_criterion_08_baseball_bijection),
    ("tamari lattice, chains 1/2/9, order reversal", test_criterion_09_tamari_structure),
    ("hub conversion coherence with direct maps", test_criterion_10_end_to_end_coherence),
]


def main():
    failed = 0
    for i, (label, fn) in enumerate(CRITERIA, start=1):
        start = time.monotonic()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report any failure as a line, not a crash
            failed += 1
            status = "FAIL"
            detail = f" ({type(exc).__name__}: {exc})"
        else:
            status = "PASS"
            detail = ""
        elapsed = time.monotonic() - start
        print(f"[{status}] criterion {i:2d}: {label} [{elapsed:.2f}s]{detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
