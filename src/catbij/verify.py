"""Exhaustive property suites behind the `verify` CLI verb.

Each check runs over every object up to the requested size and reports the
first counterexample it finds, as a serialized document.  Suites:

    roundtrips      every bijection composed with its inverse is the identity
    commutativity   the shelf construction equals bookshelf (the Dyck
                    route), gapped frames agree
    torsion         Hom calibration, torsion pairs from trees, closure rules
    tamari          lattice structure, chain counts, order reversal
    all             everything above

The paper's own constructions are oracles here: the shelf construction must
agree with bookshelf, the gap-insertion search with inverse_bookshelf, the
wire diagram with tree_to_perm.
"""

from itertools import combinations

from . import baseball, dyck, serialize, tamari, torsion
from .bookshelf import bookshelf, bookshelf_gapped, inverse_bookshelf, push_gaps
from .core import (
    LEAF,
    Node,
    catalan,
    enumerate_dyck,
    enumerate_perms213,
    enumerate_trees,
    enumerate_young,
    right_comb,
    staircase_ok,
    to_paren,
    YoungDiagram,
)

SUITES = ("roundtrips", "commutativity", "torsion", "tamari", "all")


def _gap_insertion(rows, n):
    """The paper's gap-insertion inverse of the bookshelf, a search that
    returns None when no size-n tree maps to rows.

    A tight row (rows[t-1] + t == n) marks the column block of the left
    subtree; otherwise the whole diagram belongs to the right subtree of a
    root with a bare left leaf.
    """
    if n == 0:
        return LEAF if not rows else None
    if not rows:
        return right_comb(n)
    if staircase_ok(rows, n - 1):
        sub = _gap_insertion(rows, n - 1)
        if sub is not None:
            return Node(LEAF, sub)
    for t in range(1, len(rows) + 1):
        if rows[t - 1] + t != n:
            continue
        sx = rows[t - 1]
        sy = n - 1 - sx
        if t - 1 > sy:
            continue
        ypart = tuple(r - sx for r in rows[: t - 1] if r - sx > 0)
        xpart = rows[t:]
        if not (staircase_ok(ypart, sy) and staircase_ok(xpart, sx)):
            continue
        left = _gap_insertion(xpart, sx)
        if left is None:
            continue
        right = _gap_insertion(ypart, sy)
        if right is None:
            continue
        return Node(left, right)
    return None


def _check(name, failures, report):
    report["checks"].append(
        {"name": name, "passed": not failures, "counterexamples": failures[:3]}
    )


def verify_roundtrips(n_max: int) -> dict:
    report = {"suite": "roundtrips", "n_max": n_max, "checks": []}
    fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            if dyck.dyck_to_tree(dyck.tree_to_dyck(t)) != t:
                fails.append(to_paren(t))
    _check("tree->dyck->tree", fails, report)

    fails = []
    for n in range(n_max + 1):
        for w in enumerate_dyck(n):
            p = dyck.DyckPath(w)
            if dyck.tree_to_dyck(dyck.dyck_to_tree(p)).steps != w:
                fails.append(w)
            if dyck.young_to_dyck(dyck.dyck_to_young(p)).steps != w:
                fails.append(w)
    _check("dyck->tree->dyck and dyck->young->dyck", fails, report)

    fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            if inverse_bookshelf(bookshelf(t), n) != t:
                fails.append(to_paren(t))
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            t = inverse_bookshelf(y, n)
            if bookshelf(t) != y or _gap_insertion(rows, n) != t:
                fails.append(serialize.serialize_young(y))
    _check("bookshelf both ways", fails, report)

    fails = []
    for n in range(n_max + 1):
        for p in enumerate_perms213(n):
            if baseball.tree_to_perm(baseball.perm_to_tree(p)) != p:
                fails.append(list(p))
        for t in enumerate_trees(n):
            p = baseball.tree_to_perm(t)
            if baseball.perm_to_tree(p) != t or baseball.trace_wires(t) != p:
                fails.append(to_paren(t))
    _check("perm <-> tree", fails, report)

    fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            g = torsion.tree_to_torsion(t).torsion
            if torsion.torsion_to_tree(g, n) != t:
                fails.append(to_paren(t))
    _check("tree <-> torsion", fails, report)

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def verify_commutativity(n_max: int) -> dict:
    report = {"suite": "commutativity", "n_max": n_max, "checks": []}
    route_fails, frame_fails = [], []  # each tree's gapped frame is built once
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            frame = bookshelf_gapped(t)
            if push_gaps(frame) != bookshelf(t):
                route_fails.append(to_paren(t))
            g = torsion.tree_to_torsion(t).torsion
            if torsion.torsion_to_gapped_young(g, n) != frame:
                frame_fails.append(to_paren(t))
    _check("bookshelf == dyck route", route_fails, report)
    _check("torsion gapped frame == bookshelf gapped frame", frame_fails, report)

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def verify_torsion(n_max: int) -> dict:
    report = {"suite": "torsion", "n_max": n_max, "checks": []}

    fails = []
    for n in range(1, n_max + 1):
        balls = sorted(torsion.all_balls(n))
        for x in balls:
            if not torsion.hom_nonzero(x, x, n):
                fails.append([x.a, x.b])
            for y in balls:
                if x != y and torsion.hom_nonzero(x, y, n) and torsion.hom_nonzero(y, x, n):
                    fails.append([[x.a, x.b], [y.a, y.b]])
    _check("hom reflexive and antisymmetric", fails, report)

    pair_fails, generate_fails, split_fails = [], [], []  # one tree_to_torsion per tree
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            pair = torsion.tree_to_torsion(t)
            g = pair.torsion
            if torsion.perp_right(g, n) != pair.free or torsion.perp_left(pair.free, n) != g:
                pair_fails.append(to_paren(t))
            if torsion.torsion_generate(g, n).torsion != g:
                generate_fails.append(to_paren(t))
            split = torsion.decompose_rectangle(g, n)
            if torsion.recompose_rectangle(split, n) != g:
                split_fails.append(to_paren(t))
    _check("trees give torsion pairs (both clauses)", pair_fails, report)
    _check("generation is idempotent on classes", generate_fails, report)

    fails = []
    for n in range(min(n_max, 5) + 1):
        balls = sorted(torsion.all_balls(n))
        for r in range(len(balls) + 1):
            for seed in combinations(balls, r):
                got = torsion.complete_torsion_hu(seed, n)
                want = torsion.torsion_generate(seed, n).torsion
                if got != want:
                    fails.append(sorted([x.a, x.b] for x in seed))
    _check("closure rules == perpendicular generation (all seeds, n <= 5)", fails, report)
    _check("rectangle decomposition round trip", split_fails, report)

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def verify_tamari(n_max: int) -> dict:
    report = {"suite": "tamari", "n_max": n_max, "checks": []}

    fails = []
    for n in range(1, n_max + 1):
        p = tamari.build_lattice(n)
        if len(p.nodes) != catalan(n):
            fails.append({"n": n, "nodes": len(p.nodes)})
        if not tamari.is_lattice(p):
            fails.append({"n": n, "lattice": False})
    _check("node counts and lattice property", fails, report)

    fails = []
    for n in range(1, n_max + 1):
        if not tamari.verify_order_reversing(n):
            fails.append({"n": n})
    _check("torsion bijection reverses covers", fails, report)

    fails = []
    expected = {1: 1, 2: 1, 3: 2, 4: 9}
    for n, want in expected.items():
        if n <= n_max and tamari.count_maximal_chains(n) != want:
            fails.append({"n": n, "chains": tamari.count_maximal_chains(n)})
    _check("maximal chain counts", fails, report)

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def run_suite(suite: str, n_max: int) -> dict:
    if suite == "roundtrips":
        return verify_roundtrips(n_max)
    if suite == "commutativity":
        return verify_commutativity(n_max)
    if suite == "torsion":
        return verify_torsion(n_max)
    if suite == "tamari":
        return verify_tamari(min(n_max, 6))
    if suite == "all":
        subs = [
            verify_roundtrips(n_max),
            verify_commutativity(n_max),
            verify_torsion(n_max),
            verify_tamari(min(n_max, 6)),
        ]
        return {
            "suite": "all",
            "n_max": n_max,
            "checks": [c for s in subs for c in s["checks"]],
            "passed": all(s["passed"] for s in subs),
        }
    raise ValueError(f"unknown suite {suite!r}")
