"""Exhaustive property suites behind the `verify` CLI verb.

Each check runs over every object up to the requested size and reports its
first three counterexamples, as serialized documents (_check).  Suites:

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
from .errors import InvariantError

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


def _check(name, failures):
    return {"name": name, "passed": not failures, "counterexamples": failures[:3]}


def _report(suite, n_max, checks):
    return {
        "suite": suite,
        "n_max": n_max,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def verify_roundtrips(n_max: int) -> dict:
    tree_fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            if dyck.dyck_to_tree(dyck.tree_to_dyck(t)) != t:
                tree_fails.append(to_paren(t))

    path_fails = []
    for n in range(n_max + 1):
        for w in enumerate_dyck(n):
            p = dyck.DyckPath(w)
            if dyck.tree_to_dyck(dyck.dyck_to_tree(p)).steps != w:
                path_fails.append(w)
            if dyck.young_to_dyck(dyck.dyck_to_young(p)).steps != w:
                path_fails.append(w)

    shelf_fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            if inverse_bookshelf(bookshelf(t), n) != t:
                shelf_fails.append(to_paren(t))
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            t = inverse_bookshelf(y, n)
            if bookshelf(t) != y or _gap_insertion(rows, n) != t:
                shelf_fails.append(serialize.serialize_young(y))

    perm_fails = []
    for n in range(n_max + 1):
        for p in enumerate_perms213(n):
            if baseball.tree_to_perm(baseball.perm_to_tree(p)) != p:
                perm_fails.append(list(p))
        for t in enumerate_trees(n):
            p = baseball.tree_to_perm(t)
            if baseball.perm_to_tree(p) != t or baseball.trace_wires(t) != p:
                perm_fails.append(to_paren(t))

    torsion_fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            g = torsion.tree_to_torsion(t).torsion
            if torsion.torsion_to_tree(g, n) != t:
                torsion_fails.append(to_paren(t))
    return _report("roundtrips", n_max, [
        _check("tree->dyck->tree", tree_fails),
        _check("dyck->tree->dyck and dyck->young->dyck", path_fails),
        _check("bookshelf both ways", shelf_fails),
        _check("perm <-> tree", perm_fails),
        _check("tree <-> torsion", torsion_fails),
    ])


def verify_commutativity(n_max: int) -> dict:
    route_fails, frame_fails = [], []  # each tree's gapped frame is built once
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            frame = bookshelf_gapped(t)
            if push_gaps(frame) != bookshelf(t):
                route_fails.append(to_paren(t))
            g = torsion.tree_to_torsion(t).torsion
            if torsion.torsion_to_gapped_young(g, n) != frame:
                frame_fails.append(to_paren(t))
    return _report("commutativity", n_max, [
        _check("bookshelf == dyck route", route_fails),
        _check("torsion gapped frame == bookshelf gapped frame", frame_fails),
    ])


def verify_torsion(n_max: int) -> dict:
    hom_fails = []
    for n in range(1, n_max + 1):
        balls = sorted(torsion.all_balls(n))
        for x in balls:
            if not torsion.hom_nonzero(x, x, n):
                hom_fails.append([x.a, x.b])
            for y in balls:
                if x != y and torsion.hom_nonzero(x, y, n) and torsion.hom_nonzero(y, x, n):
                    hom_fails.append([[x.a, x.b], [y.a, y.b]])

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

    closure_fails = []
    for n in range(min(n_max, 5) + 1):
        balls = sorted(torsion.all_balls(n))
        for r in range(len(balls) + 1):
            for seed in combinations(balls, r):
                got = torsion.complete_torsion_hu(seed, n)
                want = torsion.torsion_generate(seed, n).torsion
                if got != want:
                    closure_fails.append(sorted([x.a, x.b] for x in seed))
    return _report("torsion", n_max, [
        _check("hom reflexive and antisymmetric", hom_fails),
        _check("trees give torsion pairs (both clauses)", pair_fails),
        _check("generation is idempotent on classes", generate_fails),
        _check("closure rules == perpendicular generation (all seeds, n <= 5)", closure_fails),
        _check("rectangle decomposition round trip", split_fails),
    ])


def verify_tamari(n_max: int) -> dict:
    lattice_fails = []
    for n in range(1, n_max + 1):
        p = tamari.build_lattice(n)
        if len(p.nodes) != catalan(n):
            lattice_fails.append({"n": n, "nodes": len(p.nodes)})
        if not tamari.is_lattice(p):
            lattice_fails.append({"n": n, "lattice": False})
    order_fails = []
    for n in range(1, n_max + 1):
        if not tamari.verify_order_reversing(n):
            order_fails.append({"n": n})
    chain_fails = []
    expected = {1: 1, 2: 1, 3: 2, 4: 9}
    for n, want in expected.items():
        if n <= n_max and tamari.count_maximal_chains(n) != want:
            chain_fails.append({"n": n, "chains": tamari.count_maximal_chains(n)})
    return _report("tamari", n_max, [
        _check("node counts and lattice property", lattice_fails),
        _check("torsion bijection reverses covers", order_fails),
        _check("maximal chain counts", chain_fails),
    ])


def _all(n_max: int) -> dict:
    subs = [suite(n_max) for name, suite in SUITES.items() if name != "all"]
    return _report("all", n_max, [c for s in subs for c in s["checks"]])


# name: the suite's report.  Each suite is looked up when called, so that a
# patched module attribute is the one called; tamari is clamped to n <= 6.
SUITES = {
    "roundtrips": lambda n_max: verify_roundtrips(n_max),
    "commutativity": lambda n_max: verify_commutativity(n_max),
    "torsion": lambda n_max: verify_torsion(n_max),
    "tamari": lambda n_max: verify_tamari(min(n_max, 6)),
    "all": lambda n_max: _all(n_max),
}


def run_suite(suite: str, n_max: int) -> dict:
    """The report of suite up to n_max, the documented 2..9: below 2 some
    check sees no object, above 9 the sweep runs for minutes."""
    if suite not in SUITES:
        raise InvariantError(f"unknown suite {suite!r}")
    if not 2 <= n_max <= 9:
        raise InvariantError(f"verify needs n_max in 2..9, got {n_max}")
    return SUITES[suite](n_max)
