"""Exhaustive property suites behind the `verify` CLI verb.

Each check runs over every object up to the requested size and reports its
first three counterexamples, as serialized documents (_check).  Suites:

    roundtrips      every bijection composed with its inverse is the identity
    commutativity   the shelf construction equals bookshelf, gapped
                    frames agree
    torsion         Hom calibration, torsion pairs from trees, closure rules
    tamari          lattice structure, chain counts, order reversal
    all             everything above

The paper's own constructions are oracles here: the shelf construction must
agree with bookshelf, the gap-insertion search with inverse_bookshelf, the
wire diagram with tree_to_perm.

Each suite is a tuple of check groups: a group is the smallest walk that
shares work (one roundtrip, commutativity, torsion, tamari), and returns its
checks.  run_suite runs the requested suite's groups on the CPUs this
process may use, by forking, with no setting (_run); the verify_* functions
run theirs here, one after another.  Either way the report is the same.
"""

import _thread
import marshal
import os
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


# The check groups: each takes n_max and returns its checks, in report order.

def _tree_dyck(n_max):
    fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            if dyck.dyck_to_tree(dyck.tree_to_dyck(t)) != t:
                fails.append(to_paren(t))
    return [_check("tree->dyck->tree", fails)]


def _paths(n_max):
    fails = []
    for n in range(n_max + 1):
        for w in enumerate_dyck(n):
            p = dyck.DyckPath(w)
            if dyck.tree_to_dyck(dyck.dyck_to_tree(p)).steps != w:
                fails.append(w)
            if dyck.young_to_dyck(dyck.dyck_to_young(p)).steps != w:
                fails.append(w)
    return [_check("dyck->tree->dyck and dyck->young->dyck", fails)]


def _shelves(n_max):
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
    return [_check("bookshelf both ways", fails)]


def _perms(n_max):
    fails = []
    for n in range(n_max + 1):
        for p in enumerate_perms213(n):
            if baseball.tree_to_perm(baseball.perm_to_tree(p)) != p:
                fails.append(list(p))
        for t in enumerate_trees(n):
            p = baseball.tree_to_perm(t)
            if baseball.perm_to_tree(p) != t or baseball.trace_wires(t) != p:
                fails.append(to_paren(t))
    return [_check("perm <-> tree", fails)]


def _tree_torsion(n_max):
    fails = []
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            g = torsion.tree_to_torsion(t).torsion
            if torsion.torsion_to_tree(g, n) != t:
                fails.append(to_paren(t))
    return [_check("tree <-> torsion", fails)]


def _commutativity(n_max):
    route_fails, frame_fails = [], []  # each tree's gapped frame is built once
    for n in range(n_max + 1):
        for t in enumerate_trees(n):
            frame = bookshelf_gapped(t)
            if push_gaps(frame) != bookshelf(t):
                route_fails.append(to_paren(t))
            g = torsion.tree_to_torsion(t).torsion
            if torsion.torsion_to_gapped_young(g, n) != frame:
                frame_fails.append(to_paren(t))
    return [
        _check("bookshelf == dyck route", route_fails),
        _check("torsion gapped frame == bookshelf gapped frame", frame_fails),
    ]


def _torsion(n_max):
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
    return [
        _check("hom reflexive and antisymmetric", hom_fails),
        _check("trees give torsion pairs (both clauses)", pair_fails),
        _check("generation is idempotent on classes", generate_fails),
        _check("closure rules == perpendicular generation (all seeds, n <= 5)", closure_fails),
        _check("rectangle decomposition round trip", split_fails),
    ]


def _tamari(n_max):
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
    return [
        _check("node counts and lattice property", lattice_fails),
        _check("torsion bijection reverses covers", order_fails),
        _check("maximal chain counts", chain_fails),
    ]


_ROUNDTRIPS = (_tree_dyck, _paths, _shelves, _perms, _tree_torsion)


def verify_roundtrips(n_max: int) -> dict:
    return _report("roundtrips", n_max, [c for group in _ROUNDTRIPS for c in group(n_max)])


def verify_commutativity(n_max: int) -> dict:
    return _report("commutativity", n_max, _commutativity(n_max))


def verify_torsion(n_max: int) -> dict:
    return _report("torsion", n_max, _torsion(n_max))


def verify_tamari(n_max: int) -> dict:
    return _report("tamari", n_max, _tamari(n_max))


_TAMARI_MAX = 6  # run_suite's tamari checks stop at this n


def _tamari_clamped(n_max):
    return _tamari(min(n_max, _TAMARI_MAX))


# name: its check groups, in report order
SUITES = {
    "roundtrips": _ROUNDTRIPS,
    "commutativity": (_commutativity,),
    "torsion": (_torsion,),
    "tamari": (_tamari_clamped,),
}
SUITES["all"] = tuple(group for groups in SUITES.values() for group in groups)

# every group, the longest first: at n_max 7 they take about 26, 34, 40, 24,
# 18, 11, 9 and 4 ms cold, 26, 25, 18, 15, 10, 10, 6 and 3 ms warm (best of
# 8 fresh processes)
_LONGEST_FIRST = (
    _shelves, _perms, _torsion, _commutativity, _tree_torsion, _paths, _tree_dyck,
    _tamari_clamped,
)


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 without os.fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _take(queue):
    """The group indices read off the queue pipe, one byte each, until it is
    empty: a one-byte read is atomic, so each index goes to one reader."""
    while True:
        byte = os.read(queue, 1)
        if not byte:
            return
        yield byte[0]


def _child(groups, n_max, queue, out):
    """Run the groups taken off the queue, send {index: checks} through out
    by marshal, and end the process: status 0 only if every group returned."""
    code = 1
    try:
        with open(out, "wb") as f:
            f.write(marshal.dumps({i: groups[i](n_max) for i in _take(queue)}))
        code = 0
    finally:
        os._exit(code)


def _run(groups, n_max):
    """The checks of groups, in order.

    The groups go out longest first, from a queue pipe, to k processes: this
    one and k - 1 forked children, k = min(_cpus(), len(groups)), or 1 while
    another Python thread is alive.  A child sends its groups' checks back
    through a pipe; the groups of a child that exits nonzero or sends short
    data are run here, so an exception from a check rises here.  Every
    child is waited for, whether this process returns or raises.
    """
    k = min(_cpus(), len(groups)) if _thread._count() == 0 else 1
    if k > 1:  # the tables every process reads, built once before forking
        for n in range(n_max + 1):
            enumerate_trees(n)
            torsion._engine(n)
    queue, feed = os.pipe()
    os.write(feed, bytes(groups.index(g) for g in _LONGEST_FIRST if g in groups))
    os.close(feed)
    done, children = {}, []
    try:
        for _ in range(k - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # run the rest here
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                for earlier, _ in children:
                    os.close(earlier)
                os.close(r)
                _child(groups, n_max, queue, w)
            os.close(w)
            children.append((r, pid))
        for i in _take(queue):
            done[i] = groups[i](n_max)
    finally:
        while os.read(queue, 64):  # children stop after their current group
            pass
        os.close(queue)
        for r, pid in children:
            with open(r, "rb") as f:
                data = f.read()
            try:
                if os.waitpid(pid, 0)[1] == 0:
                    done.update(marshal.loads(data))
            except (ChildProcessError, EOFError, ValueError, TypeError):
                pass  # reaped elsewhere (SIGCHLD ignored) or short data
    for i, group in enumerate(groups):
        if i not in done:  # a failed child's group
            done[i] = group(n_max)
    return [c for i in range(len(groups)) for c in done[i]]


def run_suite(suite: str, n_max: int) -> dict:
    """The report of suite up to n_max, the documented 2..9: below 2 some
    check sees no object; verify all took 1.79 s at 9 and 6.35-7.04 s at 10
    on 2 CPUs, 12.7 s serially (ROADMAP item 7).  Its check groups run on
    the CPUs this process may use (_run)."""
    if suite not in SUITES:
        raise InvariantError(f"unknown suite {suite!r}")
    if not 2 <= n_max <= 9:
        raise InvariantError(f"verify needs n_max in 2..9, got {n_max}")
    report_n = min(n_max, _TAMARI_MAX) if suite == "tamari" else n_max
    return _report(suite, report_n, _run(SUITES[suite], n_max))
