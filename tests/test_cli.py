"""Command line behavior: verbs, formats, exit codes, conversion coherence."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import pytest

from catbij import (
    LEAF,
    Node,
    TorsionPair,
    YoungDiagram,
    bookshelf_gapped,
    catalan,
    dyck,
    right_comb,
    tamari,
    torsion,
)
from catbij.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_trees_paren(capsys):
    code, out, _ = run(capsys, "enumerate", "tree", "--n", "2", "--format", "paren")
    assert code == 0
    assert out.splitlines() == ["(•(••))", "((••)•)"]


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "perm213", "--n", "3")
    assert code == 0
    assert len(out.splitlines()) == 5
    code, out, _ = run(capsys, "enumerate", "young", "--n", "0")
    assert code == 0
    assert out.splitlines() == ['{"n": 0, "rows": []}']


@pytest.mark.parametrize("family", ["tree", "dyck", "young", "perm213", "torsion"])
def test_enumerate_lines_are_the_serialized_validated_objects(capsys, family):
    # the CLI formats what the enumerators make without building or checking
    # an object; each line must still be the public serializer's document of
    # the validated object, in enumeration order
    from catbij import (
        DyckPath,
        YoungDiagram,
        enumerate_dyck,
        enumerate_parens,
        enumerate_perms213,
        enumerate_trees,
        enumerate_young,
        is_213_avoiding,
        to_paren,
    )
    from catbij.serialize import (
        serialize_dyck,
        serialize_perm,
        serialize_torsion,
        serialize_tree,
        serialize_young,
    )
    from catbij.torsion import tree_to_torsion

    for n in range(0, 9):
        if family == "tree":
            want = [serialize_tree(t) for t in enumerate_trees(n)]
        elif family == "dyck":
            want = [serialize_dyck(DyckPath(w)) for w in enumerate_dyck(n)]
        elif family == "young":
            want = [serialize_young(YoungDiagram(rows, n)) for rows in enumerate_young(n)]
        elif family == "torsion":
            want = [serialize_torsion(tree_to_torsion(t)) for t in enumerate_trees(n)]
        else:
            perms = enumerate_perms213(n)
            assert all(map(is_213_avoiding, perms))
            want = [serialize_perm(p) for p in perms]
        code, out, _ = run(capsys, "enumerate", family, "--n", str(n))
        assert code == 0 and out.splitlines() == want
        if family == "tree":
            code, out, _ = run(capsys, "enumerate", "tree", "--n", str(n), "--format", "paren")
            assert code == 0
            assert out.splitlines() == [to_paren(t) for t in enumerate_trees(n)]
            assert out.splitlines() == list(enumerate_parens(n))


# the sha256 of each family's stdout at n = 12; bench/workloads.py DIGESTS
# pins the first four, and torsion at its bench bound of n = 8; "paren" is
# enumerate tree --format paren, the empty-quote case of core._parens
N12_DIGESTS = {
    "tree": "64e3d89a9f790aa80272af1e870c3463f3e1f8d21cc3cc3b475d601394f141a2",
    "dyck": "51e8fd5d6ddb9c040bcec3ac274eafc9a9126c845199001c856cc6a76d4eac45",
    "young": "b76894c96bc833fb992f5930f332938bcc4041951f413708b69d60464532b954",
    "perm213": "81aef49f277ca0e17ca3a2f4e2a6d1a46113b250a6c5c1e7a80b8460d74958a0",
    "torsion": "3b7031ab408722aa5ce9f2a8f44abf37b08aaeedd23216d1784a9b7ba41dcf87",
    "paren": "786d698abd138de4e44bd5141ec034ba1c3f6a53102ac8b0e076f6bba9fea68a",
}


@pytest.mark.parametrize("family", N12_DIGESTS)
def test_enumerate_n12_prints_the_pinned_bytes(capsysbinary, family):
    argv = ["enumerate", family, "--n", "12"]
    if family == "paren":
        argv[1:2] = ["tree", "--format", "paren"]
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    assert out.count(b"\n") == 208_012
    assert hashlib.sha256(out).hexdigest() == N12_DIGESTS[family]


def test_enumerate_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "widget", "--n", "2")
    assert code == 1 and "invalid choice: 'widget'" in err
    code, _, err = run(capsys, "enumerate", "tree", "--n", "40")
    assert code == 1 and "out of bounds" in err
    code, _, err = run(capsys, "enumerate", "torsion", "--n", "13")
    assert code == 1 and "out of bounds" in err


# argv: what its one error line says, in words that argparse keeps from
# Python 3.10 to 3.12
REFUSED = {
    "unknown-verb": (["frob"], "'frob'"),
    "unknown-family": (["enumerate", "widget", "--n", "2"], "'widget'"),
    "unknown-suite": (["verify", "everything"], "'everything'"),
    "unknown-render-family": (["render", "dyck", "--input", '"UR"'], "'dyck'"),
    "non-int-n": (["enumerate", "tree", "--n", "abc"], "'abc'"),
    "missing-n": (["enumerate", "tree"], "--n"),
    "bad-format": (["convert", "tree", "dyck", "--format", "xml", "--input", '"•"'], "'xml'"),
    "bad-backend": (["render", "tree", "--backend", "png", "--input", '"•"'], "'png'"),
    "render-tree-n": (["render", "tree", "--n", "3", "--input", '"•"'], "render lattice only"),
    "render-lattice-no-n": (["render", "lattice", "--backend", "dot"], "render lattice only"),
    "render-lattice-input": (
        ["render", "lattice", "--n", "2", "--backend", "dot", "--input", '"garbage"'],
        "--input is not for render lattice",
    ),
    "enumerate-below": (["enumerate", "tree", "--n=-1"], "0..12"),
    "enumerate-above": (["enumerate", "tree", "--n", "13"], "0..12"),
    "chains-below": (["chains", "--n", "0"], "1..11"),
    "chains-above": (["chains", "--n", "12"], "1..11"),
    "lattice-below": (["lattice", "--n", "0"], "1..8"),
    "lattice-above": (["lattice", "--n", "9"], "1..8"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_refused_argv_prints_one_error_line(capsys, case):
    argv, says = REFUSED[case]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err


@pytest.mark.parametrize("family", ["tree", "dyck", "young", "perm213", "torsion"])
def test_enumerate_enforces_the_documented_bound(capsys, family):
    for n in ("--n=-1", "--n=13"):  # just past 0..12
        code, out, err = run(capsys, "enumerate", family, n)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "out of bounds" in err


def test_convert_dyck_to_young(capsys):
    code, out, _ = run(capsys, "convert", "dyck", "young", "--input", '"URURUR"')
    assert code == 0
    assert json.loads(out) == {"n": 3, "rows": [2, 1]}


def test_convert_perm_to_young(capsys):
    # composite of perm -> tree -> bookshelf, cross-checked in test via the
    # dyck route
    from catbij import bookshelf, dyck_to_young, perm_to_tree, tree_to_dyck

    t = perm_to_tree((5, 1, 2, 3, 4))
    want = dyck_to_young(tree_to_dyck(t))
    assert bookshelf(t) == want

    code, out, _ = run(capsys, "convert", "perm213", "young", "--input", "[5,1,2,3,4]")
    assert code == 0
    assert json.loads(out) == {"n": 5, "rows": list(want.rows)}
    assert want.rows == (3, 3, 2, 1)


def test_convert_identity(capsys):
    code, out, _ = run(
        capsys, "convert", "tree", "tree", "--input", '"((••)•)"'
    )
    assert code == 0
    assert json.loads(out) == "((••)•)"


def test_convert_bad_input(capsys):
    code, _, err = run(capsys, "convert", "perm213", "tree", "--input", "[2,3,1,4,5]")
    assert code == 1 and "213" in err
    code, _, err = run(capsys, "convert", "dyck", "tree", "--input", '"RRUU"')
    assert code == 1


@pytest.mark.parametrize(
    "source, doc",
    [
        ("young", '{"n": 2000000, "rows": []}'),
        ("perm213", json.dumps(list(range(1500, 0, -1)))),
        ("dyck", json.dumps("U" * 1500 + "R" * 1500)),
        ("tree", json.dumps("(" * 1500 + "•" + "•)" * 1500)),
        ("tree", "[" * 13 + "[]" + ", []]" * 13),
    ],
    ids=["young", "perm213", "dyck", "tree-paren", "tree-array"],
)
def test_convert_enforces_the_documented_bound(capsys, source, doc):
    code, out, err = run(capsys, "convert", source, "tree", "--input", doc)
    assert code == 1 and out == ""
    assert "out of bounds" in err


def left_comb_torsion_doc(n):
    # every ball is torsion for the left comb, and none is free
    balls = [[a, b] for a in range(1, n) for b in range(a, n)]
    return json.dumps({"n": n, "torsion": balls, "free": []})


@pytest.mark.parametrize(
    "argv",
    [["convert", "torsion", "dyck"], ["render", "torsion", "--backend", "svg"]],
    ids=["convert", "render"],
)
def test_torsion_ambient_is_bounded_before_the_ball_tables(capsys, monkeypatch, argv):
    from catbij import torsion

    monkeypatch.setattr(torsion, "_engine", lambda n: pytest.fail(f"ambient-{n} tables built"))
    code, out, err = run(capsys, *argv, "--input", left_comb_torsion_doc(60))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "out of bounds" in err
    monkeypatch.undo()
    for n in (8, 12):  # 12 is the bound
        code, out, _ = run(capsys, *argv, "--input", left_comb_torsion_doc(n))
        assert code == 0


@pytest.mark.parametrize("backend", ["ascii", "svg"])
def test_render_tree_enforces_the_documented_bound(capsys, backend):
    doc = json.dumps("(" * 1500 + "•" + "•)" * 1500)
    code, out, err = run(capsys, "render", "tree", "--backend", backend, "--input", doc)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "out of bounds" in err


def test_convert_round_trips_all_pairs(capsys):
    from catbij import enumerate_trees
    from catbij.cli import FAMILIES, _from_tree, _to_tree

    for n in range(0, 5):
        for t in enumerate_trees(n):
            for a in FAMILIES:
                doc = _from_tree(a, t, "json")
                for b in FAMILIES:
                    mid = _from_tree(b, _to_tree(a, doc), "json")
                    back = _from_tree(a, _to_tree(b, mid), "json")
                    assert back == doc


def test_ambient_zero_torsion_pair_round_trips(capsys):
    code, line, _ = run(capsys, "enumerate", "torsion", "--n", "0")
    assert code == 0 and line == '{"n": 0, "torsion": [], "free": []}\n'
    assert run(capsys, "convert", "torsion", "torsion", "--input", line) == (0, line, "")
    assert run(capsys, "convert", "torsion", "tree", "--input", line) == (0, '"•"\n', "")
    assert run(capsys, "convert", "tree", "torsion", "--input", '"•"') == (0, line, "")


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 1


@pytest.mark.parametrize("n_max", ["-3", "0", "1", "10", "100"])
def test_verify_rejects_n_max_outside_2_to_9(capsys, monkeypatch, n_max):
    # below 2 some check sees no object; above 9 the sweep runs for minutes,
    # so the suite must not even start
    import catbij.verify as v

    for name in v.SUITES:
        monkeypatch.setitem(v.SUITES, name, lambda n_max: pytest.fail("suite ran"))
    code, out, err = run(capsys, "verify", "all", "--n-max", n_max)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "2..9" in err


@pytest.mark.parametrize("n_max", [1, 10])
def test_run_suite_refuses_n_max_outside_2_to_9(monkeypatch, n_max):
    from catbij import InvariantError
    import catbij.verify as v

    for name in v.SUITES:
        monkeypatch.setitem(v.SUITES, name, lambda n_max: pytest.fail("suite ran"))
    with pytest.raises(InvariantError, match=r"2\.\.9"):
        v.run_suite("all", n_max)


def test_run_suite_refuses_an_unknown_suite():
    from catbij import InvariantError
    import catbij.verify as v

    with pytest.raises(InvariantError, match="unknown suite 'everything'"):
        v.run_suite("everything", 4)


def test_verify_failure_exits_2(capsys, monkeypatch):
    import catbij.verify as v

    def broken(suite, n_max):
        return {"suite": suite, "n_max": n_max, "checks": [], "passed": False}

    monkeypatch.setattr(v, "run_suite", broken)
    code, out, _ = run(capsys, "verify", "all", "--n-max", "2")
    assert code == 2


def test_verify_oracles_are_not_vacuous(monkeypatch):
    from catbij import YoungDiagram, baseball, torsion, tree_to_perm
    import catbij.verify as v

    def failed(report):
        return {c["name"] for c in report["checks"] if not c["passed"]}

    monkeypatch.setattr(baseball, "trace_wires", lambda t: tree_to_perm(t)[::-1])
    assert failed(v.run_suite("roundtrips", 4)) == {"perm <-> tree"}
    monkeypatch.setattr(v, "_gap_insertion", lambda rows, n: None)
    assert "bookshelf both ways" in failed(v.run_suite("roundtrips", 4))
    monkeypatch.setattr(v, "push_gaps", lambda g: YoungDiagram((), g.n))
    assert failed(v.run_suite("commutativity", 4)) == {"bookshelf == dyck route"}
    # a closure applying only the quotient rule is caught with the class
    # table warm, so a table hit cannot stand in for the closure's result
    assert failed(v.verify_torsion(5)) == set()

    def quot_only(mask, e):
        return torsion._union(mask, e.quot)

    monkeypatch.setattr(torsion, "_complete_mask", quot_only)
    assert failed(v.verify_torsion(5)) == {
        "closure rules == perpendicular generation (all seeds, n <= 5)"
    }
    monkeypatch.undo()
    torsion._engine.cache_clear()  # drop the non-classes the patch put in the table
    # a closure memo filled by a correct run answers every seed up to
    # ambient 5 without the extension pass; emptied with the engine, it
    # leaves an extension pass that adds nothing to be caught
    assert failed(v.verify_torsion(5)) == set()
    monkeypatch.setattr(torsion, "_extend", lambda closed, ext: closed)
    assert failed(v.verify_torsion(5)) == set()
    torsion._engine.cache_clear()
    assert failed(v.verify_torsion(5)) == {
        "closure rules == perpendicular generation (all seeds, n <= 5)"
    }
    monkeypatch.undo()
    torsion._engine.cache_clear()


def one_sided_dyck(monkeypatch):
    # dyck_to_tree adds a root over a bare left leaf and tree_to_dyck strips
    # one: dyck -> tree -> dyck is still the identity, tree -> dyck -> tree not
    to_tree, to_dyck = dyck.dyck_to_tree, dyck.tree_to_dyck
    monkeypatch.setattr(dyck, "dyck_to_tree", lambda p: Node(LEAF, to_tree(p)))
    monkeypatch.setattr(
        dyck, "tree_to_dyck", lambda t: to_dyck(t.right if t != LEAF and t.left == LEAF else t)
    )


def generation_short_of_simple_balls(monkeypatch):
    # generation and the closure rules agree, so only idempotence can see
    # that both drop the simple balls; the free class stays right
    generate = torsion.torsion_generate

    def short(seed, n):
        pair = generate(seed, n)
        return TorsionPair({x for x in pair.torsion if x.a < x.b}, pair.free, n)

    monkeypatch.setattr(torsion, "torsion_generate", short)
    monkeypatch.setattr(torsion, "complete_torsion_hu", lambda seed, n: short(seed, n).torsion)


def wrong(module, name, make):
    """Patches module.name to make(the real map)."""
    return lambda monkeypatch: monkeypatch.setattr(
        module, name, make(getattr(module, name))
    )


# check: (what makes its map wrong where no other check looks, the first
# counterexample its report promises)
WRONG_MAPS = {
    "tree->dyck->tree": (one_sided_dyck, "•"),
    "dyck->tree->dyck and dyck->young->dyck": (
        wrong(dyck, "dyck_to_young", lambda real: lambda p: YoungDiagram(
            real(p).rows[1:], p.semilength)),  # the top row dropped
        "URUR",
    ),
    "tree <-> torsion": (
        wrong(torsion, "torsion_to_tree", lambda real: lambda objs, n: right_comb(n)),
        "((••)•)",
    ),
    "torsion gapped frame == bookshelf gapped frame": (
        wrong(torsion, "torsion_to_gapped_young",
              lambda real: lambda objs, n: bookshelf_gapped(right_comb(n))),
        "((••)•)",
    ),
    "hom reflexive and antisymmetric": (
        wrong(torsion, "hom_nonzero", lambda real: lambda x, y, n: True),
        [[1, 1], [1, 2]],
    ),
    "trees give torsion pairs (both clauses)": (
        wrong(torsion, "perp_left", lambda real: lambda objs, n: frozenset()),
        "((••)•)",
    ),
    "generation is idempotent on classes": (generation_short_of_simple_balls, "((••)•)"),
    "rectangle decomposition round trip": (
        wrong(torsion, "recompose_rectangle",
              lambda real: lambda split, n: split.rectangle | split.left),  # no right piece
        "((••)(••))",
    ),
    "node counts and lattice property": (
        wrong(tamari, "build_lattice", lambda real: lambda n: real(max(n - 1, 1))),
        {"n": 2, "nodes": 1},
    ),
    "torsion bijection reverses covers": (
        wrong(tamari, "_torsion_masks",
              lambda real: lambda n: ((free, tors) for tors, free in real(n))),
        {"n": 2},
    ),
    "maximal chain counts": (
        wrong(tamari, "count_maximal_chains", lambda real: lambda n: 1),
        {"n": 3, "chains": 1},
    ),
}


def cpus(monkeypatch, k):
    """Makes run_suite see k CPUs, so that it forks k - 1 children."""
    import catbij.verify as v

    monkeypatch.setattr(v, "_cpus", lambda: k)


def caller_takes_none(monkeypatch):
    """Makes run_suite's caller wait for its child to end and take no group,
    so that the child runs them all.  Returns the list of the child exit
    statuses the caller saw."""
    import catbij.verify as v

    caller, take, statuses = os.getpid(), v._take, []

    def takes(queue):
        if os.getpid() != caller:
            return take(queue)
        statuses.append(os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT).si_status)
        return iter(())

    monkeypatch.setattr(v, "_take", takes)
    return statuses


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "waitid")), reason="run_suite forks only with os.fork"
)


def assert_fails_alone(monkeypatch, name):
    import catbij.verify as v

    make_wrong, first = WRONG_MAPS[name]
    make_wrong(monkeypatch)
    try:
        report = v.run_suite("all", 4)
    finally:
        monkeypatch.undo()
        torsion._engine.cache_clear()  # drop what the patch put in the tables
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [name]
    assert failed[0]["counterexamples"][0] == first


@pytest.mark.parametrize("name", WRONG_MAPS)
def test_each_verify_check_fails_alone_on_its_wrong_map(monkeypatch, name):
    cpus(monkeypatch, 1)
    assert_fails_alone(monkeypatch, name)


@needs_fork
@pytest.mark.parametrize("name", WRONG_MAPS)
def test_each_verify_check_fails_alone_in_a_child(monkeypatch, name):
    # the patched map is the one the forked child calls
    cpus(monkeypatch, 2)
    statuses = caller_takes_none(monkeypatch)
    assert_fails_alone(monkeypatch, name)
    assert statuses == [0]


@needs_fork
@pytest.mark.parametrize("suite", ["roundtrips", "commutativity", "torsion", "tamari", "all"])
def test_run_suite_reports_the_same_on_one_cpu_and_on_more(monkeypatch, suite):
    import catbij.verify as v

    fork, forks = os.fork, []

    def counted():
        forks.append(suite)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    for n_max in range(2, 8):
        cpus(monkeypatch, 1)
        one = v.run_suite(suite, n_max)
        for k in (2, 8):  # 8: one process per group of all
            cpus(monkeypatch, k)
            got = v.run_suite(suite, n_max)
            assert got == one
            assert json.dumps(got, indent=2) == json.dumps(one, indent=2)
    # no more processes than groups: a suite of one group runs it here
    groups = len(v.SUITES[suite])
    assert len(forks) == 6 * sum(min(k, groups) - 1 for k in (2, 8))


@needs_fork
def test_run_suite_reports_the_same_from_a_child_that_runs_every_group(monkeypatch):
    import catbij.verify as v

    cpus(monkeypatch, 1)
    want = [v.run_suite("all", n_max) for n_max in range(2, 8)]
    cpus(monkeypatch, 2)
    statuses = caller_takes_none(monkeypatch)
    got = [v.run_suite("all", n_max) for n_max in range(2, 8)]
    assert [json.dumps(r, indent=2) for r in got] == [json.dumps(r, indent=2) for r in want]
    assert statuses == [0] * 6


@needs_fork
def test_run_suite_runs_every_group_in_the_caller_when_it_cannot_fork(monkeypatch):
    import catbij.verify as v

    def refused():
        raise BlockingIOError("fork refused")

    cpus(monkeypatch, 1)
    want = v.run_suite("all", 4)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refused)
    assert v.run_suite("all", 4) == want


@needs_fork
def test_the_groups_of_a_child_that_sends_short_data_run_in_the_caller(monkeypatch):
    import marshal

    import catbij.verify as v

    cpus(monkeypatch, 1)
    want = v.run_suite("all", 4)
    cpus(monkeypatch, 2)
    statuses = caller_takes_none(monkeypatch)
    dumps = marshal.dumps
    monkeypatch.setattr(marshal, "dumps", lambda value: dumps(value)[:-1])
    assert v.run_suite("all", 4) == want
    assert statuses == [0]


@needs_fork
@pytest.mark.parametrize("in_child", [False, True], ids=["shared", "in_child"])
def test_a_check_that_raises_raises_in_the_caller_and_leaves_no_child(
    capsys, monkeypatch, in_child
):
    from catbij import InvariantError
    import catbij.verify as v

    def broken(p):
        raise InvariantError(f"no tree for {p.steps!r}")

    monkeypatch.setattr(dyck, "dyck_to_tree", broken)
    cpus(monkeypatch, 1)
    with pytest.raises(InvariantError) as serial:
        v.run_suite("all", 4)
    cpus(monkeypatch, 2)
    statuses = caller_takes_none(monkeypatch) if in_child else []
    with pytest.raises(InvariantError) as forked:
        v.run_suite("all", 4)
    assert str(forked.value) == str(serial.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    code, out, err = run(capsys, "verify", "all", "--n-max", "4")
    assert (code, out, err) == (1, "", f"error: {serial.value}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert statuses == ([1, 1] if in_child else [])


FORKS_WITH_A_THREAD = """
import json, os, sys, threading
import catbij.verify as v

stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
try:
    report = v.run_suite("all", 3)
finally:
    stop.set()
    thread.join()
print(json.dumps({"forks": len(forks), "report": report}))
"""


@needs_fork
def test_run_suite_forks_no_child_while_another_thread_is_alive(monkeypatch):
    import catbij
    import catbij.verify as v

    cpus(monkeypatch, 1)
    want = v.run_suite("all", 3)
    src = pathlib.Path(catbij.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", FORKS_WITH_A_THREAD],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == {"forks": 0, "report": want}


def test_threads_building_trees_at_once_all_get_the_stored_tuples(monkeypatch):
    from catbij import core

    monkeypatch.setattr(core, "_TREES", {0: (core.LEAF,)})
    sizes = range(10)
    start = threading.Barrier(8)
    got = []

    def build(order):
        start.wait()
        got.append({n: core.enumerate_trees(n) for n in order})

    # half the threads build the sizes one at a time, half all at once
    threads = [threading.Thread(target=build, args=(sizes[::-1] if k % 2 else sizes,))
               for k in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old)
    stored = core._TREES
    assert sorted(stored) == list(sizes) and len(got) == 8
    for n in sizes:  # each size is stored once: every thread got its tuple
        assert len(stored[n]) == catalan(n)
        assert all(g[n] is stored[n] for g in got)
    kept = {id(t) for trees in stored.values() for t in trees}
    for trees in stored.values():  # built from the stored smaller sizes
        assert all(id(t.left) in kept and id(t.right) in kept for t in trees if t.size)


FORKS_WHILE_A_THREAD_BUILDS_TREES = """
import os, signal, threading
from catbij import core

inside, stop = threading.Event(), threading.Event()
splits = core._splits

def waiting(table, n):
    if threading.current_thread() is thread:
        inside.set()
        stop.wait()
    return splits(table, n)

core._splits = waiting
thread = threading.Thread(target=core.enumerate_trees, args=(6,))
thread.start()
inside.wait()
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child stuck in enumerate_trees ends here, not never
    os._exit(0 if len(core.enumerate_trees(6)) == 132 else 1)
_, status = os.waitpid(pid, 0)
stop.set()
thread.join()
print(status)
"""


@needs_fork
def test_a_child_forked_while_a_thread_builds_trees_can_build_them():
    import catbij

    src = pathlib.Path(catbij.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(  # -W ignore: 3.12 warns of a fork with a live thread
        [sys.executable, "-W", "ignore", "-c", FORKS_WHILE_A_THREAD_BUILDS_TREES],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "0\n"


def test_every_group_of_all_is_queued_once():
    # _run queues only the groups of _LONGEST_FIRST; one left out would run
    # alone in the caller after the queue drains
    import catbij.verify as v

    assert sorted(map(id, v._LONGEST_FIRST)) == sorted(map(id, v.SUITES["all"]))
    assert len(set(v.SUITES["all"])) == len(v.SUITES["all"])


def test_enumerate_writes_in_small_chunks(monkeypatch):
    # torsion lines at n = 10 are about 300 bytes, so each run of 256 passes
    # 32 KiB and is a write of its own; chunks of 4,096 lines peaked at
    # 5.5 MB.  No line goes through the text layer.
    lines = []

    class Discard:
        def write(self, data):
            lines.append(data.count(b"\n"))
            return len(data)

    class BytesOnly:
        buffer = Discard()

        def write(self, text):
            raise AssertionError("a line went through the text layer")

    monkeypatch.setattr(sys, "stdout", BytesOnly())
    tracemalloc.start()
    try:
        assert main(["enumerate", "torsion", "--n", "10"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000
    assert sum(lines) == 16_796 and max(lines) == 256


def test_chains(capsys):
    code, out, _ = run(capsys, "chains", "--n", "4")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(capsys, "chains", "--n", "10")
    assert code == 0 and out.strip() == "36812710172987995"
    for n in ("0", "12", "20"):
        code, _, err = run(capsys, "chains", "--n", n)
        assert code == 1 and "1..11" in err


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 5 and len(doc["covers"]) == 5


def test_render_young_ascii(capsys):
    code, out, _ = run(
        capsys, "render", "young", "--input", '{"n": 3, "rows": [2, 1]}'
    )
    assert code == 0
    assert out == "□□\n□\n"


def test_render_young_enforces_the_documented_bound(capsys):
    code, out, err = run(capsys, "render", "young", "--input", '{"n": 13, "rows": [3]}')
    assert code == 1 and out == ""
    assert err.startswith("error:") and "out of bounds" in err
    code, out, _ = run(capsys, "render", "young", "--input", '{"n": 12, "rows": [11, 3]}')
    assert code == 0
    assert out == "□" * 11 + "\n□□□\n"


def test_render_lattice_dot(capsys, tmp_path):
    target = tmp_path / "t4.dot"
    code, out, _ = run(
        capsys, "render", "lattice", "--n", "4", "--backend", "dot", "--out", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text.count("[shape=box]") == 14 and text.count("->") == 21


def refuse(monkeypatch, *names):
    """Patch each named tamari function to fail the test when it is called."""
    from catbij import tamari

    for name in names:
        fail = lambda *a, name=name: pytest.fail(f"tamari.{name} called")  # noqa: E731
        monkeypatch.setattr(tamari, name, fail)


# what names the lattice; a refused --n or backend must come before any of it
LATTICE_WORK = ("_cover_indices", "enumerate_parens", "build_lattice")


@pytest.mark.parametrize("n", ["0", "9", "20"])
def test_render_lattice_is_bounded_like_lattice(capsys, monkeypatch, n):
    refuse(monkeypatch, *LATTICE_WORK)
    code, out, err = run(capsys, "render", "lattice", "--n", n, "--backend", "dot")
    assert code == 1 and out == ""
    assert "1..8" in err


@pytest.mark.parametrize("n", ["0", "9", "20"])
def test_lattice_enforces_the_documented_bound(capsys, monkeypatch, n):
    refuse(monkeypatch, *LATTICE_WORK)
    code, out, err = run(capsys, "lattice", "--n", n)
    assert code == 1 and out == ""
    assert "1..8" in err


@pytest.mark.parametrize("backend", [None, "ascii", "svg"])
def test_render_lattice_refuses_a_backend_other_than_dot(capsys, monkeypatch, backend):
    refuse(monkeypatch, *LATTICE_WORK)
    argv = ["render", "lattice", "--n", "3"] + (["--backend", backend] if backend else [])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: no {backend or 'ascii'!r} backend for family 'lattice'\n"


def test_lattice_verbs_build_no_tree(capsys, monkeypatch):
    refuse(monkeypatch, "build_lattice", "enumerate_trees")
    code, out, _ = run(capsys, "lattice", "--n", "4")
    doc = json.loads(out)
    assert code == 0 and len(doc["nodes"]) == 14 and len(doc["covers"]) == 21
    code, out, _ = run(capsys, "render", "lattice", "--n", "4", "--backend", "dot")
    assert code == 0 and out.count("[shape=box]") == 14 and out.count("->") == 21


# sha256 of stdout at the documented bound, as bench/workloads.py pins it
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["lattice", "--n", "8"],
         "84c6345d84adfaa286e4abaff069f86e59c4a2f6a2aba946b7312836f7310217"),
        (["render", "lattice", "--n", "8", "--backend", "dot"],
         "e143bf2918c3286b6a2db4178feecc5bc2f4fe6829f889d0ef378f26447985df"),
    ],
)
def test_lattice_verbs_match_their_pinned_digests_at_the_bound(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "dyck", "--n", "2", "--format", "paren"],
        ["enumerate", "torsion", "--n", "2", "--format", "paren"],
        ["convert", "tree", "dyck", "--input", '"(..)"', "--format", "paren"],
        ["convert", "dyck", "young", "--input", '"URUR"', "--format", "paren"],
    ],
    ids=["enumerate-dyck", "enumerate-torsion", "convert-to-dyck", "convert-to-young"],
)
def test_paren_format_is_refused_for_a_family_other_than_tree(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --format paren is for family 'tree'")


def test_paren_format_converts_to_a_tree(capsys):
    code, out, _ = run(capsys, "convert", "dyck", "tree", "--input", '"URUR"', "--format", "paren")
    assert code == 0 and out == "((••)•)\n"


def test_render_torsion_svg(capsys):
    doc = json.dumps(
        {
            "n": 6,
            "torsion": [[1, 1], [3, 3], [5, 5]],
            "free": [[2, 2], [2, 3], [2, 4], [2, 5], [4, 4], [4, 5]],
        }
    )
    code, out, _ = run(capsys, "render", "torsion", "--backend", "svg", "--input", doc)
    assert code == 0 and out.count("<circle") == 15


@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_render_out_to_an_unwritable_path(capsys, tmp_path, where):
    # a missing directory, then a directory
    out_path = str(tmp_path / where)
    code, out, err = run(capsys, "render", "tree", "--input", '"(..)"', "--out", out_path)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write")


# the start of the first line of each family at n = 10
FIRST_AT_10 = {
    "tree": '"(•(•(•(•(•(•(•(•(•(••))))))))))"\n'.encode(),
    "torsion": b'{"n": 10, "torsion": [], "free": [[1, 1], ',
}


@pytest.mark.parametrize("family", FIRST_AT_10)
def test_closed_pipe_exits_1_without_a_traceback(family):
    import catbij

    src = pathlib.Path(catbij.__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "catbij.cli", "enumerate", family, "--n", "10"]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the start of the first line, then the pipe closes with most of the
    # output (0.9 MB of trees, 4.9 MB of torsion pairs) still to write
    first = FIRST_AT_10[family]
    assert proc.stdout.read(len(first)) == first
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_render_usage_error(capsys):
    code, _, err = run(capsys, "render", "young", "--backend", "svg", "--input", "{}")
    assert code == 1
