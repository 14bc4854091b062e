"""Self-check of the benchmark at tiny sizes, so that it cannot silently rot."""

import json
import random
import subprocess
import sys
from collections import Counter
from time import sleep

import pytest

import inputs
import workloads

if str(workloads.SRC) not in sys.path:
    sys.path.insert(0, str(workloads.SRC))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from catbij import enumerate_trees, is_leaf  # noqa: E402
from catbij.errors import CatbijError  # noqa: E402


def as_tuple(t):
    return () if is_leaf(t) else (as_tuple(t.left), as_tuple(t.right))


def test_cycle_lemma_gives_uniform_valid_trees():
    rng = random.Random(7)
    counts = Counter()
    for _ in range(5000):
        word = inputs.random_postfix(rng, 3)
        heights = [word[:k].count("U") - word[:k].count("R") for k in range(1, len(word))]
        assert min(heights) >= 1 and word.count("U") == 4
        counts[inputs.tree_from_postfix(word)] += 1
    assert set(counts) == {as_tuple(t) for t in enumerate_trees(3)}
    assert all(800 < c < 1200 for c in counts.values())


def test_reference_documents_match_catbij():
    hub_in, hub_out = workloads._hub()
    for n in range(6):
        for t in enumerate_trees(n):
            for family in inputs.FAMILIES:
                if family == "torsion" and n == 0:
                    continue
                ref = inputs.document(family, as_tuple(t))
                assert json.loads(hub_out[family](t)) == ref
                assert hub_in[family](inputs.dumps(ref)) == t


@pytest.mark.parametrize("kind", inputs.INVALID_KINDS)
def test_invalid_documents(kind):
    hub_in, _ = workloads._hub()
    rng = random.Random(kind)
    for _ in range(60):
        doc = inputs.invalid_doc(rng, kind, max_n=6, torsion_max_n=5)
        if kind == "bool":
            # invalid only through the boolean: as an integer it is valid
            assert "true" in doc.text
            hub_in[doc.source](doc.text.replace("true", "1"))
        else:
            with pytest.raises(CatbijError):
                hub_in[doc.source](doc.text)


def test_tracer_self_time():
    tr = Tracer()
    tr.current_op = 0
    outer = tr.begin("a.outer")
    sleep(0.002)
    inner = tr.begin("b.inner")
    sleep(0.002)
    tr.finish(inner)
    tr.finish(outer)
    s = tr.summary()
    (d_outer,), (d_inner,) = s["a.outer"]["durations"], s["b.inner"]["durations"]
    assert s["a.outer"]["self_s"] == pytest.approx(d_outer - d_inner)
    assert s["b.inner"]["self_s"] == pytest.approx(d_inner)


def check_layers(workload, res):
    values = run.per_layer(workload, res, workloads.SIZES["tiny"][workload])
    assert set(values) == {name for name, _, _ in run.PER_LAYER}
    assert all(v >= 0 for k, v in values.items() if k != "trace.overhead_pct")


def test_convert_workload_tiny():
    res = workloads.run_convert(1, 0.3, True, scale="tiny", setup_count=1)
    assert not res.wrong
    assert res.passes >= 2 and res.traced_ops and res.best.keys() == res.traced_best.keys()
    # every failure is the known defect: JSON true accepted as an integer
    assert set(res.counts) <= {"rejected_ok", "failed.bool"}
    assert res.failed == res.counts["failed.bool"]
    assert all(v > 0 for v, _ in run.end_to_end("convert", res).values())
    check_layers("convert", res)


def test_convert_counts_depend_only_on_the_seed():
    one = workloads.run_convert(3, 0, False, scale="tiny", setup_count=0)
    many = workloads.run_convert(3, 0.5, False, scale="tiny", setup_count=0)
    assert one.passes == 1 and many.passes > 1 and not many.wrong
    assert (one.attempted, one.failed) == (many.attempted, many.failed)
    assert one.attempted == workloads.SIZES["tiny"]["convert"]["pool"]


def test_verify_workload_tiny():
    res = workloads.run_verify(1, 0, True, scale="tiny", setup_count=1)
    assert not res.wrong and res.failed == 0
    assert all(v > 0 for v, _ in run.end_to_end("verify", res).values())
    check_layers("verify", res)


def test_cli_workload_tiny():
    res = workloads.run_cli(1, 0, True, scale="tiny")
    assert not res.wrong and res.failed == 0
    assert all(v > 0 for v, _ in run.end_to_end("cli", res).values())
    check_layers("cli", res)


def test_benchmark_json_matches_run():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.RUNNERS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_without_program_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((workloads.ROOT / "BENCHMARK.json").read_bytes())
    for p in workloads.BENCH.glob("*.py"):
        (tmp_path / "bench" / p.name).write_bytes(p.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "convert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
