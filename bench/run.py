"""catbij benchmark: time the convert, verify and cli workloads.

    python3 bench/run.py --workload {convert,verify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; catbij is loaded from its src/ directory.
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
records spans around the calls into each layer and reports the per-layer
metrics, including the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Details, and the spans of a traced run, are written to
.bench_out/.  A run whose checked outputs are wrong prints correct: false
and no metrics, and exits 1.

End-to-end metrics.  An operation is one document for convert, one pass over
the fixed proof set for verify, and one pass over the verb list for cli.
Each workload repeats the same inputs pass after pass for the whole run and
times every piece of it (convert: each document; verify: each proof, the
sweep in chunks of seeds; cli: each verb) by its best pass.  attempted and failed count one
pass; every later pass is checked as well and must give the same outcomes.
Best times, because the host is shared and its speed drifts by tens of
percent within a minute; a best time is what moves least between runs.

    ops_per_s    operations completed and checked per second of best time:
                 convert, documents per second of the summed best times of
                 the pool's documents (convert_ops_per_s); verify, cli, one
                 over the pass time below
    op_p50_ms    convert: median over the pool's documents of each one's
                 best time (convert_p50_us); verify, cli: the pass time, the
                 sum of the best times of its proofs or verbs (verify_s,
                 cli_wall_s)
    op_p99_ms    convert: 99th percentile, nearest rank, of the same
                 (convert_p99_us); verify, cli: the pass time again, as a
                 fixed pass has no spread of its own
    setup_s      convert, verify: import catbij plus the warm-up the timed
                 phase assumes, median over fresh interpreters; cli: wall
                 time of a trivial `convert` process, the start-up floor every
                 CLI call pays (cli_start_p50_ms), median over calls
                 interleaved through the run
    peak_rss_mb  peak resident memory of the workload process (convert,
                 verify) or of its largest child (cli)

Per-layer metrics come from the traced run, in which convert and verify
trace every second pass and cli runs each verb once untraced, once traced.
`_us` metrics are the median (or p99) duration of one call; `_s` metrics
are seconds per operation, or the set-up total where the layer is only
reached from set-up; `.self_ms` is a layer's self time per operation,
counting only the calls the tracer wraps.  A layer a workload does not
reach reads 0.
"""

import argparse
import compileall
import json
import math
import os
import statistics
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = (
    # name, unit, better, bound
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

# names the project's notes use for the end-to-end metrics on each workload,
# with the factor that converts ours to theirs
ALIASES = {
    "convert": {
        "ops_per_s": ("convert_ops_per_s", 1),
        "op_p50_ms": ("convert_p50_us", 1000),
        "op_p99_ms": ("convert_p99_us", 1000),
    },
    "verify": {"op_p50_ms": ("verify_s", 0.001)},
    "cli": {"op_p50_ms": ("cli_wall_s", 0.001), "setup_s": ("cli_start_p50_ms", 1000)},
}

FAMILIES = ("tree", "dyck", "young", "perm213", "torsion")
HUB_IN = ("core.from_paren", "dyck.dyck_to_tree", "bookshelf.inverse_bookshelf",
          "baseball.perm_to_tree", "torsion.torsion_to_tree")
HUB_OUT = ("core.to_paren", "dyck.tree_to_dyck", "bookshelf.bookshelf",
           "baseball.tree_to_perm", "torsion.tree_to_torsion")
PER_OP = ("verify.roundtrips", "verify.commutativity", "verify.torsion", "verify.tamari",
          "torsion.complete_torsion_hu", "torsion.torsion_generate",
          "tamari.build_lattice", "tamari.is_lattice", "tamari.count_maximal_chains",
          "tamari.verify_order_reversing", "core.enumerate_trees", "core.enumerate_dyck",
          "core.enumerate_young", "core.enumerate_perms213")
CALLS = ("torsion.complete_torsion_hu", "torsion.torsion_generate")
CLI_VERBS = ("enumerate.tree", "enumerate.dyck", "enumerate.young", "enumerate.perm213",
             "enumerate.torsion", "chains", "lattice", "verify.all", "render.lattice",
             "convert.tree")
CLI_STDOUT = ("enumerate", "chains", "lattice", "verify", "render", "convert")
LAYERS = ("core", "dyck", "bookshelf", "baseball", "torsion", "tamari", "serialize",
          "verify", "render", "cli", "bench")

PER_LAYER = (
    [(f"serialize.deserialize.{f}.{q}_us", "us", "lower") for f in FAMILIES for q in ("p50", "p99")]
    + [(f"serialize.serialize.{f}.p50_us", "us", "lower") for f in FAMILIES]
    + [(f"{name}_us", "us", "lower") for name in HUB_IN + HUB_OUT]
    + [(f"{name}_s", "s", "lower") for name in PER_OP]
    + [(f"{name}.calls", "count", "lower") for name in CALLS]
    + [(f"cli.{verb}_s", "s", "lower") for verb in CLI_VERBS]
    + [(f"cli.stdout_bytes.{verb}", "bytes", "lower") for verb in CLI_STDOUT]
    + [("cli.import_ms", "ms", "lower")]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [
        ("convert.ops", "count", "higher"),
        ("convert.failed", "count", "lower"),
        ("convert.rejected_ok", "count", "higher"),
        ("verify.objects", "count", "higher"),
        ("verify.seeds", "count", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("repo.src_lines", "count", "lower"),
        ("host.nproc", "count", "higher"),
        ("host.python_version_x100", "count", "higher"),
    ]
)


def percentile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def end_to_end(workload, res):
    """(value, sample count) of each end-to-end metric."""
    if workload == "convert":
        times = res.doc_best
        timing = {
            "ops_per_s": ((res.attempted - res.failed) / sum(times), len(times)),
            "op_p50_ms": (statistics.median(times) * 1000, len(times)),
            "op_p99_ms": (percentile(times, 0.99) * 1000, len(times)),
        }
    else:  # one operation, the same in every pass
        pass_s = sum(res.best.values())
        timing = {
            "ops_per_s": (1 / pass_s, res.passes),
            "op_p50_ms": (pass_s * 1000, res.passes),
            "op_p99_ms": (pass_s * 1000, res.passes),
        }
    return {
        **timing,
        "setup_s": (statistics.median(res.setup), len(res.setup)),
        "peak_rss_mb": (res.peak_rss_mb, 1),
    }


def trace_overhead(res):
    """Traced over untraced best times of the same operations, as a share."""
    keys = res.best.keys() & res.traced_best.keys()
    return sum(res.traced_best[k] for k in keys) / sum(res.best[k] for k in keys) - 1


def per_layer(workload, res, sizes):
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    ops = max(res.traced_ops, 1)
    summary = res.tracer.summary()

    def calls(name):
        return summary.get(name, {"durations": []})["durations"]

    for f in FAMILIES:
        for kind in ("deserialize", "serialize"):
            d = calls(f"serialize.{kind}.{f}")
            if d:
                out[f"serialize.{kind}.{f}.p50_us"] = statistics.median(d) * 1e6
                if kind == "deserialize":
                    out[f"serialize.{kind}.{f}.p99_us"] = percentile(d, 0.99) * 1e6
    for name in HUB_IN + HUB_OUT:
        if calls(name):
            out[f"{name}_us"] = statistics.median(calls(name)) * 1e6
    for name in PER_OP:
        entry = summary.get(name)
        if entry:
            out[f"{name}_s"] = sum(entry["durations"]) / ops if entry["durations"] else entry["setup_s"]
    for name in CALLS:
        out[f"{name}.calls"] = len(calls(name)) / ops
    for name, entry in summary.items():
        layer = name.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_ms"] += entry["self_s"] / ops * 1000
    if workload == "cli":
        for verb, best in res.best.items():
            out[f"cli.{verb}_s"] = best
        out["cli.convert.tree_s"] = statistics.median(res.setup)
        for verb, nbytes in res.extra["stdout_bytes"].items():
            out[f"cli.stdout_bytes.{verb}"] = nbytes
        out["cli.import_ms"] = res.extra["import_ms"]
    if workload == "convert":
        out["convert.ops"] = res.attempted
        out["convert.failed"] = res.failed
        out["convert.rejected_ok"] = res.counts["rejected_ok"]
    if workload == "verify":
        from catbij.core import catalan

        out["verify.seeds"] = res.counts["seeds"]
        out["verify.objects"] = res.counts["seeds"] + sum(
            catalan(sizes[k]) for k in ("lattice_n", "chains_n", "order_n")
        )
    out["trace.overhead_pct"] = trace_overhead(res) * 100
    out["repo.src_lines"] = src_lines()
    out["host.nproc"] = os.cpu_count()
    out["host.python_version_x100"] = sys.version_info[0] * 100 + sys.version_info[1]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("convert", "verify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "catbij" / "__init__.py").is_file():
        print(f"error: no catbij sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile the package once, so that every timed process
    # imports from the same cache state
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: catbij does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    res = workloads.RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    host = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "repo.src_lines": src_lines(),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {host['python']}  nproc {host['nproc']}  "
          f"repo.src_lines {host['repo.src_lines']}")
    print(f"attempted {res.attempted}  failed {res.failed}  "
          + "  ".join(f"{k} {v}" for k, v in sorted(res.counts.items())))

    if res.wrong:
        for line in res.wrong[:20]:
            print("WRONG " + line)
        print(json.dumps({"correct": False, "attempted": res.attempted,
                          "failed": res.failed, "metrics": {}}))
        return 1

    if args.trace:
        sizes = workloads.SIZES["full"][args.workload]
        values = per_layer(args.workload, res, sizes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
        print(f"traced operations {res.traced_ops}; tracing overhead "
              f"{values['trace.overhead_pct']:.1f}% of the untraced operation time")
    else:
        values = end_to_end(args.workload, res)
        metrics = {}
        for name, unit, _, _ in END_TO_END:
            value, samples = values[name]
            metrics[name] = {"value": value, "unit": unit}
            line = f"  {name:12s} {value:14.6g} {unit:4s} n={samples}"
            if name.startswith("op"):
                line += f" best of {res.passes} passes"
            alias = ALIASES[args.workload].get(name)
            if alias:
                line += f"   {alias[0]} = {value * alias[1]:.6g}"
            print(line)
        if args.workload == "verify":
            proofs = Counter()
            for name, best in res.best.items():
                proofs[name.split(".")[0]] += best
            for name, best in proofs.items():
                print(f"  proof {name:8s} {best:12.6g} s    best of {res.passes} passes")

    workloads.OUT.mkdir(exist_ok=True)
    stem = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # one spans file per workload, replaced by each traced run
        res.tracer.dump(workloads.OUT / f"{args.workload}.spans")
    detail = {"args": vars(args), "host": host, "attempted": res.attempted,
              "failed": res.failed, "counts": dict(res.counts), "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": True, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
