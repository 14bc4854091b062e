"""The three workloads: convert, verify and cli.

Each is a closed loop with one client.  Operations are timed from outside
catbij, around calls into its public functions, and every output is checked
after its timed section ends.  catbij is imported by `setup`, not by this
module, so that a fresh process can time the import.

    convert  one document at a time, source -> tree -> target, over all 25
             family pairs, from a seeded pool of documents read afresh in
             every pass (a cache keyed by a document's text would see each
             one once per pass, a few times a run).  Loads serialize and the per-object bijections;
             bypasses the enumerators, the closure engine, tamari and the CLI.
    verify   the exhaustive proofs at acceptance scale, in one process after
             a warm-up.  Loads the torsion bitmask engine, Tamari and bulk
             bijection sweeps over cached trees; bypasses JSON and the CLI.
    cli      every verb at its documented bound, one fresh process each, with
             stdout drained.  Loads process start, import, cold caches and
             serialize's writing side.
"""

import hashlib
import importlib
import json
import math
import os
import resource
import subprocess
import sys
from array import array
from collections import Counter
from itertools import combinations
from pathlib import Path
from time import perf_counter

import inputs
from spans import SETUP_OP, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SIZES = {
    "full": {
        "convert": {"max_n": inputs.MAX_N, "torsion_max_n": inputs.TORSION_MAX_N,
                    "pool": 10000},
        "verify": {"suite_n": 7, "sweep_n": 6, "lattice_n": 7, "chains_n": 9, "order_n": 8},
        "cli": {"n": 12, "torsion_n": 8, "chains_n": 9, "lattice_n": 8, "verify_n": 7},
    },
    "tiny": {
        "convert": {"max_n": 4, "torsion_max_n": 3, "pool": 300},
        "verify": {"suite_n": 3, "sweep_n": 3, "lattice_n": 3, "chains_n": 4, "order_n": 3},
        "cli": {"n": 3, "torsion_n": 3, "chains_n": 4, "lattice_n": 3, "verify_n": 2},
    },
}

CONVERT_BATCH = 500
SWEEP_CHUNK = 512
# Maximal chains of the Tamari lattice: 1, 1, 2, 9 for n <= 4 are the
# published values; the n = 9 count is a regression pin taken from the
# initial implementation, not an independent oracle.
CHAIN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 9}
CHAIN_PIN = {9: 994441978397}


def module(name):
    # catbij/__init__ rebinds some submodule names (catbij.bookshelf is the
    # function), so submodules are always fetched from sys.modules.
    return importlib.import_module("catbij." + name)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(workload, sizes, tracer=None):
    """Import catbij and warm the caches the workload's timed phase assumes."""
    module("serialize" if workload == "convert" else "verify")
    if tracer is not None:
        tracer.current_op = SETUP_OP
    core, torsion = module("core"), module("torsion")

    def call(span, fn, *args):
        return (fn if tracer is None else tracer.wrap(span, fn))(*args)

    if workload == "convert":
        for n in range(1, sizes["torsion_max_n"] + 1):
            call("torsion.torsion_generate", torsion.torsion_generate, frozenset(), n)
    elif workload == "verify":
        top = max(sizes.values())
        for n in range(top + 1):
            call("core.enumerate_trees", core.enumerate_trees, n)
        for n in range(1, max(sizes["suite_n"], sizes["sweep_n"]) + 1):
            call("torsion.torsion_generate", torsion.torsion_generate, frozenset(), n)


def setup_times(res, workload, scale, count):
    """Set-up seconds measured inside `count` fresh interpreters, one at a
    time, into res.setup."""
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, scale],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        res.setup.append(float(proc.stdout))


class Outcome:
    """What one run measured.  `wrong` lists outputs that were checked and
    found wrong; any entry fails the run.

    Every operation of a workload is repeated pass after pass on the same
    inputs; `best` keeps the least seconds each operation (or batch of
    operations) took in an untraced pass, `traced_best` the same for traced
    passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.passes = 0
        self.best = {}
        self.traced_best = {}
        self.doc_best = None  # convert: best seconds per pool document
        self.traced_ops = 0
        self.setup = []
        self.counts = Counter()
        self.extra = {}
        self.tracer = None
        self.peak_rss_mb = 0.0

    def note(self, key, seconds, traced=False):
        table = self.traced_best if traced else self.best
        if seconds < table.get(key, math.inf):
            table[key] = seconds

    def finish(self, tracer, who=resource.RUSAGE_SELF):
        """Close the run: record peak memory before the benchmark's own
        statistics allocate anything."""
        self.tracer = tracer
        self.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
        return self


# -- convert ----------------------------------------------------------------

def _hub():
    s, d, b = module("serialize"), module("dyck"), module("bookshelf")
    bb, tor = module("baseball"), module("torsion")

    # the same public calls as cli._to_tree / cli._from_tree, looked up at
    # call time so that a traced run sees its wrappers
    def young_in(text):
        y = s.deserialize_young(text)
        return b.inverse_bookshelf(y, y.n)

    def torsion_in(text):
        tp = s.deserialize_torsion(text)
        return tor.torsion_to_tree(tp.torsion, tp.n)

    into = {
        "tree": lambda text: s.deserialize_tree(text),
        "dyck": lambda text: d.dyck_to_tree(s.deserialize_dyck(text)),
        "young": young_in,
        "perm213": lambda text: bb.perm_to_tree(s.deserialize_perm(text)),
        "torsion": torsion_in,
    }
    out = {
        "tree": lambda t: s.serialize_tree(t),
        "dyck": lambda t: s.serialize_dyck(d.tree_to_dyck(t)),
        "young": lambda t: s.serialize_young(b.bookshelf(t)),
        "perm213": lambda t: s.serialize_perm(bb.tree_to_perm(t)),
        "torsion": lambda t: s.serialize_torsion(tor.tree_to_torsion(t)),
    }
    return into, out


def _convert_batch(batch, into, out, tracer=None):
    results = []
    for doc in batch:
        if tracer is not None:
            tracer.current_op += 1
            span = tracer.begin("bench.convert")
        t0 = perf_counter()
        try:
            text, exc = out[doc.target](into[doc.source](doc.text)), None
        # Any exception is an outcome to classify after timing: a
        # CatbijError is the right answer for an invalid document, anything
        # else (RecursionError, AssertionError, ...) is a failed operation.
        # Only the class is kept: the exception's traceback would tie this
        # frame into a reference cycle and leave the batch to the garbage
        # collector.
        except Exception as e:  # noqa: BLE001
            text, exc = None, type(e)
        results.append((perf_counter() - t0, text, exc))
        if tracer is not None:
            tracer.finish(span)
    return results


def run_convert(seed, seconds, trace, scale="full", setup_count=10):
    """Convert the seed's pool of documents, pass after pass, until the time
    is up.  Each pass re-reads the same texts into fresh objects; a document's
    time is its best over the untraced passes, which keeps brief slow spells
    of the machine out of the figures.  A traced run traces every second
    pass."""
    sizes = SIZES[scale]["convert"]
    pool = sizes["pool"]
    res = Outcome()
    if setup_count:
        setup_times(res, "convert", scale, setup_count)
    tracer = Tracer() if trace else None
    setup("convert", sizes, tracer)
    CatbijError = module("errors").CatbijError
    into, out = _hub()
    res.doc_best = array("d", [math.inf]) * pool
    outcome = bytearray(pool)  # per document, from the first pass: 1 if it failed
    passes = 0
    start = perf_counter()
    while passes < (2 if trace else 1) or perf_counter() - start < seconds:
        traced = trace and passes % 2 == 1
        docs = inputs.stream(seed, sizes["max_n"], sizes["torsion_max_n"])
        for b, first in enumerate(range(0, pool, CONVERT_BATCH)):
            batch = [next(docs) for _ in range(min(CONVERT_BATCH, pool - first))]
            if traced:
                tracer.current_op = res.traced_ops
                with patched(tracer):
                    results = _convert_batch(batch, into, out, tracer)
                res.traced_ops += len(batch)
            else:
                results = _convert_batch(batch, into, out)
            # per batch, for the tracing overhead: traced against untraced
            res.note(b, sum(r[0] for r in results), traced)
            for i, (doc, (dt, text, exc)) in enumerate(zip(batch, results), first):
                if not traced and dt < res.doc_best[i]:
                    res.doc_best[i] = dt
                if doc.kind is not None:
                    failed = exc is None or not issubclass(exc, CatbijError)
                    why = "failed." + doc.kind if failed else "rejected_ok"
                elif exc is not None:
                    failed, why = True, "failed.valid." + exc.__name__
                else:
                    failed, why = False, None
                    if json.loads(text) != doc.expected:
                        res.wrong.append(f"{doc.source}->{doc.target} {doc.text} gave {text}")
                if passes == 0:
                    outcome[i] = failed
                    res.attempted += 1
                    res.failed += failed
                    if why:
                        res.counts[why] += 1
                elif outcome[i] != failed:
                    res.wrong.append(f"{doc.source}->{doc.target} {doc.text}: outcome "
                                     f"changed between passes")
        passes += 1
    res.passes = passes
    return res.finish(tracer)


# -- verify -----------------------------------------------------------------

def sweep_seeds(n):
    """Every subset of the ambient-n ball triangle, as tuples of Intervals."""
    Interval = module("core").Interval
    balls = [Interval(a, b) for a in range(1, n) for b in range(a, n)]
    return [seed for r in range(len(balls) + 1) for seed in combinations(balls, r)]


def verify_pass(sizes, seeds, tracer=None):
    """One pass over the fixed proof set; returns (seconds per timed piece,
    results).  The sweep is timed in chunks of SWEEP_CHUNK seeds, so that
    each chunk's best pass can fall in a quiet moment of the machine."""
    verify, tamari, torsion = module("verify"), module("tamari"), module("torsion")
    n = sizes["sweep_n"]
    times, results = {}, {}

    def sweep():
        bad = 0
        for k in range(0, len(seeds), SWEEP_CHUNK):
            t0 = perf_counter()
            for seed in seeds[k:k + SWEEP_CHUNK]:
                if torsion.complete_torsion_hu(seed, n) != torsion.torsion_generate(seed, n).torsion:
                    bad += 1
            times[f"sweep.{k // SWEEP_CHUNK}"] = perf_counter() - t0
        return bad

    proofs = (
        ("suite", lambda: verify.run_suite("all", sizes["suite_n"])),
        ("sweep", sweep),
        ("lattice", lambda: tamari.is_lattice(tamari.build_lattice(sizes["lattice_n"]))),
        ("chains", lambda: tamari.count_maximal_chains(sizes["chains_n"])),
        ("order", lambda: tamari.verify_order_reversing(sizes["order_n"])),
    )
    for name, proof in proofs:
        span = tracer.begin("bench.verify." + name) if tracer is not None else None
        t0 = perf_counter()
        results[name] = proof()
        if name != "sweep":
            times[name] = perf_counter() - t0
        if tracer is not None:
            tracer.finish(span)
    return times, results


def check_verify(sizes, results):
    """The number of checks in one pass, and a line for each that failed."""
    failures = [
        "suite: " + c["name"] for c in results["suite"]["checks"] if not c["passed"]
    ]
    if not results["suite"]["passed"]:
        failures.append("suite: report not passed")
    if results["sweep"] != 0:
        failures.append(f"sweep: {results['sweep']} closure mismatches")
    if results["lattice"] is not True:
        failures.append("lattice: is_lattice is false")
    n = sizes["chains_n"]
    want = CHAIN_PIN.get(n, CHAIN_COUNTS.get(n))
    if results["chains"] != want:
        failures.append(f"chains: count_maximal_chains({n}) = {results['chains']}, want {want}")
    if results["order"] is not True:
        failures.append("order: verify_order_reversing is false")
    return len(results["suite"]["checks"]) + 4, failures


def run_verify(seed, seconds, trace, scale="full", setup_count=10):
    """Pass over the fixed proof set until the time is up; a proof's time is
    its best over the untraced passes.  A traced run traces every second
    pass.  The seed only names the run."""
    sizes = SIZES[scale]["verify"]
    res = Outcome()
    if setup_count:
        setup_times(res, "verify", scale, setup_count)
    tracer = Tracer() if trace else None
    setup("verify", sizes, tracer)
    tamari = module("tamari")
    for n, want in CHAIN_COUNTS.items():
        if tamari.count_maximal_chains(n) != want:
            res.wrong.append(f"count_maximal_chains({n}) != {want}")
    seeds = sweep_seeds(sizes["sweep_n"])
    start = perf_counter()
    passes = 0
    while passes < (2 if trace else 1) or perf_counter() - start < seconds:
        traced = trace and passes % 2 == 1
        if traced:
            tracer.current_op = res.traced_ops
            with patched(tracer):
                times, results = verify_pass(sizes, seeds, tracer)
            res.traced_ops += 1
        else:
            times, results = verify_pass(sizes, seeds)
        for name, t in times.items():
            res.note(name, t, traced)
        checks, failures = check_verify(sizes, results)
        if passes == 0:  # every pass runs the same checks
            res.attempted, res.failed = checks, len(failures)
        res.wrong.extend(failures)
        passes += 1
    res.passes = passes
    res.counts["seeds"] = len(seeds)
    res.counts["checks"] = checks
    return res.finish(tracer)


# -- cli --------------------------------------------------------------------

def cli_verbs(scale="full"):
    """(name, argv, expected line count or None) for each verb at its bound."""
    s = SIZES[scale]["cli"]
    catalan = module("core").catalan
    verbs = [
        (f"enumerate.{f}", ["enumerate", f, "--n", str(s["n"])], catalan(s["n"]))
        for f in ("tree", "dyck", "young", "perm213")
    ]
    verbs += [
        ("enumerate.torsion", ["enumerate", "torsion", "--n", str(s["torsion_n"])],
         catalan(s["torsion_n"])),
        ("chains", ["chains", "--n", str(s["chains_n"])], 1),
        ("lattice", ["lattice", "--n", str(s["lattice_n"])], 1),
        ("verify.all", ["verify", "all", "--n-max", str(s["verify_n"])], None),
        ("render.lattice", ["render", "lattice", "--n", str(s["lattice_n"]), "--backend", "dot"],
         None),
    ]
    return verbs


# the start-up floor: a trivial conversion, interleaved through the run
PROBE = ("convert.tree", ["convert", "tree", "dyck", "--input", '"((••)•)"'], 1)
PROBES_PER_VERB = 2

# sha256 of each invocation's stdout, pinned from the initial implementation;
# CLI stdout is meant to stay byte-identical
DIGESTS = {
    'convert tree dyck --input "((••)•)"':
        "87b9b250a58f5dd39dee0ce56357b5fbe252cc9d6bbc5fffd5472dc008d5b1ab",
    "enumerate tree --n 12": "64e3d89a9f790aa80272af1e870c3463f3e1f8d21cc3cc3b475d601394f141a2",
    "enumerate dyck --n 12": "51e8fd5d6ddb9c040bcec3ac274eafc9a9126c845199001c856cc6a76d4eac45",
    "enumerate young --n 12": "b76894c96bc833fb992f5930f332938bcc4041951f413708b69d60464532b954",
    "enumerate perm213 --n 12": "81aef49f277ca0e17ca3a2f4e2a6d1a46113b250a6c5c1e7a80b8460d74958a0",
    "enumerate torsion --n 8": "954decf5b7ba6d1617321bb387715241ce7d518263e15bed63a94a56c8d67f67",
    "chains --n 9": "d8b71a8336fc6621cc61edb2f55375eaa3d6e3b635fcd9fe83ff3678e91953fa",
    "lattice --n 8": "84c6345d84adfaa286e4abaff069f86e59c4a2f6a2aba946b7312836f7310217",
    "verify all --n-max 7": "b8a464137896eb12836c4799be63b01c9b21d5501e59f7249c155f13ce9af571",
    "render lattice --n 8 --backend dot":
        "e143bf2918c3286b6a2db4178feecc5bc2f4fe6829f889d0ef378f26447985df",
    # the tiny sizes the self-check runs
    "enumerate tree --n 3": "4924f94b8ccf4a2bef82f5ee62eb1b4720972e1ce5fac82a6c9bd4417b68fe57",
    "enumerate dyck --n 3": "839a9dfbbb7075a3fc142c084eb16d3fe3c0d5d2e0162a7e1fdbbb7a209c2574",
    "enumerate young --n 3": "f87db53810c502a93af330a42f2c5b00c7d84f1a14dcbac5afb12be49145e231",
    "enumerate perm213 --n 3": "1bcd83cf12099b60f898925d5243097b00dc29c7963b91d587a2fa6884c1db64",
    "enumerate torsion --n 3": "fc4e27ff45edf5fedb0536ccba50a5512637640cc4e1893c099cc771e83bd6a9",
    "chains --n 4": "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
    "lattice --n 3": "84d087777329faedd9d0d15f1f71b5afb89316f1de434576291426de2dc12101",
    "verify all --n-max 2": "d58a7b0757dd148920e48754891c6e16402432cc9317b78c52c125da41597620",
    "render lattice --n 3 --backend dot":
        "f127df2c8c28ec502ca4edb277141c7ef50b74021da4202cc9a036bd71a2facb",
}


def run_process(argv, trace_file=None):
    """Run one CLI process, draining stdout.  Returns wall seconds, exit
    code, stdout bytes, stdout lines and stdout sha256."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "catbij.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_file), *argv]
    digest = hashlib.sha256()
    nbytes = nlines = 0
    t0 = perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    ) as proc:
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            nbytes += len(chunk)
            nlines += chunk.count(b"\n")
        code = proc.wait()
    return perf_counter() - t0, code, nbytes, nlines, digest.hexdigest()


def _check_process(res, argv, lines, result, count):
    """Check one process; `count` it in attempted and failed (the first pass
    does, since every pass runs the same processes)."""
    _, code, _, nlines, digest = result
    res.attempted += count
    key = " ".join(argv)
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    if lines is not None and nlines != lines:
        problems.append(f"{nlines} lines, want {lines}")
    if DIGESTS.get(key) != digest:
        problems.append(f"stdout sha256 {digest}, pinned {DIGESTS.get(key)}")
    if problems:
        res.failed += count
        res.wrong.append(f"catbij {key}: " + "; ".join(problems))


def import_ms(count=5):
    """Median of (python -c 'import catbij.cli') minus (python -c 'pass'), ms."""
    diffs = []
    for _ in range(count):
        walls = []
        for code in ("import catbij.cli", "pass"):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
            walls.append(perf_counter() - t0)
        diffs.append((walls[0] - walls[1]) * 1000)
    return sorted(diffs)[len(diffs) // 2]


def run_cli(seed, seconds, trace, scale="full"):
    """Pass over the verb list until the time is up; a verb's time is its best
    wall time over the passes.  The seed only names the run."""
    res = Outcome()
    verbs = cli_verbs(scale)
    tracer = Tracer() if trace else None
    if trace:
        OUT.mkdir(exist_ok=True)
        child_trace = OUT / f"cli-child-{os.getpid()}.spans"
        res.extra["import_ms"] = import_ms()
    stdout_bytes = Counter()
    start = perf_counter()
    passes = 0

    def probe():
        result = run_process(PROBE[1])
        _check_process(res, PROBE[1], PROBE[2], result, passes == 0)
        res.setup.append(result[0])
        stdout_bytes[PROBE[0].split(".")[0]] += result[2]

    while perf_counter() - start < seconds or passes == 0:
        for name, argv, lines in verbs:
            for _ in range(PROBES_PER_VERB):
                probe()
            result = run_process(argv)
            _check_process(res, argv, lines, result, passes == 0)
            res.note(name, result[0])
            stdout_bytes[name.split(".")[0]] += result[2]
            if trace:
                tracer.current_op = passes
                span = tracer.begin("cli." + name)
                traced = run_process(argv, child_trace)
                tracer.finish(span)
                _check_process(res, argv, lines, traced, passes == 0)
                tracer.adopt(Tracer.load(child_trace), span)
                res.note(name, traced[0], True)
        for _ in range(PROBES_PER_VERB):
            probe()
        if trace:
            res.traced_ops += 1
        passes += 1
    if trace:
        child_trace.unlink()
    res.passes = passes
    res.extra["stdout_bytes"] = {k: v / passes for k, v in stdout_bytes.items()}
    # the CLI's memory is that of its largest child
    return res.finish(tracer, resource.RUSAGE_CHILDREN)


RUNNERS = {"convert": run_convert, "verify": run_verify, "cli": run_cli}
