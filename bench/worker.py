"""One workload in one process: set-up timing, timed rounds, or a traced pass.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; prints a
single JSON object on standard output. Modes:

- ``setup``: import the library and generate the inputs, report the time;
- ``measure``: then run whole rounds over the inputs for about ``--seconds``
  and report every operation's wall time, failures and peak memory;
- ``trace``: then run one round untraced and one round with spans, and
  report per-layer metrics, exact work counters and the budget probe.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LAYERS, STATIONARY, Tracer, aggregate  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCES = pathlib.Path(__file__).resolve().parent / "references"
OUT_DIR = ROOT / ".bench_out"
# exactly what the console script `lumpchain = "lumpchain.cli:main"` runs
CLI_SHIM = "import sys; from lumpchain.cli import main; sys.exit(main())"
MAX_ERRORS_KEPT = 5
STARTUP_REPEATS = 5
SETUP_SAMPLES = 8  # fresh set-up processes per measured run
CALIBRATION_WINDOW = 5


def load_library():
    lc = importlib.import_module("lumpchain")
    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(lc.__file__).resolve().parents:
        raise RuntimeError(f"imported {lc.__file__}, not the checkout's {src}")
    return lc


def reference_path(workload: str, seed: int) -> pathlib.Path:
    """Corpus references hold for every seed; generated inputs only for theirs."""
    if workload == "cli_corpus":
        return REFERENCES / "cli_corpus.json"
    return REFERENCES / f"{workload}-seed{seed}.json"


def load_references(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    return json.loads(path.read_text()) if path.exists() else None


class Workload:
    """Inputs of one workload, the operation per input and its checks."""

    def __init__(self, name: str, seed: int, lc, references: dict | None):
        self.name = name
        self.lc = lc
        self.items = wl.make_items(name, seed, ROOT)
        self.references = references
        self._facts: dict[str, dict] = {}

    def facts(self, item) -> dict:
        """Independently recomputed values for an input, computed on first use
        so that they do not count as set-up."""
        if item.key not in self._facts:
            if item.kind == "cli":
                matrix, blocks = wl.model_arrays(ROOT / item.model)
            else:
                matrix, blocks = item.matrix, item.blocks
            self._facts[item.key] = check.reference_free_values(matrix, blocks)
        return self._facts[item.key]

    # -- operations ---------------------------------------------------------

    def run(self, item, in_process_cli: bool = False):
        """Run one operation; return (seconds, summary). Raises on failure."""
        lc = self.lc
        if item.kind == "cli":
            argv = ["analyze", "--format", "json", item.model]
            if in_process_cli:
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = lc.cli.main(argv)
                dt = time.perf_counter() - t0
                out = buf.getvalue()
            else:
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-c", CLI_SHIM, *argv],
                                      cwd=ROOT, capture_output=True,
                                      text=True, timeout=120)
                dt = time.perf_counter() - t0
                code, out = proc.returncode, proc.stdout
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return dt, json.loads(out)
        states, assignment = item.states, item.assignment
        p = item.params
        t0 = time.perf_counter()
        chain = lc.build_chain(item.matrix, states)
        lumping = lc.build_lumping(chain, assignment)
        if item.kind == "analysis":
            config = lc.AnalysisConfig(horizons=p["horizons"], k_range=p["k_range"],
                                       weak_horizon=p["weak_horizon"])
            result = lc.run_analysis(chain, lumping, config)
            dt = time.perf_counter() - t0
            return dt, check.summarize_report(result)
        if item.kind == "blackwell":
            result = lc.blackwell_entropy_estimate(chain, lumping, p["steps"], None, p["seed"])
            dt = time.perf_counter() - t0
            return dt, check.summarize_blackwell(result)
        result = lc.empirical_growth(chain, lumping, p["length"], p["seeds"])
        dt = time.perf_counter() - t0
        return dt, check.summarize_growth(result)

    def problems(self, item, summary) -> list[str]:
        facts = self.facts(item)
        if item.kind == "cli":
            body = check.analysis_body(summary)
            params = {"horizons": (1, 2, 3, 4, 5, 6), "k_range": (1, 2), "weak_horizon": 6}
            bad = check.analysis_invariants(body, params, facts)
        elif item.kind == "analysis":
            bad = check.analysis_invariants(summary, item.params, facts, item.family)
        elif item.kind == "blackwell":
            bad = check.blackwell_invariants(summary, facts)
        else:
            bad = check.growth_invariants(summary, item.params, facts, wl.GROWTH_CHECKPOINTS)
        if self.references is not None:
            ref = self.references.get(item.key)
            if ref is None:
                bad.append("no reference recorded for this input")
            else:
                bad += check.compare(ref, summary)
        return bad

    def attempt(self, item, errors: list, in_process_cli: bool = False,
                tracer: Tracer | None = None):
        """Run and check one operation; return its seconds, or None if it failed.

        With a tracer the operation runs inside an ``op`` span; the check runs
        outside it.
        """
        try:
            if tracer is None:
                dt, summary = self.run(item, in_process_cli)
            else:
                dt, summary = tracer.call("op", self.run, item, in_process_cli)
            bad = self.problems(item, summary)
        except Exception as exc:  # a raised operation is a failed operation
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append({"item": item.key, "problems": bad[:5]})
            return None
        return dt


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


# ---------------------------------------------------------------------------
# modes


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh worker process: import plus input generation."""
    proc = subprocess.run([sys.executable, __file__, "setup", "--workload", workload,
                           "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


_CALIBRATION_MATRIX = np.random.default_rng(0).random((24, 24))
_CALIBRATION_MATRIX /= _CALIBRATION_MATRIX.sum(axis=1, keepdims=True)


def calibration_ms() -> float:
    """Wall time of a fixed kernel that never calls the library.

    Half interpreter loop, half small numpy products, like the library's own
    inner loops. The shared host's speed drifts by up to a third over
    minutes; each in-process operation runs right after this kernel, and
    ``run.py`` scales the operation's time by the kernel's.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    v = np.full(24, 1 / 24)
    for _ in range(1500):
        v = v @ _CALIBRATION_MATRIX
        v /= v.sum()
    return (time.perf_counter() - t0) * 1e3


def measure(work: Workload, seed: int, seconds: float, setup_s: float) -> dict:
    """Timed rounds over the inputs for about ``seconds``.

    Every in-process operation is recorded with the calibration time just
    before it: the median of the last ``CALIBRATION_WINDOW`` kernel runs, one
    run before each operation. A CLI operation runs in a fresh interpreter,
    mostly start-up and imports, whose time does not follow this process's
    kernel from one operation to the next; it is recorded without one (None).
    After the first round, whenever another
    ``1 / SETUP_SAMPLES`` of the time has passed, one fresh process reports
    its set-up time between two operations, untimed, so that the set-up
    samples spread over the run as the operations do.
    """
    errors: list = []
    for item in work.items:
        work.facts(item)
    # warm-up: lazy imports and first-call costs
    calibration_ms()
    work.attempt(min(work.items, key=lambda it: len(it.blocks)), [])
    samples: list[list] = []
    setup_runs = [setup_s]
    recent = collections.deque(maxlen=CALIBRATION_WINDOW)

    def calibrate() -> float:
        # a median over the last few readings, so one preempted reading is ignored
        recent.append(calibration_ms())
        return statistics.median(recent)

    children = work.name == "cli_corpus"
    child_rss = None
    attempted = failed = rounds = 0
    start = time.perf_counter()

    def over() -> bool:
        # Past the deadline and every input has run once. The last round may
        # stop part-way, so the sample count does not jump by a whole round.
        return rounds > 0 and time.perf_counter() - start >= seconds

    while not over():
        for item in wl.round_order(work.items, seed, rounds):
            if over():
                break
            if rounds > 0 and len(setup_runs) <= SETUP_SAMPLES and \
                    time.perf_counter() - start >= seconds * (len(setup_runs) - 1) / SETUP_SAMPLES:
                paused = time.perf_counter()
                setup_runs.append(setup_sample(work.name, seed))
                start += time.perf_counter() - paused
            attempted += 1
            cal = None if children else calibrate()
            dt = work.attempt(item, errors)
            if dt is None:
                failed += 1
            else:
                samples.append([item.key, dt * 1e3, cal])
        rounds += 1
        if children and child_rss is None:
            # the CLI processes of a whole round, before a set-up process counts too
            child_rss = peak_rss_mb(children=True)
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "rounds": rounds, "measured_s": time.perf_counter() - start, "errors": errors,
            "setup_runs": setup_runs,
            "peak_rss_mb": child_rss if children else peak_rss_mb(children=False)}


def budget_probe(lc, seed: int) -> dict:
    """Calls that the library refuses today although the work is small.

    A 5-block lumping is refused at horizon 1 by the block cap, and the
    single-forward-sequence check at k=4 on 40 states by its path budget.
    """
    refusals = {}
    rng = np.random.default_rng([seed, 7])
    cases = (("bounds_5_blocks_h1", 10, 5, lambda c, l: lc.lumped_rate_bounds(c, l, 1)),
             ("sfs_k4_n40", 40, 4, lambda c, l: lc.check_sfs(c, l, 4)))
    for name, n, nb, call in cases:
        matrix, blocks = wl.sparse_chain(rng, n, nb)
        chain = lc.build_chain(matrix)
        lumping = lc.build_lumping(chain, {s: f"B{b}" for s, b in zip(chain.states, blocks)})
        try:
            call(chain, lumping)
            refusals[name] = False
        except lc.errors.LumpchainError:
            refusals[name] = True
    return refusals


def cli_startup_ms() -> float:
    """Fresh interpreter until ``import lumpchain`` returns (median of several)."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lumpchain, os; os._exit(0)"],
                       cwd=ROOT, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def traced(work: Workload, seed: int) -> dict:
    lc = work.lc
    in_process = work.name == "cli_corpus"
    errors: list = []
    items = wl.round_order(work.items, seed, 0)
    for item in items:
        work.facts(item)
    work.attempt(min(items, key=lambda it: len(it.blocks)), [], in_process)

    # Each input runs untraced and then traced, back to back, so that both
    # see the same machine speed and their ratio gives the tracing overhead.
    tracer = Tracer()
    untraced = failed = 0
    for item in items:
        dt = work.attempt(item, errors, in_process)
        failed += dt is None
        untraced += dt or 0.0
        missing = tracer.install()
        try:
            failed += work.attempt(item, errors, in_process, tracer) is None
        finally:
            tracer.uninstall()

    agg = aggregate(tracer.spans)
    n_ops = len(items)
    op_s = agg["op"]["total_s"]
    metrics = {"cli.startup_ms": cli_startup_ms() if in_process else 0.0}
    for name in (*LAYERS, STATIONARY):
        a = agg.get(name, {"calls": 0, "self_s": 0.0, "words": 0})
        metrics[f"{name}.calls"] = a["calls"] / n_ops
        metrics[f"{name}.self_ms"] = a["self_s"] * 1e3 / n_ops
        metrics[f"{name}.words"] = a["words"] / n_ops
    work_totals: dict[str, int] = {}
    for item in items:
        for k, v in wl.work_counters(item, ROOT).items():
            work_totals[k] = work_totals.get(k, 0) + v
    bw = agg.get("entropy.blackwell_entropy_estimate")
    metrics["entropy.blackwell_entropy_estimate.steps_per_s"] = (
        work_totals["work.filter_steps"] / bw["total_s"] if bw and bw["total_s"] > 0 else 0.0)
    metrics.update(work_totals)
    probe = budget_probe(lc, seed)
    metrics["work.budget_refusals"] = sum(probe.values())
    metrics["trace.op_ms"] = op_s * 1e3 / n_ops
    metrics["trace.unattributed_ms"] = agg["op"]["self_s"] * 1e3 / n_ops
    metrics["trace.overhead_frac"] = op_s / untraced - 1.0 if untraced > 0 else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{work.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "words"],
         "spans": [[s.name, s.start, s.end, s.parent, s.words] for s in tracer.spans]},
        separators=(",", ":")))
    return {"metrics": metrics, "attempted": 2 * n_ops, "failed": failed, "errors": errors,
            "missing_layers": missing, "budget_probe": probe,
            "spans_file": str(spans_file.relative_to(ROOT)), "span_count": len(tracer.spans)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    lc = load_library()
    work = Workload(args.workload, args.seed, lc, load_references(args.workload, args.seed))
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "numpy": np.__version__,
           "library": str(pathlib.Path(lc.__file__).resolve().parent.relative_to(ROOT)),
           "references": work.references is not None}
    if args.mode == "measure":
        out.update(measure(work, args.seed, args.seconds, setup_s))
    elif args.mode == "trace":
        out.update(traced(work, args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
