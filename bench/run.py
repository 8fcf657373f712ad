"""quasifree benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/`` next to
this directory.  The run is a closed loop with one caller: each operation is
issued after the previous one returned and was checked.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it give a readable
summary and a JSON report with every detail and the machine description; the
report (and, when tracing, the spans) are also written under
``.bench_out/``.  See bench/README.md.
"""

import os

# One BLAS thread: each workload runs single-threaded in its own process.
# This must happen before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Metric names, units, workloads and the run length come from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])

# Set-up samples taken before and again after the timed phase.  A shared
# host can run slowly for tens of seconds at a time; samples from both ends of
# the run, and their median, keep one such spell from setting setup_s.
SETUP_REPEATS = 3
IMPORT_REPEATS = 4
TAIL_BEYOND = 10


# The import time counted in setup_s is that of quasifree with numpy and
# scipy.linalg already loaded: their own import is the same for every commit
# and is the noisiest part of a set-up.  Whatever else quasifree imports is
# still counted.
_TIMED_IMPORT = "import time, numpy, scipy.linalg; t0 = time.perf_counter(); import quasifree; print(time.perf_counter() - t0)"


def import_library() -> float:
    """Import numpy, scipy and quasifree from src/ and return the import
    time of quasifree.  Exits with an error when there are no sources under
    src/."""
    if not (SRC / "quasifree" / "__init__.py").is_file():
        raise SystemExit(f"error: no quasifree sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    t0 = time.perf_counter()
    import quasifree

    elapsed = time.perf_counter() - t0
    if Path(quasifree.__file__).resolve().parent != (SRC / "quasifree").resolve():
        raise SystemExit(f"error: imported quasifree from {quasifree.__file__}, not from {SRC}")
    return elapsed


def fresh_imports() -> list:
    """Import times of IMPORT_REPEATS fresh interpreters, started one at a
    time and waited for."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _TIMED_IMPORT], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
        times.append(float(out.stdout))
    return times


# -- measurement ------------------------------------------------------------


def closed_loop(workload, seconds: float, tracer=None) -> dict:
    """Issue operations 0, 1, 2, ... back to back until ``seconds`` have
    passed, checking each result.  The operation running at the deadline is
    finished and checked, and the timed phase ends with it: throughput is
    the number of operations that passed their check over the length of the
    phase."""
    latencies, problems = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        if tracer is not None:
            tracer.op_id = i
        try:
            result = workload.op(i)
            t1 = time.perf_counter()
            errs = workload.check(i, result)
        except Exception as exc:  # a failing operation is counted, not fatal
            t1 = time.perf_counter()
            errs = [f"{type(exc).__name__}: {exc}"]
        latencies.append(t1 - t0)
        if errs:
            problems.append({"op": i, "problems": errs})
        i += 1
    wall = time.perf_counter() - start
    return {
        "attempted": i,
        "failed": len(problems),
        "latencies": latencies,
        "ops_per_s": (i - len(problems)) / wall,
        "wall_s": wall,
        "problems": problems,
    }


def latency_summary(latencies: list) -> dict:
    """Median and tail latency in ms.  The tail is the highest percentile
    with at least TAIL_BEYOND samples beyond it; with too few samples for
    that, it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"samples": n, "p50_ms": 1e3 * statistics.median(ordered)}
    if n > TAIL_BEYOND:
        out["tail_ms"] = 1e3 * ordered[n - TAIL_BEYOND - 1]
        out["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
        out["tail_beyond"] = TAIL_BEYOND
    else:
        out["tail_ms"] = 1e3 * ordered[-1]
        out["tail_percentile"] = 100.0
        out["tail_beyond"] = 0
        out["tail_note"] = f"fewer than {TAIL_BEYOND + 1} operations: tail is the maximum"
    return out


def set_up(cls, seed: int) -> tuple:
    """Build and warm one workload.  Returns (workload, seconds taken)."""
    t0 = time.perf_counter()
    workload = cls()
    workload.setup(seed, OUT_DIR)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def setup_samples(cls, seed: int) -> tuple:
    """Seconds of SETUP_REPEATS set-ups, each closed again, and of
    IMPORT_REPEATS fresh-interpreter imports."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload, seconds = set_up(cls, seed)
        workload.close()
        times.append(seconds)
    return times, fresh_imports()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment ------------------------------------------------------------


def git_commit() -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- the two kinds of run ---------------------------------------------------


def with_units(values: dict, section: str) -> dict:
    """The metrics of one BENCHMARK.json section, in its order and with its
    units.  A value for a name the section does not list is an error."""
    names = [m["name"] for m in SPEC[section]]
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics not listed in BENCHMARK.json {section}: {sorted(unknown)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


def untraced_run(workload, seconds: float) -> tuple:
    """The timed phase with no tracing.  Returns the run, its latency
    summary and the end-to-end values measured in it."""
    run = closed_loop(workload, seconds)
    lat = latency_summary(run["latencies"])
    values = {"ops_per_s": run["ops_per_s"], "op_tail_ms": lat["tail_ms"]}
    return run, lat, values


def traced_run(workload, seconds: float) -> tuple:
    """Half the time untraced, then the same operation sequence traced for
    the other half.  Per-layer figures are per operation of the traced
    half; the overhead is the relative loss of throughput."""
    from tracing import Tracer

    plain = closed_loop(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        run = closed_loop(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    kernels = tracer.replay_kernels()
    totals = tracer.totals()
    ops = max(1, run["attempted"])

    values = {m["name"]: 0.0 for m in SPEC["per_layer"]}  # a layer not reached reports 0
    for name, (calls, _, self_s) in totals.items():
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.self_ms"] = 1e3 * self_s / ops
    for k, seconds_total in kernels.items():
        values[f"matkit.{k}.calls"] = tracer.kernel_calls[k] / ops
        values[f"matkit.{k}.self_ms"] = 1e3 * seconds_total / ops
    values["fock_oracle.rk4_steps"] = tracer.rk4_steps / ops
    if tracer.rk4_steps:
        evolve = totals.get("fock_oracle.evolve_rho", [0, 0.0, 0.0])[1]
        build = totals.get("fock_oracle.build_generator", [0, 0.0, 0.0])[1]
        values["fock_oracle.apply_us"] = 1e6 * (evolve - build) / (4 * tracer.rk4_steps)
    if plain["ops_per_s"] > 0:
        values["trace.overhead_pct"] = 100.0 * (1.0 - run["ops_per_s"] / plain["ops_per_s"])
    metrics = with_units(values, "per_layer")

    run["attempted"] += plain["attempted"]
    run["failed"] += plain["failed"]
    run["problems"] = plain["problems"] + run["problems"]
    extra = {
        "untraced_ops_per_s": plain["ops_per_s"],
        "traced_ops_per_s": run["ops_per_s"],
        "traced_ops": ops,
        "spans": len(tracer.spans),
        "matkit_replay": "calls x mean time of the original kernel over the recorded argument sets",
        "apply_us_derivation": "(evolve_rho time - build_generator time) / (4 x rk4 steps)",
    }
    return run, extra, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_times = [import_library()]
    OUT_DIR.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setup_times = []
    if not args.trace:
        setup_times, more = setup_samples(cls, args.seed)
        import_times += more
    workload, seconds = set_up(cls, args.seed)
    setup_times.append(seconds)
    try:
        if args.trace:
            run, extra, metrics, tracer = traced_run(workload, args.seconds)
        else:
            run, extra, values = untraced_run(workload, args.seconds)
            values["peak_rss_mb"] = peak_rss_mb()
        details = workload.details()
    finally:
        workload.close()
    if not args.trace:
        more_setup, more_imports = setup_samples(cls, args.seed)
        setup_times += more_setup
        import_times += more_imports
        values["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
        metrics = with_units(values, "end_to_end")

    attempted, failed = run["attempted"], run["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller",
        "environment": environment(args.seed),
        "import_s": import_times,
        "setup_repeats_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / max(1, attempted),
        "latency": extra,
        "workload_details": details,
        "problems": run["problems"][:20],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        with gzip.open(OUT_DIR / f"{stem}.spans.jsonl.gz", "wt") as handle:
            tracer.dump(handle)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  fail_frac {report['fail_frac']:.3g}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for key, value in {**extra, **details}.items():
        print(f"  {key:44s} {value}")
    for p in run["problems"][:5]:
        print(f"  FAILED op {p['op']}: {'; '.join(p['problems'])}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
