"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                              [--update bench/BASELINE.json]

Each run is a separate ``bench/run.py`` process of the length BENCHMARK.json
sets, started one at a time and waited for.  For every workload and metric
this prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, which is the interquartile distance as a share of
the median.  With ``--update`` the
summary, with every run's value, is stored in the ``baseline`` section of
the given file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, SPEC, WORKLOAD_NAMES


def parse_seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = report = json.loads(lines[-2])
    if not trace:
        # reported in every run but not gated (see README)
        result["reported"] = {
            "op_p50_ms": {"value": report["latency"]["p50_ms"], "unit": "ms"},
            "fail_frac": {"value": report["fail_frac"], "unit": "1"},
        }
    return result


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--update", help="baseline JSON whose 'baseline' section receives the medians")
    args = parser.parse_args(argv)

    report = {"seeds": parse_seeds(args.seeds), "seconds": SPEC["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workload or WORKLOAD_NAMES:
        results = []
        for seed in report["seeds"]:
            r = run_once(workload, seed, args.trace)
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        summary = summarize(results)
        if not args.trace:
            summary.update(summarize([{"metrics": r["reported"]} for r in results]))
        report["workloads"][workload] = {"runs": results, "summary": summary}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:44s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}", flush=True)
    if args.update:
        update_baseline(Path(args.update), report)
    return 0


def update_baseline(path: Path, report: dict) -> None:
    """Store each workload's per-metric summary under
    baseline.<end_to_end|per_layer>.<workload>, with the run settings and
    the machine description of the first run."""
    doc = json.loads(path.read_text())
    section = doc.setdefault("baseline", {}).setdefault("per_layer" if report["trace"] else "end_to_end", {})
    for workload, data in report["workloads"].items():
        first = data["runs"][0]["report"]
        section[workload] = {
            "seeds": report["seeds"],
            "seconds": report["seconds"],
            "attempted": [r["attempted"] for r in data["runs"]],
            "failed": [r["failed"] for r in data["runs"]],
            "summary": data["summary"],
        }
        doc["baseline"]["environment"] = {k: v for k, v in first["environment"].items() if k != "seed"}
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
