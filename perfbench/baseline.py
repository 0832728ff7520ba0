"""Record the benchmark baseline.

Runs each workload on seeds 1 to `--runs` (workloads interleaved, so
that a slow spell of the machine spreads over all of them), then one traced
run per workload, and writes per metric the ten values, their median,
quartiles and spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles). With
`--reference` it also times, once, the three configurations quoted in
ROADMAP.md, for comparison with the figures there.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".bench_out" / f"result-{workload}-{seed}-trace{trace}.json") as fh:
        detail = json.load(fh)
    detail["run_s"] = elapsed
    detail["result"] = result
    return detail


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def reference_timings() -> dict:
    """The ROADMAP.md baseline configurations, timed once each in-process."""
    sys.path.insert(0, str(ROOT / "src"))
    from clonebench.optimize import OptimizationConfig, optimize, optimize_n, scan_equator
    from clonebench.states import equatorial_trio

    runs = {
        "optimize_trio_restarts200_symmetric_s": lambda: optimize(
            equatorial_trio(), OptimizationConfig(restarts=200, symmetric=True)
        ),
        "optimize_n_n6_restarts160_s": lambda: optimize_n(OptimizationConfig(copies=6, restarts=160)),
        "scan_equator_res12_s": lambda: scan_equator(12),
    }
    out = {}
    for name, fn in runs.items():
        start = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - start
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    parser.add_argument("--reference", action="store_true", help="also time the ROADMAP configurations")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            detail = bench_run(w, i + 1, seconds, 0)
            runs[w].append(detail)
            metrics = detail["result"]["metrics"]
            print(f"{w:7s} seed {detail['seed']:3d} run {detail['run_s']:6.1f}s  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
                  + f"  failed={detail['failed']}/{detail['attempted']}", flush=True)

    summary = {"environment": None, "run_seconds": seconds, "workloads": {}}
    for w in workloads:
        details = runs[w]
        summary["environment"] = details[0]["environment"]
        names = list(details[0]["result"]["metrics"])
        printed = [k for k in details[0]["metrics"] if k not in names]
        entry = {
            "seeds": [d["seed"] for d in details],
            "passes": [d["passes"] for d in details],
            "run_s": [round(d["run_s"], 2) for d in details],
            "correct": all(d["correct"] for d in details),
            "failed": [d["failed"] for d in details],
            "attempted": [d["attempted"] for d in details],
            "end_to_end": {n: summarize([d["result"]["metrics"][n]["value"] for d in details]) for n in names},
            "printed": {n: summarize([d["metrics"][n] for d in details]) for n in printed},
            "problems": sorted({p for d in details for p in d["problems"]}),
        }
        for n, s in entry["end_to_end"].items():
            s["bound"] = bounds[n]
            flag = "" if n == "setup_s" or s["spread"] < bounds[n] / 3 else "  <-- above a third of the bound"
            print(f"{w:7s} {n:12s} median {s['median']:.5g}  spread {s['spread']:.4f}  bound {bounds[n]}{flag}")
        traced = bench_run(w, 1, seconds, 1)
        entry["traced"] = {"seed": traced["seed"], "run_s": round(traced["run_s"], 2), "metrics": traced["metrics"]}
        summary["workloads"][w] = entry
    summary["environment"].update(cpu_model=cpu_model(), cpu_count=os.cpu_count())
    if args.reference:
        summary["reference"] = reference_timings()
        print(json.dumps(summary["reference"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
