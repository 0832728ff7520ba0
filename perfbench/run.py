"""clonebench benchmark: run one seeded workload through `clonebench.cli.main`
in-process, check every job's output, and print the metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 60 --trace 0

Workloads: sets, nclone, scan, verify (see perfbench/README.md). The job
list of a workload is fixed by the seed and run one job at a time, in a
closed loop: each workload makes a fixed number of passes over its list
(PASSES), so that the same estimator is used on every version of the
program; --seconds is a ceiling, after which no further pass starts. Each
job's time is its fastest repeat; a scan's cells are timed as jobs.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes over the same list and prints the per-layer metrics, the
tracing overhead and the output checks; the traced outputs must equal the
untraced ones exactly. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Traces and a detailed
result file go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import jobs as jobs_mod
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-ups per run, the first in this process and the rest in fresh
# interpreters; setup_s is their median
SETUP_REPEATS = 3
# passes over the job list; a pass of scan, verify, sets and nclone takes
# about 28 s, 0.75 s, 6 s and 15 s on a 2-core Xeon, so a run measures
# 30 to 56 s
PASSES = {"scan": 2, "verify": 50, "sets": 6, "nclone": 2}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# job_s_p90 is printed but is not an end-to-end metric: sets and nclone
# have only 6 and 7 jobs, too few for a steady 90th percentile
UNITS = {"setup_s": "s", "wall_s": "s", "job_s_p50": "s", "job_s_p90": "s", "peak_rss_mb": "MB", **spans.UNITS}


def cap_threads() -> int:
    """Cap BLAS/OpenMP thread pools at the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class CellClock:
    """Times each scan cell through the public `progress` callback of
    `scan_equator`, by handing the CLI's callback a timed one in front."""

    def __init__(self, cli):
        self.cli = cli
        self.cells: list[float] = []

    def __enter__(self):
        self.original = original = self.cli.scan_equator

        def timed(resolution, cfg=None, progress=None):
            last = time.perf_counter()

            def tick(i, j, value):
                nonlocal last
                now = time.perf_counter()
                self.cells.append(now - last)
                last = now
                if progress is not None:
                    progress(i, j, value)

            return original(resolution, cfg, progress=tick)

        self.cli.scan_equator = timed
        return self

    def __exit__(self, *exc):
        self.cli.scan_equator = self.original


def set_up(workload: str, seed: int, tag: str):
    """Import the package, build the job list and make the warm-up call:
    (seconds taken, cli module, jobs, runner)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import clonebench.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported clonebench from {cli.__file__}, not {SRC}")
    jobs = jobs_mod.build_jobs(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(cli, OUT_DIR / f"job-{tag}.out")
    runner.run(jobs_mod.WARMUPS[workload])
    return time.perf_counter() - start, cli, jobs, runner


def probe_set_up(workload: str, seed: int) -> float:
    """Seconds one set-up takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Runner:
    """Runs jobs through the CLI entry point with output captured."""

    def __init__(self, cli, out_path: Path):
        self.cli = cli
        self.out = str(out_path)

    def run(self, argv) -> tuple[float, int | None, str, str | None]:
        """(seconds, exit code or None if it raised, stdout, scan summary)."""
        summary_path = self.out + ".summary.json"
        for path in (self.out, summary_path, self.out + ".manifest.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main([*argv, "--out", self.out])
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        summary = None
        if os.path.exists(summary_path):
            with open(summary_path) as fh:
                summary = fh.read()
        return seconds, rc, stdout.getvalue(), summary


def run_pass(runner: Runner, jobs, tracer=None, job_base: int = 0):
    """One pass over the job list: (times, results). `times` maps ("job", i)
    to the seconds job i took; a scan is split into ("cell", i, c), the
    seconds of its cell c, and ("rest", i), the time outside its cells."""
    times: dict[tuple, float] = {}
    results = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_base + idx
        if job.kind == "scan":
            with CellClock(runner.cli) as clock:
                seconds, rc, stdout, summary = runner.run(job.argv)
            times.update((("cell", idx, c), t) for c, t in enumerate(clock.cells))
            times[("rest", idx)] = seconds - sum(clock.cells)
        else:
            seconds, rc, stdout, summary = runner.run(job.argv)
            times[("job", idx)] = seconds
        results.append((rc, stdout, summary))
    return times, results


class Best:
    """Fastest time seen for each job (and scan cell) over the passes.

    Every pass repeats the same inputs, and the program is deterministic, so
    a job does the same work in each pass; the fastest repeat is the one
    least slowed by other load on the machine. A scan's cells are its jobs,
    so its time is the sum of its cells' fastest times and of its fastest
    time outside them."""

    def __init__(self):
        self.times: dict[tuple, float] = {}
        self.passes = 0

    def add(self, times: dict[tuple, float]) -> None:
        self.passes += 1
        for key, t in times.items():
            self.times[key] = min(t, self.times.get(key, t))

    def wall(self) -> float:
        """Time to solution of the whole job list."""
        return sum(self.times.values())

    def samples(self) -> list[float]:
        """Per-job times: one per cell for a scan, one per call otherwise."""
        return [t for key, t in self.times.items() if key[0] != "rest"]


class Checker:
    """Accumulates the checked outcomes of every pass."""

    def __init__(self, jobs, check):
        self.jobs = jobs
        self.check = check
        self.reference = None  # outputs of the first pass
        self.attempted = self.failed = 0
        self.correct = True
        self.gap = 0.0
        self.symmetry_gap = 0.0
        self.problems: dict[str, None] = {}

    def add(self, results) -> None:
        outputs = [stdout for _, stdout, _ in results]
        if self.reference is None:
            self.reference = outputs
        for job, (rc, stdout, summary), ref in zip(self.jobs, results, self.reference):
            if stdout != ref:
                self.correct = False
                self.problems[f"{job.label}: output differs between passes"] = None
            out = self.check(job, rc, stdout, summary)
            self.attempted += out.attempted
            self.failed += out.failed
            self.correct &= out.consistent
            if out.gap is not None:
                self.gap = max(self.gap, out.gap)
            self.symmetry_gap = max(self.symmetry_gap, out.symmetry_gap)
            for problem in out.problems:
                self.problems[f"{job.label}: {problem}"] = None

    def metrics(self) -> dict[str, float]:
        return {
            "check.fail_share": self.failed / self.attempted,
            "check.target_gap_max": self.gap,
            "check.symmetry_gap_max": self.symmetry_gap,
        }


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clonebench" / "cli.py").is_file():
        print(f"error: no clonebench sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    first, cli, jobs, runner = set_up(args.workload, args.seed, tag)
    setups = [first] + [probe_set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(setups)
    from checks import check

    checker = Checker(jobs, check)
    begin = time.perf_counter()
    best, traced = Best(), Best()
    tracer = spans.Tracer() if args.trace else None
    modules = {name: sys.modules[f"clonebench.{name}"] for name in spans.LAYERS}
    while best.passes < PASSES[args.workload] and (
        best.passes == 0 or time.perf_counter() - begin < args.seconds
    ):
        times, results = run_pass(runner, jobs)
        best.add(times)
        checker.add(results)
        if tracer is not None:
            tracer.install(modules)
            try:
                times, results = run_pass(runner, jobs, tracer, traced.passes * len(jobs))
            finally:
                tracer.uninstall()
            traced.add(times)
            checker.add(results)

    samples = best.samples()
    if args.trace:
        printed = spans.layer_metrics(tracer, traced.passes)
        printed["trace.overhead_share"] = traced.wall() / best.wall() - 1.0
        printed.update(checker.metrics())
        metrics = {k: v for k, v in printed.items() if k not in spans.UNLISTED}
        tracer.write_csv(str(OUT_DIR / f"spans-{tag}.csv"))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": best.wall(),
            "job_s_p50": percentile(samples, 50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        printed = {**metrics, "job_s_p90": percentile(samples, 90), **checker.metrics()}

    for problem in checker.problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {best.passes} passes of {len(jobs)} jobs, "
          f"{len(samples)} job samples")
    for name, value in printed.items():
        print(f"{name:32s} {value:16.9g} {UNITS[name]}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": best.passes,
        "setups_s": setups,
        "jobs": len(jobs),
        "samples": len(samples),
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": printed,
        "problems": list(checker.problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(nproc),
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=2)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
