"""Tests for the benchmark itself: seeded job lists, tracing that changes
no result and leaves no wrapper behind, and the printed metric names.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import jobs
import run
import spans

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _bloch(theta, phi):
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _gram(points):
    vecs = [_bloch(*p) for p in points]
    return [sum(a * b for a, b in zip(u, v)) for u in vecs for v in vecs]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_list_is_deterministic_per_seed(workload):
    assert jobs.build_jobs(workload, 7) == jobs.build_jobs(workload, 7)
    assert jobs.build_jobs(workload, 7) != jobs.build_jobs(workload, 8)


def test_sets_are_rotated_copies_of_the_canonical_sets():
    canon = {name: [jobs._to_angles(v) for v in vecs] for name, vecs in jobs._canonical_sets().items()}
    for job in jobs.build_jobs("sets", 11):
        name = job.label.split(" ", 1)[1]
        if name.startswith("tetrahedron-minus-"):
            drop = int(name.rsplit("-", 1)[1])
            reference = [p for i, p in enumerate(canon["tetrahedron"]) if i != drop]
        else:
            reference = canon[name]
        assert _gram(job.points) == pytest.approx(_gram(reference), abs=1e-12)
        assert json.loads(job.argv[2])["points"][0]["theta"] == job.points[0][0]


def _small_jobs():
    """A few fast jobs that between them reach every layer."""
    small = ("--restarts", "1")
    sets = jobs.build_jobs("sets", 3)
    optimize = replace(sets[0], argv=sets[0].argv[:-4] + small + sets[0].argv[-2:])
    nclone = jobs.build_jobs("nclone", 3)[1]
    nclone = replace(nclone, argv=nclone.argv[:3] + small + nclone.argv[5:])
    return [optimize, nclone] + jobs.build_jobs("verify", 3)[:4]


def test_traced_pass_gives_identical_outputs_and_unwraps(tmp_path):
    import clonebench.cli as cli

    modules = {name: sys.modules[f"clonebench.{name}"] for name in spans.LAYERS}
    before = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    job_list = _small_jobs()
    runner = run.Runner(cli, tmp_path / "job.out")
    _, plain = run.run_pass(runner, job_list)

    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert modules["qlinalg"].partial_trace is not before[("qlinalg", "partial_trace")]
        _, traced = run.run_pass(runner, job_list, tracer)
    finally:
        tracer.uninstall()

    assert [r[:2] for r in traced] == [r[:2] for r in plain]
    after = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    layers = {span[0].split(".")[0] for span in tracer.spans}
    assert layers == set(spans.LAYERS)
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["optimize.evals"] > 0
    assert 0.0 < metrics["optimize.polish_share"] < 1.0
    assert metrics["fidelity.n_clone_calls"] > 0
    assert metrics["qlinalg.partial_trace_calls"] > 0
    assert metrics["cli.self_s"] > 0.0
    assert 0.0 < metrics["cli.self_check_share"] < 1.0
    assert all(span[3] < sid for sid, span in enumerate(tracer.spans))


def _bench_run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _bench_run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in metrics}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench_run(tmp_path, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
