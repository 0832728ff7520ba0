"""Acceptance suite: ten numbered criteria covering the closed-form machine
values, the optimization theorems, the contour scan, and determinism.

Each criterion prints a single pass/fail line (bypassing pytest capture) so a
full run reads as a checklist.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_ancilla, random_economic

from clonebench.cloners import (
    ancilla_pqcm,
    economic_pqcm,
    optimal_n_cloner,
    to_isometry,
    uqcm,
)
from clonebench.fidelity import (
    closed_form_bound,
    copy_fidelity,
    decompose_equatorial,
    n_clone_fidelity,
)
from clonebench.optimize import (
    OptimizationConfig,
    optimize,
    optimize_n,
    scan_equator,
)
from clonebench.states import (
    TWO_PI,
    BlochPoint,
    InputSet,
    bb84,
    equatorial_pair,
    equatorial_trio,
    six_state,
    tetrahedron,
)

# every criterion runs full-budget searches or scans; `pytest -m "not slow"`
# leaves the file out
pytestmark = pytest.mark.slow

F_PHASE = 0.5 + math.sqrt(2.0) / 4.0
F_UNIVERSAL = 5.0 / 6.0

TRIO_CFG = OptimizationConfig(restarts=200, symmetric=True)
TETRA_CFG = OptimizationConfig(restarts=200, symmetric=True, ancilla_dim=2)


_CAPTURE_MANAGER = None


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(pytestconfig):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = pytestconfig.pluginmanager.getplugin("capturemanager")


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})\n"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert ok, line


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trio_runs():
    first, elapsed = timed(optimize, equatorial_trio(), TRIO_CFG)
    second = optimize(equatorial_trio(), TRIO_CFG)
    return first, second, elapsed


@pytest.fixture(scope="module")
def tetra_runs():
    first, elapsed = timed(optimize, tetrahedron(), TETRA_CFG)
    second = optimize(tetrahedron(), TETRA_CFG)
    return first, second, elapsed


@pytest.fixture(scope="module")
def scan_runs():
    first, elapsed = timed(scan_equator, 24)
    second = scan_equator(24)
    return first, second, elapsed


def test_criterion_1_known_machine_exactness():
    t0 = time.perf_counter()
    pqcm = economic_pqcm()
    worst_p = max(
        abs(copy_fidelity(pqcm, BlochPoint(math.pi / 2.0, phi), copy) - F_PHASE)
        for phi in np.linspace(0.0, TWO_PI, 100, endpoint=False)
        for copy in range(2)
    )
    u = uqcm()
    rng = np.random.default_rng(0)
    worst_u = max(
        abs(copy_fidelity(u, BlochPoint(theta, phi), copy) - F_UNIVERSAL)
        for theta, phi in zip(
            rng.uniform(0.0, math.pi, 50), rng.uniform(0.0, TWO_PI, 50)
        )
        for copy in range(2)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_p < 1e-12 and worst_u < 1e-12 and elapsed < 1.0
    report(
        1,
        ok,
        f"pqcm dev {worst_p:.1e}, uqcm dev {worst_u:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_trio_theorem(trio_runs):
    res, _, elapsed = trio_runs
    ok = (
        F_PHASE - 1e-5 <= res.objective <= F_PHASE + 1e-6
        and res.spread < 1e-6
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"objective {res.objective:.9f}, spread {res.spread:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_ancilla_futility():
    cfg = OptimizationConfig(restarts=100, symmetric=True)
    t0 = time.perf_counter()
    objs = [optimize(equatorial_trio(), replace(cfg, ancilla_dim=d)).objective for d in (1, 2, 4)]
    elapsed = time.perf_counter() - t0
    devs = [abs(obj - F_PHASE) for obj in objs]
    ok = max(devs) < 1e-4 and all(obj <= F_PHASE + 1e-6 for obj in objs) and elapsed < 180.0
    report(3, ok, f"max deviation {max(devs):.1e} over dims 1/2/4, {elapsed:.1f}s")


def test_criterion_4_tetrahedron_theorem(tetra_runs):
    res, _, elapsed = tetra_runs
    dev = abs(res.objective - F_UNIVERSAL)
    ok = dev < 1e-4 and elapsed < 60.0
    report(4, ok, f"objective {res.objective:.9f}, deviation {dev:.1e}, {elapsed:.1f}s")


def test_criterion_5_minimality_probes():
    t0 = time.perf_counter()
    pair_cfg = replace(TRIO_CFG, restarts=100)
    pair_res = optimize(equatorial_pair(math.pi / 2.0), pair_cfg)
    pair_ok = pair_res.objective > F_PHASE + 1e-3
    loo_cfg = replace(TETRA_CFG, restarts=100)
    tetra_pts = tetrahedron().points
    loo_margins = []
    for drop in range(4):
        kept = tuple(p for i, p in enumerate(tetra_pts) if i != drop)
        res = optimize(InputSet(f"tetra-minus-{drop}", kept), loo_cfg)
        loo_margins.append(res.objective - F_UNIVERSAL)
    elapsed = time.perf_counter() - t0
    ok = pair_ok and all(m > 1e-3 for m in loo_margins) and elapsed < 120.0
    report(
        5,
        ok,
        f"pair gain {pair_res.objective - F_PHASE:+.4f}, "
        f"smallest leave-one-out gain {min(loo_margins):+.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_contour_scan(scan_runs):
    grid, _, elapsed = scan_runs
    cells = sorted(grid.minimum_cells(1e-6))
    expected = sorted([(8, 16), (16, 8)])  # (120, 240) and (240, 120) degrees
    ok_cells = cells == expected
    nd = grid.fidelity[~grid.degenerate_mask]
    vmin = float(nd.min())
    ok = (
        ok_cells
        and abs(vmin - F_PHASE) < 1e-3
        and (nd >= F_PHASE - 1e-6).all()
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"minima at {[(i * 15, j * 15) for i, j in cells]} deg, "
        f"min {vmin:.6f}, {elapsed:.1f}s",
    )


def test_criterion_7_qkd_sets():
    t0 = time.perf_counter()
    bb = optimize(bb84(), TRIO_CFG)
    six = optimize(six_state(), TETRA_CFG)
    elapsed = time.perf_counter() - t0
    dev_bb = abs(bb.objective - F_PHASE)
    dev_six = abs(six.objective - F_UNIVERSAL)
    ok = dev_bb < 1e-4 and dev_six < 1e-4 and elapsed < 120.0
    report(7, ok, f"bb84 dev {dev_bb:.1e}, six-state dev {dev_six:.1e}, {elapsed:.1f}s")


def test_criterion_8_one_to_n_suite():
    t0 = time.perf_counter()
    restarts = {2: 60, 3: 60, 4: 80, 5: 120, 6: 160}
    worst_bound = 0.0
    worst_oracle = 0.0
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        res = optimize_n(OptimizationConfig(copies=n, restarts=restarts[n]))
        bound = closed_form_bound("phase_1ton", n)
        worst_bound = max(worst_bound, abs(res.objective - bound))
        for phi in rng.uniform(0.0, TWO_PI, 20):
            delta = abs(
                n_clone_fidelity(res.machine, phi)
                - copy_fidelity(res.best, BlochPoint(math.pi / 2.0, phi), 0)
            )
            worst_oracle = max(worst_oracle, delta)
    elapsed = time.perf_counter() - t0
    ok = worst_bound < 1e-4 and worst_oracle < 1e-10 and elapsed < 120.0
    report(
        8,
        ok,
        f"worst bound gap {worst_bound:.1e}, worst oracle gap {worst_oracle:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_decomposition_identity():
    # the lambdas come from a 5-point DFT of the oracle; the degree-2
    # structure makes that reconstruction exact at every other phase
    rng = np.random.default_rng(9)
    phis = rng.uniform(0.0, TWO_PI, 200)
    machines = [
        random_economic(rng) if k % 3 == 0 else random_ancilla(rng, 2 if k % 3 == 1 else 4)
        for k in range(100)
    ]
    machines += [to_isometry(optimal_n_cloner(n)) for n in range(3, 7)]
    worst = 0.0
    for v in machines:
        for copy in range(2):
            d = decompose_equatorial(v, copy=copy)
            direct = np.array(
                [
                    copy_fidelity(v, BlochPoint(math.pi / 2.0, p), copy)
                    for p in phis
                ]
            )
            worst = max(worst, float(np.abs(d.evaluate(phis) - direct).max()))
    optimal = [economic_pqcm(), ancilla_pqcm(0.6), ancilla_pqcm(1.0 / math.sqrt(2.0)), uqcm()]
    optimal += [to_isometry(optimal_n_cloner(n)) for n in range(3, 7)]
    worst_lam = max(
        max(d.lambda1, d.lambda2)
        for v in optimal
        for d in (decompose_equatorial(v, copy=c) for c in range(2))
    )
    ok = worst < 1e-10 and worst_lam < 1e-10
    report(
        9,
        ok,
        f"worst reconstruction gap {worst:.1e}, worst optimal-machine lambda {worst_lam:.1e}",
    )


def test_criterion_10_determinism(trio_runs, tetra_runs, scan_runs):
    trio_a, trio_b, _ = trio_runs
    tetra_a, tetra_b, _ = tetra_runs
    scan_a, scan_b, _ = scan_runs
    ok = (
        trio_a.objective == trio_b.objective
        and tetra_a.objective == tetra_b.objective
        and np.array_equal(scan_a.fidelity, scan_b.fidelity)
    )
    report(10, ok, "criteria 2, 4, 6 reruns reproduce their objectives exactly")
