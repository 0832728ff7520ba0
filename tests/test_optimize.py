"""Unit tests for the parameterization, objectives, and search drivers.

The heavy theorem-level runs live in test_acceptance; these tests use small
restart budgets and check mechanics, determinism, and formats.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_symmetric
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import clonebench.optimize as optimize_module
from clonebench.cloners import CloneIsometry, symmetric_coefficients
from clonebench.fidelity import copy_fidelity, n_clone_fidelity
from clonebench.optimize import (
    SCAN_CONFIG,
    OptimizationConfig,
    ScanGrid,
    optimize,
    optimize_n,
    scan_csv,
    scan_equator,
)
from clonebench.qlinalg import DegenerateColumnsError
from clonebench.states import (
    TWO_PI,
    BlochPoint,
    InputSet,
    bloch_to_state,
    custom,
    equatorial_pair,
    equatorial_trio,
    tetrahedron,
)

F_PHASE = 0.5 + math.sqrt(2.0) / 4.0

SMALL = OptimizationConfig(restarts=20, symmetric=True)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(mode="bogus")
    with pytest.raises(ValueError):
        OptimizationConfig(ancilla_dim=0)
    # rejected when the config is made, not reported later as failed restarts
    bad = [
        ("restarts", 0),
        ("restarts", -3),
        ("copies", 0),
        ("tol", 0.0),
        ("tol", -1e-6),
        ("tol", math.nan),
        ("tol", math.inf),
    ]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            OptimizationConfig(**{"restarts": 1, field: value})


@settings(deadline=None, max_examples=40)
@given(arrays(np.float64, 16, elements=st.floats(-2.0, 2.0, allow_nan=False)))
def test_parameterize_yields_feasible_isometries(params):
    try:
        v = CloneIsometry(optimize_module._columns_from_params(params, 4))
    except DegenerateColumnsError:
        return
    np.testing.assert_allclose(v.matrix.conj().T @ v.matrix, np.eye(2), atol=1e-10)


def test_parameterize_symmetric_embeds_in_full_space():
    # (full output dimension, symmetric subspace x ancilla dimension)
    assert optimize_module._sym_embedding(2, 1).shape == (4, 3)
    assert optimize_module._sym_embedding(2, 2).shape == (8, 6)
    assert optimize_module._sym_embedding(3, 1).shape == (8, 4)
    rng = np.random.default_rng(2)
    q = optimize_module._columns_from_params(rng.standard_normal(12), 3)
    v = CloneIsometry(optimize_module._sym_embedding(2, 1) @ q)
    assert v.matrix.shape == (4, 2)
    # symmetric-subspace output: |01> and |10> amplitudes coincide
    np.testing.assert_allclose(v.matrix[1], v.matrix[2], atol=1e-12)


def test_parameterize_rejects_wrong_size():
    with pytest.raises(ValueError):
        optimize_module._columns_from_params(np.zeros(7), 4)


def raw_params(c0, c1):
    """Raw search parameters of the complex raw columns c0 and c1."""
    z = np.concatenate([c0, c1])
    return np.concatenate([z.real, z.imag])


def reference_columns(c0, c1):
    """Complex Gram-Schmidt of two columns, with a second orthogonalization pass."""
    q0 = c0 / np.linalg.norm(c0)
    w = c1 - np.vdot(q0, c1) * q0
    w = w - np.vdot(q0, w) * q0
    return np.column_stack([q0, w / np.linalg.norm(w)])


def test_columns_match_the_complex_gram_schmidt():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4, 8):
        for _ in range(50):
            x = rng.standard_normal(4 * d) * rng.uniform(0.01, 100.0)
            z = x[: 2 * d] + 1j * x[2 * d :]
            np.testing.assert_allclose(
                optimize_module._columns_from_params(x, d),
                reference_columns(z[:d], z[d:]),
                rtol=0.0,
                atol=1e-13,
            )


@pytest.mark.parametrize("residual", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_columns_stay_orthonormal_for_nearly_parallel_draws(residual):
    # c1 = lam c0 + w with w orthogonal to c0 and |w|^2 / |c1|^2 = residual
    rng = np.random.default_rng(7)
    for _ in range(20):
        c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w -= np.vdot(c0, w) / np.vdot(c0, c0) * c0
        lam = complex(*rng.standard_normal(2))
        scale = abs(lam) * np.linalg.norm(c0) * math.sqrt(residual / (1.0 - residual))
        c1 = lam * c0 + w * (scale / np.linalg.norm(w))
        q = optimize_module._columns_from_params(raw_params(c0, c1), 4)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(2), rtol=0.0, atol=1e-12)
        # the first column is c0 normalized
        np.testing.assert_allclose(q[:, 0], c0 / np.linalg.norm(c0), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "c0, c1",
    [
        (np.zeros(3), np.array([1.0, 2.0j, -0.5])),
        (np.array([1.0, 2.0j, -0.5]), (0.3 - 1.7j) * np.array([1.0, 2.0j, -0.5])),
    ],
    ids=["zero-first-column", "parallel-columns"],
)
def test_degenerate_draws_evaluate_to_inf(c0, c1):
    x = raw_params(c0, c1)
    psis = np.column_stack(equatorial_trio().states())
    forms = optimize_module._copy_forms(psis, optimize_module._sym_embedding(2, 1), 2, 1)
    with pytest.raises(DegenerateColumnsError):
        optimize_module._columns_from_params(x, 3)
    for mode in ("max_min", "equal_fidelity_penalty"):
        value, grad = optimize_module._search_objective(x, forms, 3, mode)
        assert value == math.inf
        np.testing.assert_array_equal(grad, np.zeros(12))


def smoothed(fids, mode, sharpness):
    """The search's smoothed objective of the fidelities, written directly."""
    if mode == "max_min":
        lo = fids.min()  # shifted, so that the exponentials do not underflow
        return lo - math.log(np.exp(-sharpness * (fids - lo)).sum()) / sharpness
    return fids.mean() - optimize_module.PENALTY_WEIGHT * fids.var()


# the scan's symmetric 1->2 search, the full 1->2 space, and the tetrahedron
# with a two-dimensional ancilla
SEARCH_CASES = [
    pytest.param(equatorial_trio(), True, 1, id="trio-symmetric"),
    pytest.param(equatorial_trio(), False, 1, id="trio-full"),
    pytest.param(tetrahedron(), False, 2, id="tetrahedron-ancilla-2"),
]


@pytest.mark.parametrize("mode", ["max_min", "equal_fidelity_penalty"])
@pytest.mark.parametrize("input_set, symmetric, ancilla_dim", SEARCH_CASES)
def test_search_objective_is_the_smoothed_objective_of_the_fidelities(
    mode, input_set, symmetric, ancilla_dim
):
    embed = optimize_module._sym_embedding(2, ancilla_dim) if symmetric else np.eye(4 * ancilla_dim)
    d = embed.shape[1]
    psis = np.column_stack(input_set.states())
    forms = optimize_module._copy_forms(psis, embed, 2, ancilla_dim)
    rng = np.random.default_rng(11)
    for sharpness in (optimize_module.SMOOTH_SHARPNESS, 5e4):
        for _ in range(20):
            x = rng.standard_normal(4 * d) * rng.uniform(0.1, 10.0)
            fids = optimize_module._fidelities(forms, optimize_module._columns_from_params(x, d))
            value, grad = optimize_module._search_objective(x, forms, d, mode, sharpness)
            assert -value == pytest.approx(smoothed(fids, mode, sharpness), rel=0.0, abs=1e-12)
            assert grad.shape == x.shape


# ids: "<ancilla_dim>-<symmetric>", suffixed with the copy count past two
ORACLE_CASES = [
    pytest.param(
        symmetric,
        ancilla_dim,
        copies,
        id=f"{ancilla_dim}-{symmetric}" + (f"-{copies}copies" if copies > 2 else ""),
    )
    for copies in (2, 3)
    for ancilla_dim in (1, 2, 4)
    for symmetric in (False, True)
]


@pytest.mark.parametrize("symmetric, ancilla_dim, copies", ORACLE_CASES)
def test_copy_forms_match_the_density_matrix_oracle(symmetric, ancilla_dim, copies):
    rng = np.random.default_rng(ancilla_dim + 10 * symmetric + 100 * (copies - 2))
    angles = zip(rng.uniform(0.0, math.pi, 5), rng.uniform(0.0, TWO_PI, 5))
    points = [BlochPoint(theta, phi) for theta, phi in angles]
    psis = np.column_stack(InputSet("random", tuple(points)).states())
    if symmetric:
        embed = optimize_module._sym_embedding(copies, ancilla_dim)
    else:
        embed = np.eye(2**copies * ancilla_dim)
    d_eff = embed.shape[1]
    forms = optimize_module._copy_forms(psis, embed, copies, ancilla_dim)
    for _ in range(5):
        x = rng.standard_normal(4 * d_eff)
        q = optimize_module._columns_from_params(x, d_eff)
        fids = optimize_module._fidelities(forms, q)
        v = CloneIsometry(embed @ q, copies=copies, ancilla_dim=ancilla_dim)
        oracle = [copy_fidelity(v, p, copy) for copy in range(copies) for p in points]
        np.testing.assert_allclose(fids, oracle, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_n_clone_forms_match_the_closed_form(n):
    rng = np.random.default_rng(n)
    phases = rng.uniform(0.0, TWO_PI, 6)
    psis = np.column_stack([bloch_to_state(BlochPoint(math.pi / 2.0, phi)) for phi in phases])
    forms = optimize_module._copy_forms(psis, optimize_module._sym_embedding(n, 1), n, 1)
    for _ in range(5):
        v = random_symmetric(rng, n)
        closed = [n_clone_fidelity(v, phi) for phi in phases]
        # every copy of a symmetric machine has the closed-form fidelity
        np.testing.assert_allclose(
            optimize_module._fidelities(forms, symmetric_coefficients(v)).reshape(n, -1),
            np.tile(closed, (n, 1)),
            rtol=0.0,
            atol=1e-12,
        )


def rosenbrock(x):
    value = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = np.array(
        [-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2), 200.0 * (x[1] - x[0] ** 2)]
    )
    return value, grad


def test_descend_reaches_the_minimizer_of_a_convex_quadratic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + np.eye(12)
    center = rng.standard_normal(12)

    def fun(x):
        d = x - center
        return 0.5 * d @ a @ d, a @ d

    res = optimize_module._descend(fun, rng.standard_normal(12), ftol=1e-15, gtol=1e-12)
    assert res.success
    np.testing.assert_allclose(res.x, center, rtol=0.0, atol=1e-8)


def test_descend_solves_rosenbrock_well_under_the_cap():
    res = optimize_module._descend(rosenbrock, np.array([-1.2, 1.0]), ftol=1e-15, gtol=1e-10)
    assert res.success
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=0.0, atol=1e-6)
    assert res.nit < 100 < optimize_module.MAX_ITERS


def test_descend_stops_at_a_non_finite_start():
    x0 = np.array([0.5, -1.0])
    res = optimize_module._descend(lambda x: (math.inf, np.zeros_like(x)), x0)
    assert not res.success
    assert res.nfev == 1 and res.nit == 0
    np.testing.assert_array_equal(res.x, x0)


def test_descend_fails_when_the_step_rounds_away():
    # the reported gradient points uphill, so the line search shrinks the
    # step until x + t p rounds to x; that null step passes the Armijo test
    # but must not count as convergence
    res = optimize_module._descend(lambda x: (x @ x, -2.0 * x), np.array([1.0, -2.0]))
    assert not res.success
    assert res.nit == 0
    np.testing.assert_array_equal(res.x, [1.0, -2.0])


def test_descend_fails_when_no_step_lowers_the_value():
    # the reported gradient points uphill at the start, where the value is 0,
    # so every trial step raises the value until the step length underflows
    x0 = np.array([1.0, -2.0])
    res = optimize_module._descend(lambda x: ((x - x0) @ (x - x0), x0.copy()), x0)
    assert not res.success
    assert res.nit == 0 and res.fun == 0.0
    np.testing.assert_array_equal(res.x, x0)


@pytest.mark.parametrize("outside", [math.inf, math.nan])
def test_descend_backs_off_where_the_objective_is_not_finite(outside):
    # finite only inside radius 0.5, which the first step, of length 1, leaves
    center = np.array([0.3, -0.1, 0.2])
    calls = []

    def fun(x):
        calls.append(None)
        assert len(calls) < 1000, "the line search does not back off"
        if x @ x >= 0.25:
            return outside, np.zeros_like(x)
        return (x - center) @ (x - center), 2.0 * (x - center)

    res = optimize_module._descend(fun, np.zeros(3), ftol=1e-15, gtol=1e-10)
    assert res.success
    np.testing.assert_allclose(res.x, center, rtol=0.0, atol=1e-8)


def test_descend_skips_updates_without_curvature():
    # a weighted Huber loss: linear where the descent starts, so the first
    # steps see no change in the gradient and must leave the inverse Hessian unset
    weights = np.array([1.0, 100.0])

    def fun(x):
        inside = np.abs(x) <= 1.0
        value = np.where(inside, 0.5 * x * x, np.abs(x) - 0.5)
        return weights @ value, weights * np.where(inside, x, np.sign(x))

    res = optimize_module._descend(fun, np.array([10.0, 10.0]), ftol=1e-15, gtol=1e-10)
    assert res.success
    np.testing.assert_allclose(res.x, [0.0, 0.0], rtol=0.0, atol=1e-8)
    assert res.nit < 50


def test_descend_is_deterministic():
    runs = [optimize_module._descend(rosenbrock, np.array([-1.2, 1.0])) for _ in range(2)]
    assert runs[0].x.tobytes() == runs[1].x.tobytes()
    assert runs[0][1:] == runs[1][1:]


@pytest.fixture
def recorded_minimize(monkeypatch):
    """Records (objective, result) of every local search the driver runs."""
    calls = []
    minimize = optimize_module.minimize

    def recording(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        calls.append((fun, res))
        return res

    monkeypatch.setattr(optimize_module, "minimize", recording)
    return calls


def assert_search_gradient_matches_central_differences(recorded_minimize, input_set, cfg):
    optimize(input_set, cfg)
    fun, res = recorded_minimize[0]
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(3):
        x = rng.standard_normal(res.x.size)
        _, grad = fun(x)
        steps = np.eye(x.size) * h
        central = [(fun(x + e)[0] - fun(x - e)[0]) / (2.0 * h) for e in steps]
        np.testing.assert_allclose(grad, central, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("mode", ["max_min", "equal_fidelity_penalty"])
@pytest.mark.parametrize(
    "input_set, ancilla_dim", [(equatorial_trio(), 1), (tetrahedron(), 2)]
)
def test_search_gradient_matches_central_differences(
    recorded_minimize, mode, input_set, ancilla_dim
):
    cfg = OptimizationConfig(restarts=1, mode=mode, ancilla_dim=ancilla_dim)
    assert_search_gradient_matches_central_differences(recorded_minimize, input_set, cfg)


@pytest.mark.parametrize("mode", ["max_min", "equal_fidelity_penalty"])
def test_search_gradient_matches_central_differences_in_the_symmetric_subspace(
    recorded_minimize, mode
):
    # the scan's parameterization
    cfg = OptimizationConfig(restarts=1, mode=mode, symmetric=True)
    assert_search_gradient_matches_central_differences(recorded_minimize, equatorial_trio(), cfg)


def test_scan_exploration_restarts_converge(recorded_minimize):
    optimize(equatorial_trio(), SCAN_CONFIG)
    # one local search per start, then one polish of the winner
    assert len(recorded_minimize) == SCAN_CONFIG.restarts + 1
    assert all(res.success for _, res in recorded_minimize[: SCAN_CONFIG.restarts])


@pytest.mark.slow
@pytest.mark.parametrize(
    "search",
    [
        lambda: optimize_n(OptimizationConfig(copies=8, restarts=60)),
        lambda: optimize(tetrahedron(), OptimizationConfig(restarts=20, ancilla_dim=4)),
    ],
    ids=["optimize_n-8", "full-ancilla-4"],
)
def test_local_searches_stop_far_below_the_iteration_cap(recorded_minimize, search):
    # the descent's cap is 15000 iterations; the hardest searches, 1->8 and
    # 64 parameters, converge well inside 600
    search()
    assert max(res.nit for _, res in recorded_minimize) < 600


def test_optimize_trio_small_budget():
    res = optimize(equatorial_trio(), SMALL)
    assert res.objective == pytest.approx(F_PHASE, abs=1e-4)
    assert res.spread < 1e-4
    assert res.restarts_hitting_best >= 1
    assert len(res.per_state_fidelities) == 6
    assert res.seed == SMALL.seed


def test_max_min_polish_reaches_the_optimum_with_unequal_multipliers():
    # a 5-point equatorial set whose optimal multipliers on the fidelities are
    # unequal; the economic phase-covariant cloner reaches F_PHASE on every
    # equatorial state, and a softmin of sharpness 500 alone stops 1.9e-4 short
    phases = (54.07, 136.6, 212.4, 293.88, 352.35)
    five = custom([(math.pi / 2.0, math.radians(phi)) for phi in phases])
    res = optimize(five, OptimizationConfig(restarts=50))
    assert F_PHASE - 1e-8 <= res.objective <= F_PHASE + 1e-9


def test_optimize_is_deterministic():
    a = optimize(equatorial_trio(), SMALL)
    b = optimize(equatorial_trio(), SMALL)
    assert a.objective == b.objective
    assert a.raw_params == b.raw_params


def test_the_first_of_tied_starts_wins(monkeypatch):
    # doubling the raw parameters leaves the columns, and so every fidelity,
    # bit-identical: the two starts tie exactly
    x = np.asarray(optimize(equatorial_trio(), SMALL).raw_params)
    objectives = []

    def stay_put(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=fun(x0)[0])

    monkeypatch.setattr(optimize_module, "minimize", stay_put)
    for first, second in ((x, 2.0 * x), (2.0 * x, x)):
        res = optimize(equatorial_trio(), SMALL, _extra_starts=[first, second])
        assert res.raw_params == tuple(first.tolist())
        objectives.append(res.objective)
    assert objectives[0] == objectives[1]


def test_optimize_seed_changes_search_path():
    a = optimize(equatorial_pair(1.0), replace(SMALL, restarts=5))
    b = optimize(equatorial_pair(1.0), replace(SMALL, restarts=5, seed=1))
    # same optimum, generally different raw coordinates
    assert a.objective == pytest.approx(b.objective, abs=1e-5)


def test_optimize_n_small_budget():
    cfg = OptimizationConfig(restarts=20, copies=3)
    res = optimize_n(cfg)
    assert res.objective == pytest.approx(5.0 / 6.0, abs=1e-4)
    assert res.best.copies == 3 and res.best.ancilla_dim == 1
    # one fidelity per (state, copy), and the machine's coefficients are the
    # columns the search found, to the two roundings of reading them back
    assert len(res.per_state_fidelities) == 3 * 3
    q = optimize_module._columns_from_params(np.asarray(res.raw_params), 4)
    np.testing.assert_allclose(symmetric_coefficients(res.best), q, rtol=0.0, atol=2.3e-16)


def test_optimize_n_range():
    with pytest.raises(ValueError):
        optimize_n(OptimizationConfig(copies=9))


@pytest.mark.parametrize("r", [8, 9, 24, 61])
def test_degenerate_cells_are_those_with_coinciding_states(r):
    # reference rule: two of the cell's three kets overlap to within 1e-9
    phis = np.linspace(0.0, TWO_PI, r, endpoint=False)

    def coinciding(i, j):
        kets = [bloch_to_state(BlochPoint(math.pi / 2.0, phis[k])) for k in (0, i, j)]
        return any(
            abs(np.vdot(kets[a], kets[b])) >= 1.0 - 1e-9 for a, b in ((0, 1), (0, 2), (1, 2))
        )

    expected = np.array([[coinciding(i, j) for j in range(r)] for i in range(r)])
    assert np.array_equal(ScanGrid(r, np.zeros((r, r))).degenerate_mask, expected)
    rows = scan_csv(r, ((i, j, 0.9) for i in range(r) for j in range(r))).splitlines()[1:]
    assert [row.split(",")[3] == "true" for row in rows] == expected.ravel().tolist()


def test_scan_config_caps_the_budget():
    assert SCAN_CONFIG.restarts <= 6
    assert SCAN_CONFIG.mode == "equal_fidelity_penalty"
    assert SCAN_CONFIG.symmetric


def test_scan_rejects_low_resolution():
    with pytest.raises(ValueError):
        scan_equator(7)


@pytest.fixture(scope="module")
def scan8():
    return scan_equator(8)


def test_scan_grid_contents(scan8):
    assert scan8.fidelity.shape == (8, 8)
    # cells with a repeated state are degenerate: the whole diagonal plus rows
    # and columns through zero
    assert scan8.degenerate_mask[0, :].all()
    assert scan8.degenerate_mask[:, 0].all()
    assert scan8.degenerate_mask.diagonal().all()
    ok = ~scan8.degenerate_mask
    assert (scan8.fidelity[ok] >= F_PHASE - 1e-6).all()
    assert (scan8.fidelity[ok] <= 1.0 + 1e-9).all()


def test_scan_minimum_near_the_trio_cells(scan8):
    # the exact minima (120, 240) and (240, 120) are off-grid at resolution 8;
    # the observed minima must sit within one cell of them
    step = 360.0 / 8
    for i, j in scan8.minimum_cells(1e-6):
        p2, p3 = i * step, j * step
        assert min(
            abs(p2 - 120.0) + abs(p3 - 240.0), abs(p2 - 240.0) + abs(p3 - 120.0)
        ) <= 2 * step


def test_scan_csv_format(scan8):
    cells = [(i, j, scan8.fidelity[i, j]) for i in range(8) for j in range(8)]
    lines = scan_csv(8, cells).splitlines()
    assert lines[0] == "phi2_deg,phi3_deg,fidelity,degenerate"
    assert len(lines) == 8 * 8 + 1
    first = lines[1].split(",")
    assert first[0] == "0.000000" and first[1] == "0.000000"
    assert lines[2].startswith("0.000000,45.000000,")
    assert len(first[2].split(".")[1]) == 12
    assert first[3] in ("true", "false")


def test_scan_grid_is_exactly_symmetric(scan8):
    # images of every cell under swapping phi2 and phi3, relabeling the
    # reference state, and complex conjugation
    r = scan8.resolution
    i, j = np.indices((r, r))
    for pi, pj in ((j, i), (-i % r, (j - i) % r), (-i % r, -j % r)):
        assert np.array_equal(scan8.fidelity, scan8.fidelity[pi, pj])
        assert np.array_equal(scan8.degenerate_mask, scan8.degenerate_mask[pi, pj])


@pytest.fixture
def fake_search(monkeypatch):
    """Replaces the search the scan calls with one that records its calls."""
    calls = []

    def fake(input_set, cfg, _stream=None, _extra_starts=()):
        calls.append((_stream, len(_extra_starts)))
        return SimpleNamespace(objective=float(len(calls)), raw_params=(0.0,) * 12)

    monkeypatch.setattr(optimize_module, "optimize", fake)
    return calls


@pytest.mark.parametrize("resolution, orbits", [(8, 10), (9, 12)])
def test_scan_searches_once_per_orbit(fake_search, resolution, orbits):
    grid = scan_equator(resolution)
    assert len(fake_search) == orbits
    # each orbit is searched at its first cell in row-major order, with that
    # cell's stream and warm starts from the two orbits solved before it
    firsts = {}
    for i in range(resolution):
        for j in range(resolution):
            firsts.setdefault(grid.fidelity[i, j], i * resolution + j)
    assert [stream for stream, _ in fake_search] == [(0, firsts[k + 1.0]) for k in range(orbits)]
    assert [warm for _, warm in fake_search] == [0, 1] + [2] * (orbits - 2)


def test_scan_progress_fires_per_cell_in_row_major_order(fake_search):
    seen = []
    grid = scan_equator(9, progress=lambda i, j, value: seen.append((i, j, value)))
    assert [(i, j) for i, j, _ in seen] == [(i, j) for i in range(9) for j in range(9)]
    assert [value for _, _, value in seen] == grid.fidelity.ravel().tolist()
