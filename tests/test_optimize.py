"""Unit tests for the parameterization, objectives, and search drivers.

The heavy theorem-level runs live in test_acceptance; these tests use small
restart budgets and check mechanics, determinism, and formats.
"""

import csv
import io
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_symmetric
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import clonebench.descent as descent_module
import clonebench.optimize as optimize_module
from clonebench.cloners import CloneIsometry, symmetric_coefficients
from clonebench.fidelity import copy_fidelity, n_clone_fidelity
from clonebench.optimize import (
    OptimizationConfig,
    _coinciding,
    minimum_cells,
    optimize,
    optimize_n,
    scan_csv,
    scan_equator,
)
from clonebench.qlinalg import sym_basis
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


def columns(x, d):
    """The two orthonormal complex columns (d x 2) that the search's
    Gram-Schmidt makes of the 4 d raw reals x."""
    ym, bad = optimize_module._gram_schmidt(np.asarray(x, dtype=float), d)
    assert not bad[0], "zero or parallel raw columns"
    return (ym[0, :2] + 1j * ym[0, 2:]).T


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
    ]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            OptimizationConfig(**{"restarts": 1, field: value})


@settings(deadline=None, max_examples=40)
@given(arrays(np.float64, 16, elements=st.floats(-2.0, 2.0, allow_nan=False)))
def test_parameterize_yields_feasible_isometries(params):
    if optimize_module._gram_schmidt(params, 4)[1][0]:
        return  # zero or parallel raw columns
    v = CloneIsometry(columns(params, 4))
    np.testing.assert_allclose(v.matrix.conj().T @ v.matrix, np.eye(2), atol=1e-10)


def test_parameterize_symmetric_embeds_in_full_space():
    # (full output dimension, symmetric subspace x ancilla dimension)
    assert optimize_module._sym_embedding(2, 1).shape == (4, 3)
    assert optimize_module._sym_embedding(2, 2).shape == (8, 6)
    assert optimize_module._sym_embedding(3, 1).shape == (8, 4)
    rng = np.random.default_rng(2)
    q = columns(rng.standard_normal(12), 3)
    v = CloneIsometry(optimize_module._sym_embedding(2, 1) @ q)
    assert v.matrix.shape == (4, 2)
    # symmetric-subspace output: |01> and |10> amplitudes coincide
    np.testing.assert_allclose(v.matrix[1], v.matrix[2], atol=1e-12)


def fidelities(forms, q):
    """The fidelities of the complex columns q, through y = [Re q0, Re q1, Im q0, Im q1]."""
    y = np.concatenate([q.T.real, q.T.imag]).ravel()
    return (y @ forms).reshape(-1, y.size) @ y


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
                columns(x, d),
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
        q = columns(raw_params(c0, c1), 4)
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
    np.testing.assert_array_equal(optimize_module._gram_schmidt(x, 3)[1], [True])
    for mode in ("max_min", "equal_fidelity_penalty"):
        value, _, grad = optimize_module._search_objective(x[None], forms[None], 3, mode)
        np.testing.assert_array_equal(value, [math.inf])
        np.testing.assert_array_equal(grad, np.zeros((1, 12)))


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
        # one batch of 20 rows, each checked against its own fidelities
        x = rng.standard_normal((20, 4 * d)) * rng.uniform(0.1, 10.0, (20, 1))
        value, _, grad = optimize_module._search_objective(x, forms[None], d, mode, sharpness)
        assert value.shape == (20,) and grad.shape == x.shape
        for row, v in zip(x, value):
            fids = fidelities(forms, columns(row, d))
            assert -v == pytest.approx(smoothed(fids, mode, sharpness), rel=0.0, abs=1e-12)


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
        q = columns(x, d_eff)
        fids = fidelities(forms, q)
        v = CloneIsometry(embed @ q, copies=copies, ancilla_dim=ancilla_dim)
        oracle = copy_fidelity(v, points, range(copies)).T.ravel()
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
            fidelities(forms, symmetric_coefficients(v)).reshape(n, -1),
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


def batched(*funs):
    """The descent objective of a batch whose member i minimizes funs[i],
    a function of one point returning (value, gradient). Every point is its
    own canonical point."""

    def fun(x, idx):
        values, grads = zip(*(funs[i](row) for i, row in zip(idx, x)))
        return np.array(values, dtype=float), x, np.array(grads, dtype=float)

    return fun


def descend(fun, x0, **kwargs):
    """`_descend` on fun alone, as a one-member batch, checked to give the same
    result bit for bit as member 1 of a batch beside two unrelated members: a
    convex quadratic from elsewhere, and a start where the value is not finite.
    Returns that member's x, fun, nit, nfev and whether it converged."""
    x0 = np.asarray(x0, dtype=float)
    center = np.linspace(-1.0, 1.0, x0.size)

    def quadratic(x):
        return (x - center) @ (x - center), 2.0 * (x - center)

    def nowhere(x):
        return math.inf, np.zeros_like(x)

    alone = optimize_module._descend(batched(fun), x0[None], **kwargs)
    starts = np.stack([np.full(x0.size, 3.0), x0, x0])
    beside = optimize_module._descend(batched(quadratic, fun, nowhere), starts, **kwargs)
    assert beside.x[1].tobytes() == alone.x[0].tobytes()
    for field in ("fun", "nit", "nfev", "converged"):
        assert getattr(beside, field)[1] == getattr(alone, field)[0], field
    assert beside.converged[0] and not beside.converged[2]
    assert not beside.success and alone.success == alone.converged[0]
    return SimpleNamespace(
        x=alone.x[0], fun=alone.fun[0], nit=alone.nit[0], nfev=alone.nfev[0], success=alone.converged[0]
    )


def test_descend_reaches_the_minimizer_of_a_convex_quadratic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + np.eye(12)
    center = rng.standard_normal(12)

    def fun(x):
        d = x - center
        return 0.5 * d @ a @ d, a @ d

    res = descend(fun, rng.standard_normal(12), ftol=1e-15, gtol=1e-12)
    assert res.success
    np.testing.assert_allclose(res.x, center, rtol=0.0, atol=1e-8)


def test_descend_solves_rosenbrock_well_under_the_cap():
    res = descend(rosenbrock, np.array([-1.2, 1.0]), ftol=1e-15, gtol=1e-10)
    assert res.success
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=0.0, atol=1e-6)
    assert res.nit < 100 < descent_module.MAX_ITERS


def test_descend_stops_at_a_non_finite_start():
    x0 = np.array([0.5, -1.0])
    res = descend(lambda x: (math.inf, np.zeros_like(x)), x0)
    assert not res.success
    assert res.nfev == 1 and res.nit == 0
    np.testing.assert_array_equal(res.x, x0)


def test_descend_fails_when_the_step_rounds_away():
    # the reported gradient points uphill, so the line search shrinks the
    # step until x + t p rounds to x; that null step passes the Armijo test
    # but must not count as convergence
    res = descend(lambda x: (x @ x, -2.0 * x), np.array([1.0, -2.0]))
    assert not res.success
    assert res.nit == 0
    np.testing.assert_array_equal(res.x, [1.0, -2.0])


def test_descend_fails_when_no_step_lowers_the_value():
    # the reported gradient points uphill at the start, where the value is 0,
    # so every trial step raises the value until the step length underflows
    x0 = np.array([1.0, -2.0])
    res = descend(lambda x: ((x - x0) @ (x - x0), x0.copy()), x0)
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

    res = descend(fun, np.zeros(3), ftol=1e-15, gtol=1e-10)
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

    res = descend(fun, np.array([10.0, 10.0]), ftol=1e-15, gtol=1e-10)
    assert res.success
    np.testing.assert_allclose(res.x, [0.0, 0.0], rtol=0.0, atol=1e-8)
    assert res.nit < 50


def test_descend_is_deterministic():
    runs = [descend(rosenbrock, np.array([-1.2, 1.0])) for _ in range(2)]
    assert runs[0].x.tobytes() == runs[1].x.tobytes()
    assert (runs[0].fun, runs[0].nit, runs[0].nfev, runs[0].success) == (
        runs[1].fun, runs[1].nit, runs[1].nfev, runs[1].success
    )


@pytest.fixture
def recorded_minimize(monkeypatch):
    """Records (objective, starts, tolerances, result) of every batched
    descent the searches run."""
    calls = []
    minimize = optimize_module.minimize

    def recording(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        calls.append(SimpleNamespace(fun=fun, x0=x0, kwargs=kwargs, res=res))
        return res

    monkeypatch.setattr(optimize_module, "minimize", recording)
    return calls


def assert_orthonormal_columns(rows):
    """Each row, read as the 4 x d matrix [Re c0, Re c1, Im c0, Im c1], has
    orthonormal complex columns c0 and c1: |Q^dag Q - I| <= 1e-12."""
    for row in rows:
        m = row.reshape(4, -1)
        c = m[:2] + 1j * m[2:]
        np.testing.assert_allclose(c.conj() @ c.T, np.eye(2), rtol=0.0, atol=1e-12)


def assert_search_gradient_matches_central_differences(recorded_minimize, input_set, cfg):
    optimize(input_set, cfg)
    fun = recorded_minimize[0].fun
    rng = np.random.default_rng(3)
    h = 1e-6
    # three members in one batch
    x = rng.standard_normal((3, recorded_minimize[0].x0.shape[1]))
    idx = np.arange(3)
    # the gradient is the canonical point's, taken at that point
    _, y, grad = fun(x, idx)
    assert_orthonormal_columns(y)
    steps = np.eye(x.shape[1]) * h
    central = np.array([(fun(y + e, idx)[0] - fun(y - e, idx)[0]) / (2.0 * h) for e in steps]).T
    np.testing.assert_allclose(grad, central, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("mode", ["max_min", "equal_fidelity_penalty"])
@pytest.mark.parametrize(
    "input_set, ancilla_dim", [(equatorial_trio(), 1), (tetrahedron(), 2)]
)
def test_search_gradient_matches_central_differences(
    recorded_minimize, mode, input_set, ancilla_dim
):
    # three starts, so that the recorded objective lays out three members
    cfg = OptimizationConfig(restarts=3, mode=mode, ancilla_dim=ancilla_dim)
    assert_search_gradient_matches_central_differences(recorded_minimize, input_set, cfg)


@pytest.mark.parametrize("mode", ["max_min", "equal_fidelity_penalty"])
def test_search_gradient_matches_central_differences_in_the_symmetric_subspace(
    recorded_minimize, mode
):
    # the scan's parameterization
    cfg = OptimizationConfig(restarts=3, mode=mode, symmetric=True)
    assert_search_gradient_matches_central_differences(recorded_minimize, equatorial_trio(), cfg)


def test_scan_exploration_restarts_converge(recorded_minimize):
    scan_equator(9)
    # the 12 orbits form one batch: one descent explores their one start
    # each, and one polishes the 12 explored points
    explore, polish = recorded_minimize
    assert explore.x0.shape == (12, 12) and polish.x0.shape == (12, 12)
    assert explore.res.converged.all() and explore.res.success


def test_stacked_kernel_gradient_matches_central_differences_beside_a_degenerate_member():
    forms = optimize_module._copy_forms(
        np.column_stack(equatorial_trio().states()), optimize_module._sym_embedding(2, 1), 2, 1
    )[None]
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 12))
    x[2, [0, 1, 2, 6, 7, 8]] = 0.0  # member 2's first raw column is zero
    live = [0, 1, 3]
    h = 1e-6
    for mode in ("max_min", "equal_fidelity_penalty"):
        value, y, grad = optimize_module._search_objective(x, forms, 3, mode)
        assert value[2] == math.inf
        np.testing.assert_array_equal(grad[2], np.zeros(12))
        # the other members are evaluated bit for bit as in a batch without it
        alone, alone_y, alone_grad = optimize_module._search_objective(x[live], forms, 3, mode)
        assert value[live].tobytes() == alone.tobytes()
        assert y[live].tobytes() == alone_y.tobytes()
        assert grad[live].tobytes() == alone_grad.tobytes()
        # each gradient is taken at the member's canonical point
        assert_orthonormal_columns(y[live])
        central = np.array([
            (optimize_module._search_objective(y[live] + e, forms, 3, mode)[0]
             - optimize_module._search_objective(y[live] - e, forms, 3, mode)[0]) / (2.0 * h)
            for e in np.eye(12) * h
        ]).T
        np.testing.assert_allclose(grad[live], central, rtol=0.0, atol=1e-7)


def test_a_stack_of_problems_evaluates_each_row_on_its_own_forms():
    embed = optimize_module._sym_embedding(2, 1)
    # three trios, the last with two coinciding states
    sets = [equatorial_trio()] + [
        custom([BlochPoint(math.pi / 2.0, phi) for phi in phis]) for phis in ((0.0, 0.4, 2.5), (0.0, 1.1, 1.1))
    ]
    forms = np.array([optimize_module._copy_forms(np.column_stack(s.states()), embed, 2, 1) for s in sets])
    rng = np.random.default_rng(9)
    x = rng.standard_normal((9, 12))
    problem = np.arange(9) // 3
    for mode in ("max_min", "equal_fidelity_penalty"):
        value, _, grad = optimize_module._search_objective(x, forms, 3, mode, idx=np.arange(9), width=3)
        for i in range(9):
            # a lone row, on its problem's forms alone or in the layout, is
            # evaluated bit for bit as in the full batch
            for one in (
                optimize_module._search_objective(
                    x[i : i + 1], forms[problem[i]][None], 3, mode, idx=np.array([i % 3]), width=3
                ),
                optimize_module._search_objective(x[i : i + 1], forms, 3, mode, idx=np.array([i]), width=3),
            ):
                assert one[0].tobytes() == value[i : i + 1].tobytes()
                assert one[2].tobytes() == grad[i : i + 1].tobytes()
        # one slot per problem, as in a polish: each row as when alone
        polish = optimize_module._search_objective(x[::3], forms, 3, mode, idx=np.arange(3), width=1)
        for j in range(3):
            # a problem's rows on its forms alone, as in the stack
            own = optimize_module._search_objective(
                x[3 * j : 3 * j + 3], forms[j][None], 3, mode, idx=np.arange(3), width=3
            )
            assert own[0].tobytes() == value[3 * j : 3 * j + 3].tobytes()
            assert own[2].tobytes() == grad[3 * j : 3 * j + 3].tobytes()
            one = optimize_module._search_objective(x[3 * j : 3 * j + 1], forms[j][None], 3, mode)
            assert one[0].tobytes() == polish[0][j : j + 1].tobytes()
            assert one[2].tobytes() == polish[2][j : j + 1].tobytes()
        np.testing.assert_allclose(polish[0], value[::3], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(polish[2], grad[::3], rtol=0.0, atol=1e-13)
        # rows 1, 2, 4 and 8 have left the batch: the rest go through the padded layout
        left = [0, 3, 5, 6, 7]
        part, _, part_grad = optimize_module._search_objective(
            x[left], forms, 3, mode, idx=np.array(left), width=3
        )
        assert part.tobytes() == value[left].tobytes()
        assert part_grad.tobytes() == grad[left].tobytes()


@pytest.mark.parametrize("call", [0, 1], ids=["explore", "polish"])
def test_a_scan_batch_member_matches_its_one_member_batch(recorded_minimize, call):
    # on the scan's own trio problems, batching changes only speed
    scan_equator(9)
    rec = recorded_minimize[call]
    for i in range(len(rec.x0)):
        one = optimize_module._descend(lambda x, idx: rec.fun(x, idx + i), rec.x0[i : i + 1], **rec.kwargs)
        np.testing.assert_allclose(one.x[0], rec.res.x[i], rtol=0.0, atol=1e-10)
        assert (one.nfev[0], one.nit[0], one.converged[0]) == (
            rec.res.nfev[i], rec.res.nit[i], rec.res.converged[i]
        )


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
    assert max(rec.res.nit.max() for rec in recorded_minimize) < 600


def descend_from_a_scaled_optimum():
    # twice the raw parameters of a minimizer: that start converges before its
    # first step, beside a random start that descends
    forms = optimize_module._copy_forms(
        np.column_stack(equatorial_trio().states()), optimize_module._sym_embedding(2, 1), 2, 1
    )[None]

    def fun(x, idx):
        return optimize_module._search_objective(x, forms, 3, "max_min", idx=idx, width=2)

    x = optimize_module._descend(fun, optimize_module._starts([(0,)], 1, 12)[0], ftol=1e-15, gtol=1e-12).x[0]
    optimize_module.minimize(fun, np.stack([2.0 * x, optimize_module._starts([(1,)], 1, 12)[0, 0]]))


@pytest.mark.parametrize(
    "search",
    [
        lambda: scan_equator(9),
        lambda: optimize(tetrahedron(), OptimizationConfig(restarts=5, ancilla_dim=2)),
        lambda: optimize_n(OptimizationConfig(copies=3, restarts=5)),
        descend_from_a_scaled_optimum,
    ],
    ids=["scan-9", "tetrahedron-ancilla-2", "optimize_n-3", "scaled-optimum"],
)
def test_accepted_iterates_have_orthonormal_columns(monkeypatch, search):
    # the descent moves each start and every accepted iterate to the canonical
    # points the objective returns, so each member with a finite value, one
    # that took no step included, ends on one of them
    minimize, descents = optimize_module.minimize, []

    def recording(fun, x0, **kwargs):
        returned = [set() for _ in x0]

        def canonical(x, idx):
            out = fun(x, idx)
            live = np.isfinite(out[0])
            assert_orthonormal_columns(out[1][live])
            for i, y in zip(idx[live], out[1][live]):
                returned[i].add(y.tobytes())
            return out

        res = minimize(canonical, x0, **kwargs)
        for i in np.flatnonzero(np.isfinite(res.fun)):
            assert res.x[i].tobytes() in returned[i]
        descents.append(res)
        return res

    monkeypatch.setattr(optimize_module, "minimize", recording)
    search()
    assert descents and all(res.nit.any() for res in descents)


def test_a_search_descent_returns_a_degenerate_draw_as_given():
    # the kernel's canonical point of a degenerate draw is a placeholder: the
    # descent keeps the draw and reports it unconverged, beside a live member
    forms = optimize_module._copy_forms(
        np.column_stack(equatorial_trio().states()), optimize_module._sym_embedding(2, 1), 2, 1
    )[None]
    c = np.array([1.0, 2.0j, -0.5])
    x0 = np.stack([
        raw_params(np.zeros(3), c), raw_params(c, (0.3 - 1.7j) * c), np.random.default_rng(2).standard_normal(12)
    ])  # fmt: skip
    for mode in ("max_min", "equal_fidelity_penalty"):
        res = optimize_module._descend(
            lambda x, idx: optimize_module._search_objective(x, forms, 3, mode, idx=idx, width=3), x0
        )
        assert res.x[:2].tobytes() == x0[:2].tobytes()
        assert list(res.converged) == [False, False, True] and not res.success
        assert list(res.fun[:2]) == [math.inf, math.inf] and list(res.nit[:2]) == [0, 0]
        assert list(res.nfev[:2]) == [1, 1]


def test_streams_are_deterministic():
    keys = [(0,), (5,), (2**31 - 1,), (2**64 + 5,)]
    first = optimize_module._starts(keys, 6, 12)
    assert first.shape == (4, 6, 12)
    assert first.tobytes() == optimize_module._starts(keys, 6, 12).tobytes()
    # distinct keys draw distinct starts; components are folded in mod 2^64
    assert len({draws.tobytes() for draws in first[:3]}) == 3
    assert first[3].tobytes() == first[1].tobytes()


def test_more_or_longer_draws_leave_the_earlier_ones():
    short = optimize_module._starts([(3, 17)], 8, 12)
    assert optimize_module._starts([(3, 17)], 20, 12)[:, :8].tobytes() == short.tobytes()
    assert optimize_module._starts([(3, 17)], 8, 16)[:, :, :12].tobytes() == short.tobytes()


def test_a_batch_of_streams_draws_as_each_stream_alone():
    keys = [(3, c) for c in (0, 1, 2, 9, 40)]
    batch = optimize_module._starts(keys, 8, 12)
    for key, draws in zip(keys, batch):
        assert optimize_module._starts([key], 8, 12)[0].tobytes() == draws.tobytes()


def test_stream_draws_have_standard_normal_moments():
    z = optimize_module._starts([(seed,) for seed in range(100)], 200, 10).ravel()
    assert z.size == 200_000
    # bounds of about 4.5 standard errors at this size
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.008
    assert abs(np.mean(z**4) - 3.0) < 0.1
    # the 32-bit radius keeps every draw finite
    assert np.isfinite(z).all() and np.abs(z).max() < 7.0


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
    five = custom([BlochPoint(math.pi / 2.0, math.radians(phi)) for phi in phases])
    res = optimize(five, OptimizationConfig(restarts=50))
    assert F_PHASE - 1e-8 <= res.objective <= F_PHASE + 1e-9


def test_optimize_is_deterministic():
    a = optimize(equatorial_trio(), SMALL)
    b = optimize(equatorial_trio(), SMALL)
    assert a.objective == b.objective
    assert a.best.matrix.tobytes() == b.best.matrix.tobytes()


def test_the_first_of_tied_starts_wins(monkeypatch):
    # doubling the raw parameters leaves the columns, and so every fidelity,
    # bit-identical: the two starts tie exactly
    embed = optimize_module._sym_embedding(2, 1)
    forms = optimize_module._copy_forms(np.column_stack(equatorial_trio().states()), embed, 2, 1)[None]
    starts = optimize_module._starts([(0,)], SMALL.restarts, 12)
    x = optimize_module._search(forms, 3, SMALL.mode, optimize_module.EXPLORE_TOL, starts)[0][0]
    values = []

    def stay_put(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=fun(x0, np.arange(len(x0)))[0])

    monkeypatch.setattr(optimize_module, "minimize", stay_put)
    for first, second in ((x, 2.0 * x), (2.0 * x, x)):
        best_x, best_val, _ = optimize_module._search(
            forms, 3, SMALL.mode, optimize_module.EXPLORE_TOL, np.array([[first, second]])
        )
        assert best_x[0].tobytes() == first.tobytes()
        values.append(best_val[0])
    assert values[0] == values[1]


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
    forms = optimize_module._copy_forms(np.column_stack(equatorial_trio().states()), sym_basis(3), 3, 1)
    starts = optimize_module._starts([(cfg.seed,)], cfg.restarts, 16)
    best_x = optimize_module._search(forms[None], 4, cfg.mode, optimize_module.EXPLORE_TOL, starts)[0][0]
    q = symmetric_coefficients(res.best)
    np.testing.assert_allclose(q, columns(best_x, 4), rtol=0.0, atol=2.3e-16)
    # and the reported fidelities are that machine's
    fids = fidelities(forms, q).reshape(3, 3)
    reported = [f for *_, f in res.per_state_fidelities]
    np.testing.assert_allclose(reported, fids.T.ravel(), rtol=0.0, atol=1e-15)


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
    assert np.array_equal(_coinciding(*np.indices((r, r))), expected)
    rows = scan_csv(r, ((i, j, 0.9) for i in range(r) for j in range(r))).splitlines()[1:]
    assert [row.split(",")[3] == "true" for row in rows] == expected.ravel().tolist()


def test_scan_rejects_low_resolution():
    with pytest.raises(ValueError):
        scan_equator(7)


def test_scan_rejects_resolution_above_the_cap():
    with pytest.raises(ValueError):
        scan_equator(optimize_module.MAX_RESOLUTION + 1)


@pytest.mark.parametrize(
    "resolution, seed",
    [(r, s) for r in (8, 9) for s in range(3)]
    + [pytest.param(r, 0, marks=pytest.mark.slow) for r in (12, 24)],
)
def test_scan_grid_does_not_depend_on_the_exploration_tolerance(monkeypatch, resolution, seed):
    # the exploration only brings each orbit's start into its basin and the
    # polish sets the values, so a 30x tighter exploration tolerance gives the
    # same grid
    grid = scan_equator(resolution, seed)
    monkeypatch.setattr(optimize_module, "SCAN_EXPLORE_TOL", 1e-3)
    tight = scan_equator(resolution, seed)
    np.testing.assert_allclose(grid, tight, rtol=0.0, atol=1e-12)
    assert minimum_cells(grid)[0] == minimum_cells(tight)[0]


@pytest.mark.parametrize(
    "resolution, seed",
    [(r, s) for r in (8, 9) for s in (1, 2)]
    + [pytest.param(r, s, marks=pytest.mark.slow) for r in (24, 36) for s in (1, 2)],
)
def test_scan_grid_does_not_depend_on_the_seed(resolution, seed):
    # every orbit's one start, whatever the seed, reaches the same optimum, so
    # one start is enough; at resolution 36, seed 2, the orbit with gaps
    # (2, 17, 17) needs the exploration before the polish to get there
    grid = scan_equator(resolution, 0)
    other = scan_equator(resolution, seed)
    np.testing.assert_allclose(grid, other, rtol=0.0, atol=1e-12)
    assert minimum_cells(grid)[0] == minimum_cells(other)[0]


@pytest.fixture(scope="module")
def scan8():
    return scan_equator(8)


def test_scan_grid_contents(scan8):
    assert scan8.shape == (8, 8)
    # cells with a repeated state are degenerate: the whole diagonal plus rows
    # and columns through zero
    degenerate = _coinciding(*np.indices(scan8.shape))
    assert degenerate[0, :].all()
    assert degenerate[:, 0].all()
    assert degenerate.diagonal().all()
    ok = ~degenerate
    assert (scan8[ok] >= F_PHASE - 1e-6).all()
    assert (scan8[ok] <= 1.0 + 1e-9).all()


def test_scan_minimum_near_the_trio_cells(scan8):
    # the exact minima (120, 240) and (240, 120) are off-grid at resolution 8;
    # the observed minima must sit within one cell of them
    step = 360.0 / 8
    for i, j in minimum_cells(scan8)[0]:
        p2, p3 = i * step, j * step
        assert min(
            abs(p2 - 120.0) + abs(p3 - 240.0), abs(p2 - 240.0) + abs(p3 - 120.0)
        ) <= 2 * step


def test_scan_csv_format(scan8):
    cells = [(i, j, scan8[i, j]) for i in range(8) for j in range(8)]
    lines = scan_csv(8, cells).splitlines()
    assert lines[0] == "phi2_deg,phi3_deg,fidelity,degenerate"
    assert len(lines) == 8 * 8 + 1
    first = lines[1].split(",")
    assert first[0] == "0.000000" and first[1] == "0.000000"
    assert lines[2].startswith("0.000000,45.000000,")
    assert len(first[2].split(".")[1]) == 12
    assert first[3] in ("true", "false")


def reference_scan_csv(resolution, cells):
    """The scan CSV written through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi2_deg", "phi3_deg", "fidelity", "degenerate"])
    for i, j, fidelity in cells:
        p2, p3 = i * 360.0 / resolution, j * 360.0 / resolution
        degenerate = "true" if i == 0 or j == 0 or i == j else "false"
        writer.writerow([f"{p2:.6f}", f"{p3:.6f}", f"{fidelity:.12f}", degenerate])
    return buf.getvalue()


@pytest.mark.parametrize("r", [8, 9, 24, 61])
def test_scan_csv_matches_a_csv_writer(r):
    # the ends of [0, 1], and values a hair either side of a rounding boundary
    # of the 12th decimal, as floats and as numpy floats
    edges = [0.0, 1.0, 5e-13, 1.0 - 5e-13, 0.9999999999995, 0.1234567890125, 0.12345678901249999]
    edges += [math.nextafter(x, lim) for x in (5e-13, 0.9999999999995) for lim in (0.0, 1.0)]
    rng = np.random.default_rng(r)
    fids = edges + [np.float64(f) for f in edges] + rng.uniform(0.0, 1.0, r * r).tolist()
    cells = [(i, j, fids[(i * r + j) % len(fids)]) for i in range(r) for j in range(r)]
    assert scan_csv(r, cells) == reference_scan_csv(r, cells)
    # a partial scan's cells, in the order given
    assert scan_csv(r, cells[::-3]) == reference_scan_csv(r, cells[::-3])
    assert scan_csv(r, []) == reference_scan_csv(r, [])


def test_scan_grid_is_exactly_symmetric(scan8):
    # images of every cell under swapping phi2 and phi3, relabeling the
    # reference state, and complex conjugation
    r = len(scan8)
    i, j = np.indices((r, r))
    degenerate = _coinciding(i, j)
    for pi, pj in ((j, i), (-i % r, (j - i) % r), (-i % r, -j % r)):
        assert np.array_equal(scan8, scan8[pi, pj])
        assert np.array_equal(degenerate, degenerate[pi, pj])


@pytest.fixture
def fake_search(monkeypatch):
    """Replaces the scan's batch search with one that records the starts of
    each batch and numbers the orbits 1, 2, ... in the order given. The scan
    searches in penalty mode at its own exploration tolerance."""
    calls = []

    def fake(forms, d, mode, tol, starts):
        assert len(forms) == len(starts) <= optimize_module.SCAN_BATCH
        assert (mode, tol) == ("equal_fidelity_penalty", optimize_module.SCAN_EXPLORE_TOL)
        solved = sum(len(s) for s in calls)
        calls.append(starts)
        return None, np.arange(solved + 1.0, solved + len(starts) + 1.0), None

    monkeypatch.setattr(optimize_module, "_search", fake)
    return calls


@pytest.mark.parametrize("resolution, orbits", [(8, 10), (9, 12), (24, 61)])
def test_scan_searches_once_per_orbit(fake_search, resolution, orbits):
    grid = scan_equator(resolution, seed=3)
    starts = np.concatenate(fake_search)
    assert len(starts) == orbits
    # each orbit is searched at its first cell in row-major order, from one
    # start, draw 0 of that cell's stream (seed, cell index)
    firsts = {}
    for i in range(resolution):
        for j in range(resolution):
            firsts.setdefault(grid[i, j], i * resolution + j)
    for k in range(orbits):
        expected = optimize_module._starts([(3, firsts[k + 1.0])], 1, 12)[0]
        assert starts[k].tobytes() == expected.tobytes()


def test_scan_progress_fires_per_cell_in_row_major_order(fake_search):
    seen = []
    grid = scan_equator(9, progress=lambda i, j, value: seen.append((i, j, value)))
    assert [(i, j) for i, j, _ in seen] == [(i, j) for i in range(9) for j in range(9)]
    assert [value for _, _, value in seen] == grid.ravel().tolist()
    # the 12 orbits of resolution 9 are one batch
    assert len(fake_search) == 1


def test_scan_reports_each_cell_as_soon_as_its_orbit_is_solved(fake_search):
    # at resolution 24 the 61 orbits take several batches; a cell is reported
    # after the batch that solves its orbit and before the next batch starts
    batches_at_report = []
    grid = scan_equator(24, progress=lambda i, j, value: batches_at_report.append(len(fake_search)))
    assert len(fake_search) == math.ceil(61 / optimize_module.SCAN_BATCH) > 1
    solved_by = np.ceil(grid.ravel() / optimize_module.SCAN_BATCH)
    first_new = np.maximum.accumulate(solved_by)
    assert batches_at_report == first_new.tolist()
