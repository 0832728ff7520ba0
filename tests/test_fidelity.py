"""Unit tests for fidelity evaluation, the trigonometric decomposition, and
the 1->n closed form."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    random_ancilla,
    random_columns,
    random_economic,
    random_symmetric,
    reduced_by_einsum,
)

from clonebench.cli import resolve_machine
from clonebench.cloners import (
    CloneIsometry,
    InvalidMachineError,
    ancilla_pqcm,
    economic_pqcm,
    optimal_n_cloner,
    uqcm,
)
from clonebench.fidelity import (
    closed_form_bound,
    copy_fidelity,
    decompose_equatorial,
    n_clone_fidelity,
)
from clonebench.states import TWO_PI, BlochPoint, bloch_to_state

F_PHASE = 0.5 + math.sqrt(2.0) / 4.0


def equatorial(phi):
    return BlochPoint(math.pi / 2.0, phi)


def decomposed(d, phi):
    """F(phi) = lambda1 cos(2 phi + psi1) + lambda2 cos(phi + psi2) + lambda3
    from a `decompose_equatorial` document."""
    return (
        d["lambda1"] * np.cos(2.0 * phi + d["psi1"])
        + d["lambda2"] * np.cos(phi + d["psi2"])
        + d["lambda3"]
    )


def test_copy_fidelity_pqcm_is_flat_on_equator():
    v = economic_pqcm()
    points = [equatorial(phi) for phi in np.linspace(0.0, TWO_PI, 17, endpoint=False)]
    assert np.abs(copy_fidelity(v, points, range(2)) - F_PHASE).max() < 1e-14


def test_copy_fidelity_uqcm_is_universal():
    v = uqcm()
    rng = np.random.default_rng(11)
    points = [BlochPoint(rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI)) for _ in range(10)]
    assert np.abs(copy_fidelity(v, points, range(2)) - 5.0 / 6.0).max() < 1e-13


def test_copy_fidelity_copy_index_range():
    v = economic_pqcm()
    with pytest.raises(IndexError):
        copy_fidelity(v, [equatorial(0.0)], [2])
    with pytest.raises(IndexError):
        copy_fidelity(v, [equatorial(0.0)], [0, -1])


def explicit_copy_fidelity(v, p, copy):
    """<psi| rho_copy |psi> from the full output density matrix V|psi><psi|V†."""
    psi = bloch_to_state(p)
    rho_c = reduced_by_einsum(v.matrix @ psi, v.output_dims, [copy])
    return float(np.real(psi.conj() @ rho_c @ psi))


def random_points(rng, count):
    return [BlochPoint(rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI)) for _ in range(count)]


@pytest.mark.parametrize(
    "name",
    ["pqcm-economic", "pqcm-ancilla", "pqcm-ancilla:0.6", "uqcm"] + [f"nclone:{n}" for n in range(1, 11)],
)
def test_copy_fidelity_matches_explicit_density_matrix(name):
    # every copy, of a single output ket and of a stack of them; an ancilla is
    # the last factor and is traced out with the other copies
    v = ancilla_pqcm(0.6) if name == "pqcm-ancilla:0.6" else resolve_machine(name)
    points = random_points(np.random.default_rng(31), 4) + [equatorial(0.4)]
    table = copy_fidelity(v, points, range(v.copies))
    for s, p in enumerate(points):
        single = copy_fidelity(v, [p], range(v.copies))
        assert single.shape == (1, v.copies)
        for copy in range(v.copies):
            expected = explicit_copy_fidelity(v, p, copy)
            assert abs(table[s, copy] - expected) < 1e-13
            assert abs(single[0, copy] - expected) < 1e-13


@pytest.mark.parametrize("copies,ancilla_dim", [(2, 2), (2, 4), (3, 1)])
def test_copy_fidelity_matches_explicit_density_matrix_on_random_isometries(copies, ancilla_dim):
    rng = np.random.default_rng(10 * copies + ancilla_dim)
    for _ in range(5):
        m = random_columns(rng, 2**copies * ancilla_dim)
        v = CloneIsometry(m, copies=copies, ancilla_dim=ancilla_dim)
        points = random_points(rng, 4)
        table = copy_fidelity(v, points, range(copies))
        for s, p in enumerate(points):
            for copy in range(copies):
                assert abs(table[s, copy] - explicit_copy_fidelity(v, p, copy)) < 1e-13


@pytest.mark.parametrize(
    "maker",
    [
        random_economic,
        random_ancilla,
        pytest.param(lambda rng: random_ancilla(rng, 4), id="random_ancilla_dim4"),
        pytest.param(lambda rng: random_symmetric(rng, 5), id="random_symmetric_5"),
    ],
)
def test_one_stacked_call_matches_every_point_and_copy(maker):
    # repeated points must give repeated rows, and copies may come in any order
    rng = np.random.default_rng(41)
    v = maker(rng)
    fresh = random_points(rng, 5)
    points = fresh + [fresh[3], equatorial(0.4), fresh[0], equatorial(0.4)]
    copies = list(range(v.copies))[::-1]
    table = copy_fidelity(v, points, copies)
    assert table.shape == (len(points), len(copies))
    for s, p in enumerate(points):
        for c, copy in enumerate(copies):
            assert abs(table[s, c] - explicit_copy_fidelity(v, p, copy)) < 1e-13


def test_copy_fidelity_never_forms_the_output_density_matrix():
    # at n = 10 the output density matrix alone is 1024 x 1024 complex, 16.8 MB.
    # The second case is the nclone self-check's stack of 20 phases, here for
    # both copies; its measured peak is 0.99 MB: the 20 output kets, their
    # copy with the kept factor first and its conjugate, 328 KB each, and the
    # bound leaves a quarter on top
    v = optimal_n_cloner(10)
    stack = [equatorial(phi) for phi in np.linspace(0.0, TWO_PI, 20, endpoint=False)]
    for points, copies, bound in (([equatorial(0.7)], [1], 1_000_000), (stack, [0, 1], 1_250_000)):
        copy_fidelity(v, points, copies)
        tracemalloc.start()
        try:
            copy_fidelity(v, points, copies)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


@pytest.mark.parametrize(
    "maker",
    [
        random_economic,
        random_ancilla,
        pytest.param(lambda rng: random_ancilla(rng, 4), id="random_ancilla_dim4"),
        *(
            pytest.param(lambda rng, n=n: random_symmetric(rng, n), id=f"random_symmetric_{n}")
            for n in (3, 6)
        ),
        *(
            pytest.param(lambda rng, n=n: optimal_n_cloner(n), id=f"nclone_{n}")
            for n in range(3, 7)
        ),
    ],
)
def test_decompose_equatorial_matches_density_matrix(maker):
    # F(phi) has degree 2, so its 5-point DFT reproduces every other phase
    rng = np.random.default_rng(23)
    phis = np.linspace(0.0, TWO_PI, 25, endpoint=False)
    for _ in range(10):
        v = maker(rng)
        direct = copy_fidelity(v, [equatorial(p) for p in phis], range(v.copies))
        records = decompose_equatorial(v)
        assert len(records) == v.copies
        for copy, d in enumerate(records):
            np.testing.assert_allclose(decomposed(d, phis), direct[:, copy], atol=1e-12)


def test_decompose_rejects_invalid_machine():
    parallel = np.zeros((4, 2))
    parallel[0] = 1.0
    with pytest.raises(InvalidMachineError):
        decompose_equatorial(CloneIsometry(parallel))


def test_optimal_machines_have_flat_decomposition():
    machines = [economic_pqcm(), ancilla_pqcm(0.6), uqcm()]
    machines += [optimal_n_cloner(n) for n in (3, 4)]
    for v in machines:
        for d in decompose_equatorial(v):
            assert d["lambda1"] < 1e-12
            assert d["lambda2"] < 1e-12
            assert not d["psi1_defined"]
            assert not d["psi2_defined"]


@pytest.mark.parametrize("n", range(2, 9))
def test_n_clone_closed_form_matches_bruteforce(n):
    # the oracle expands the output ket in the full 2^n space
    rng = np.random.default_rng(100 + n)
    v = random_symmetric(rng, n)
    for phi in rng.uniform(0.0, TWO_PI, 8):
        closed = n_clone_fidelity(v, phi)
        for f in copy_fidelity(v, [equatorial(phi)], range(n))[0]:
            assert abs(closed - f) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 8])
def test_n_clone_fidelity_over_an_array_equals_its_scalar_values(n):
    rng = np.random.default_rng(200 + n)
    v = random_symmetric(rng, n)
    phis = rng.uniform(0.0, TWO_PI, 12)
    values = n_clone_fidelity(v, phis)
    assert values.shape == phis.shape
    scalars = [n_clone_fidelity(v, phi) for phi in phis]
    assert all(isinstance(f, float) for f in scalars)
    np.testing.assert_allclose(values, scalars, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(n_clone_fidelity(v, phis.reshape(3, 4)), values.reshape(3, 4), rtol=0.0, atol=0.0)


@pytest.mark.parametrize(
    "n,value",
    [
        (2, 0.8535533905932737),
        (3, 5.0 / 6.0),
        (4, 0.8061862178478972),
        (5, 0.8),
        (6, 0.7886751345948129),
    ],
)
def test_closed_form_bound_values(n, value):
    assert closed_form_bound("phase_1ton", n) == pytest.approx(value, abs=1e-15)


def test_closed_form_bound_names():
    assert closed_form_bound("phase_1ton", 2) == pytest.approx(F_PHASE, abs=1e-15)
    assert closed_form_bound("universal_1to2") == pytest.approx(5.0 / 6.0, abs=1e-15)
    with pytest.raises(ValueError):
        closed_form_bound("phase_1ton")
    with pytest.raises(ValueError):
        closed_form_bound("bogus")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_optimal_n_cloner_is_flat_at_the_bound(n):
    machine = optimal_n_cloner(n)
    bound = closed_form_bound("phase_1ton", n)
    for phi in np.linspace(0.0, TWO_PI, 9, endpoint=False):
        assert abs(n_clone_fidelity(machine, phi) - bound) < 1e-13


@pytest.mark.parametrize(
    "v",
    [uqcm(), random_economic(np.random.default_rng(6))],
    ids=["uqcm", "random_economic"],
)
def test_n_clone_fidelity_rejects_non_symmetric_machines(v):
    # the closed form holds only inside the symmetric subspace, ancilla-free
    with pytest.raises(InvalidMachineError):
        n_clone_fidelity(v, 0.3)
