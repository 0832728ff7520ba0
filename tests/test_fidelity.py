"""Unit tests for fidelity evaluation, the trigonometric decomposition, and
the 1->n closed form."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import random_ancilla, random_columns, random_economic, reduced_by_einsum

from clonebench.cli import resolve_machine
from clonebench.cloners import (
    CloneIsometry,
    InvalidMachineError,
    SymmetricNCloner,
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
from clonebench.states import TWO_PI, BlochPoint, bloch_to_state

F_PHASE = 0.5 + math.sqrt(2.0) / 4.0


def equatorial(phi):
    return BlochPoint(math.pi / 2.0, phi)


def test_copy_fidelity_pqcm_is_flat_on_equator():
    v = economic_pqcm()
    for phi in np.linspace(0.0, TWO_PI, 17, endpoint=False):
        for copy in range(2):
            assert abs(copy_fidelity(v, equatorial(phi), copy) - F_PHASE) < 1e-14


def test_copy_fidelity_uqcm_is_universal():
    v = uqcm()
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = BlochPoint(rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI))
        for copy in range(2):
            assert abs(copy_fidelity(v, p, copy) - 5.0 / 6.0) < 1e-13


def test_copy_fidelity_copy_index_range():
    v = economic_pqcm()
    with pytest.raises(IndexError):
        copy_fidelity(v, equatorial(0.0), 2)


def explicit_copy_fidelity(v, p, copy):
    """<psi| rho_copy |psi> from the full output density matrix V|psi><psi|V†."""
    psi = bloch_to_state(p)
    rho_c = reduced_by_einsum(v.matrix @ psi, v.output_dims, [copy])
    return float(np.real(psi.conj() @ rho_c @ psi))


def random_points(rng, count):
    return [BlochPoint(rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI)) for _ in range(count)]


@pytest.mark.parametrize(
    "name", ["pqcm-economic", "pqcm-ancilla", "uqcm"] + [f"nclone:{n}" for n in range(1, 11)]
)
def test_copy_fidelity_matches_explicit_density_matrix(name):
    v = resolve_machine(name)
    for p in random_points(np.random.default_rng(31), 4) + [equatorial(0.4)]:
        for copy in range(v.copies):
            assert abs(copy_fidelity(v, p, copy) - explicit_copy_fidelity(v, p, copy)) < 1e-13


@pytest.mark.parametrize("copies,ancilla_dim", [(2, 2), (2, 4), (3, 1)])
def test_copy_fidelity_matches_explicit_density_matrix_on_random_isometries(copies, ancilla_dim):
    rng = np.random.default_rng(10 * copies + ancilla_dim)
    for _ in range(5):
        m = random_columns(rng, 2**copies * ancilla_dim)
        v = CloneIsometry(m, copies=copies, ancilla_dim=ancilla_dim)
        for p in random_points(rng, 4):
            for copy in range(copies):
                assert abs(copy_fidelity(v, p, copy) - explicit_copy_fidelity(v, p, copy)) < 1e-13


def test_copy_fidelity_never_forms_the_output_density_matrix():
    # at n = 10 the output density matrix alone is 1024 x 1024 complex, 16.8 MB
    v = to_isometry(optimal_n_cloner(10))
    p = equatorial(0.7)
    copy_fidelity(v, p, 1)
    tracemalloc.start()
    try:
        copy_fidelity(v, p, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def random_symmetric(rng, n):
    q = random_columns(rng, n + 1)
    return to_isometry(SymmetricNCloner(n=n, a=tuple(q[:, 0]), b=tuple(q[:, 1])))


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
            pytest.param(lambda rng, n=n: to_isometry(optimal_n_cloner(n)), id=f"nclone_{n}")
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
        for copy in range(v.copies):
            d = decompose_equatorial(v, copy=copy)
            direct = [copy_fidelity(v, equatorial(p), copy) for p in phis]
            np.testing.assert_allclose(d.evaluate(phis), direct, atol=1e-12)


def test_decompose_rejects_invalid_machine():
    parallel = np.zeros((4, 2))
    parallel[0] = 1.0
    with pytest.raises(InvalidMachineError):
        decompose_equatorial(CloneIsometry(parallel))


def test_optimal_machines_have_flat_decomposition():
    machines = [economic_pqcm(), ancilla_pqcm(0.6), uqcm()]
    machines += [to_isometry(optimal_n_cloner(n)) for n in (3, 4)]
    for v in machines:
        for copy in range(v.copies):
            d = decompose_equatorial(v, copy=copy)
            assert d.lambda1 < 1e-12
            assert d.lambda2 < 1e-12
            assert not d.psi1_defined
            assert not d.psi2_defined


@pytest.mark.parametrize("n", range(2, 9))
def test_n_clone_closed_form_matches_bruteforce(n):
    # the oracle expands the output ket in the full 2^n space
    rng = np.random.default_rng(100 + n)
    q = random_columns(rng, n + 1)
    machine = SymmetricNCloner(n=n, a=tuple(q[:, 0]), b=tuple(q[:, 1]))
    v = to_isometry(machine)
    for phi in rng.uniform(0.0, TWO_PI, 8):
        closed = n_clone_fidelity(machine, phi)
        for copy in range(n):
            assert abs(closed - copy_fidelity(v, equatorial(phi), copy)) < 1e-12


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
    assert closed_form_bound("phase_1to2") == pytest.approx(F_PHASE, abs=1e-15)
    assert closed_form_bound("universal_1to2") == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert closed_form_bound("phase_1ton", 2) == closed_form_bound("phase_1to2")
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
