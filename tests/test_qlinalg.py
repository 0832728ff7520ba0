"""Unit tests for the dense linear-algebra helpers."""

import math

import numpy as np
import pytest
from conftest import reduced_by_einsum

from clonebench.qlinalg import partial_trace, sym_basis


def test_partial_trace_product_state():
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([1.0, 1j]) / math.sqrt(2.0)
    uv = np.kron(u, v)
    np.testing.assert_allclose(partial_trace(uv, [2, 2], 0), np.outer(u, u.conj()), atol=1e-14)
    np.testing.assert_allclose(partial_trace(uv, [2, 2], 1), np.outer(v, v.conj()), atol=1e-14)


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho1 = partial_trace(bell, [2, 2], 0)
    np.testing.assert_allclose(rho1, np.eye(2) / 2.0, atol=1e-14)


def test_partial_trace_keeps_order_and_trace():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi /= np.linalg.norm(psi)
    for copy, d in enumerate([2, 3, 2]):
        kept = partial_trace(psi, [2, 3, 2], copy)
        assert kept.shape == (d, d)
        assert abs(np.trace(kept) - 1.0) < 1e-12
        np.testing.assert_allclose(kept, kept.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(kept).min() >= -1e-10


@pytest.mark.parametrize("keep", [0, 1, 2], ids="keep{}".format)
def test_partial_trace_matches_density_matrix_trace(keep):
    # the outer and middle factors of unequal factor dimensions
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi /= np.linalg.norm(psi)
    dims = [2, 3, 2]
    expected = reduced_by_einsum(psi, dims, [keep])
    np.testing.assert_allclose(partial_trace(psi, dims, keep), expected, atol=1e-14)


def test_partial_trace_pqcm_plus_state_oracle():
    # the ancilla-free phase cloner on (|0> + |1>)/sqrt(2), reduced to copy A
    col0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    col1 = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    out = (col0 + col1) / math.sqrt(2.0)
    rho_a = partial_trace(out, [2, 2], 0)
    s = math.sqrt(2.0) / 4.0
    np.testing.assert_allclose(rho_a, [[0.75, s], [s, 0.25]], atol=1e-14)


def test_partial_trace_rejects_bad_shapes():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        partial_trace(np.ones(3) / math.sqrt(3.0), [2, 2], 0)
    with pytest.raises(ValueError):
        partial_trace(np.ones(8) / math.sqrt(8.0), [2, 2], 0)
    with pytest.raises(ValueError):
        partial_trace(np.ones((3, 5)) / math.sqrt(5.0), [2, 2], 0)
    with pytest.raises(ValueError):
        partial_trace(bell, [2, 2], -1)
    with pytest.raises(ValueError):
        partial_trace(bell, [2, 2], 2)


@pytest.mark.parametrize(
    "dims,keep",
    [
        ([2, 2, 2], 0),
        ([2, 2, 2], 1),
        ([2, 2, 4], 2),
        ([2, 3, 2, 2], 3),
        ([2, 2, 4], 0),
        ([2, 3, 2, 2], 1),
    ],
    ids=lambda v: f"keep{v}" if isinstance(v, int) else None,
)
def test_partial_trace_of_a_stack_matches_each_ket(dims, keep):
    # ancilla dims 2 and 4 as the last factor, kept and traced out
    rng = np.random.default_rng(sum(dims) + 10 * keep)
    kets = rng.standard_normal((3, 5, math.prod(dims))) + 1j * rng.standard_normal((3, 5, math.prod(dims)))
    stacked = partial_trace(kets, dims, keep)
    assert stacked.shape == (3, 5, dims[keep], dims[keep])
    for idx in np.ndindex(3, 5):
        np.testing.assert_allclose(stacked[idx], partial_trace(kets[idx], dims, keep), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(stacked[idx], reduced_by_einsum(kets[idx], dims, [keep]), atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sym_basis_is_orthonormal(n):
    basis = sym_basis(n)
    assert basis.shape == (2**n, n + 1)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(n + 1), atol=1e-12)


def test_sym_basis_amplitudes_follow_binomials():
    basis = sym_basis(3)
    # excitation count 1: three kets with amplitude 1/sqrt(3)
    v = basis[:, 1]
    support = np.nonzero(np.abs(v) > 0)[0]
    assert sorted(support) == [1, 2, 4]
    np.testing.assert_allclose(v[support], 1.0 / math.sqrt(3.0))


def test_sym_basis_range_check():
    with pytest.raises(ValueError):
        sym_basis(0)
    with pytest.raises(ValueError):
        sym_basis(11)
