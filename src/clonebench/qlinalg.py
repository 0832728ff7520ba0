"""Dense complex linear algebra on pure states of few-qubit Hilbert spaces
(dimension <= 2**10): the reduced state of a ket and the symmetric-subspace
basis."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def partial_trace(psi: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrices of the pure states `psi` on the factors in `keep`.

    `psi` is one ket or a stack of them, shape (..., D) with D = prod(dims);
    the result has shape (..., d_keep, d_keep). `dims` are the factor
    dimensions in order; each result lives on the kept factors in their
    original order and has trace <psi|psi>. It is M M†, with M the ket
    reshaped so the kept factors index its rows, so |psi><psi| is never
    formed.
    """
    psi = np.asarray(psi, dtype=complex)
    dims = [int(d) for d in dims]
    if psi.shape[-1:] != (math.prod(dims),):
        raise ValueError(f"ket shape {psi.shape} does not match dims {dims}")
    k = len(dims)
    keep = sorted({int(i) for i in keep})
    if not keep or keep[0] < 0 or keep[-1] >= k:
        raise ValueError(f"keep={keep} is not a nonempty subset of factor indices 0..{k - 1}")
    traced = [i for i in range(k) if i not in keep]
    d_keep = math.prod(dims[i] for i in keep)
    lead = psi.shape[:-1]
    axes = [*range(len(lead)), *(len(lead) + i for i in keep + traced)]
    m = psi.reshape(lead + tuple(dims)).transpose(axes).reshape(*lead, d_keep, psi.shape[-1] // d_keep)
    return m @ m.conj().swapaxes(-1, -2)


def sym_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n-qubit symmetric subspace, as the columns of
    a 2^n x (n+1) matrix.

    Column i has equal amplitude 1/sqrt(C(n, i)) on every computational basis
    ket with exactly i ones. Binomials are exact integers until the final
    division.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"n={n} out of range 1..10")
    idx = np.arange(2**n)
    ones = sum((idx >> bit) & 1 for bit in range(n))
    amps = np.array([1.0 / math.sqrt(math.comb(n, i)) for i in range(n + 1)])
    basis = np.zeros((2**n, n + 1), dtype=complex)
    basis[idx, ones] = amps[ones]
    return basis
