"""Dense complex linear algebra on pure states of few-qubit Hilbert spaces
(dimension <= 2**10): the reduced state of a ket and the symmetric-subspace
basis."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def partial_trace(psi: np.ndarray, dims: Sequence[int], copy: int) -> np.ndarray:
    """Reduced density matrices of the pure states `psi` on factor `copy`.

    `psi` is one ket or a stack of them, shape (..., D) with D = prod(dims);
    the result has shape (..., d, d) with d = dims[copy]. `dims` are the
    factor dimensions in order; each result has trace <psi|psi>. It is M M†,
    with M the ket reshaped so factor `copy` indexes its rows, so |psi><psi|
    is never formed.
    """
    psi = np.asarray(psi, dtype=complex)
    dims = [int(d) for d in dims]
    if psi.shape[-1:] != (math.prod(dims),):
        raise ValueError(f"ket shape {psi.shape} does not match dims {dims}")
    if not 0 <= copy < len(dims):
        raise ValueError(f"copy={copy} is not a factor index 0..{len(dims) - 1}")
    lead, before, after = psi.shape[:-1], math.prod(dims[:copy]), math.prod(dims[copy + 1 :])
    # rows: factor `copy`; columns: the factors before it, then those after
    m = psi.reshape(*lead, before, dims[copy], after).swapaxes(-3, -2)
    m = m.reshape(*lead, dims[copy], before * after)
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
