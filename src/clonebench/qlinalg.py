"""Dense complex linear algebra for few-qubit Hilbert spaces (dimension <= 2**8)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class DegenerateColumnsError(ValueError):
    """Columns are numerically linearly dependent; caller should resample."""


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    `dims` are the factor dimensions in order; the result lives on the kept
    factors in their original order and has the same trace as `rho`.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
    k = len(dims)
    keep = sorted({int(i) for i in keep})
    if not keep or keep[0] < 0 or keep[-1] >= k:
        raise ValueError(f"keep={keep} is not a nonempty subset of factor indices 0..{k - 1}")
    t = rho.reshape(dims + dims)
    # einsum with integer subscripts: traced factors share ket/bra index
    sub_in = [i for i in range(k)] + [i if i not in keep else k + i for i in range(k)]
    sub_out = keep + [k + i for i in keep]
    reduced = np.einsum(t, sub_in, sub_out)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(d_keep, d_keep)


def sym_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the n-qubit symmetric subspace.

    Vector i has equal amplitude 1/sqrt(C(n, i)) on every computational basis
    ket with exactly i ones. Binomials are exact integers until the final
    division.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"n={n} out of range 1..10")
    basis = []
    for i in range(n + 1):
        v = np.zeros(2**n, dtype=complex)
        amp = 1.0 / math.sqrt(math.comb(n, i))
        for idx in range(2**n):
            if idx.bit_count() == i:
                v[idx] = amp
        basis.append(v)
    return basis
