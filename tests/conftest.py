"""Shared helpers: random valid machines for property tests, and the
explicit density-matrix partial trace the ket oracle is checked against."""

import math

import numpy as np

from clonebench.cloners import AncillaCloner, EconomicCloner


def random_columns(rng, dim):
    m = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, r = np.linalg.qr(m)
    return q * (r.diagonal() / abs(r.diagonal()))


def random_economic(rng):
    q = random_columns(rng, 4)
    return EconomicCloner(*q[:, 0], *q[:, 1])


def random_ancilla(rng, ancilla_dim=2):
    """Random valid machine with an ancilla: draw orthonormal columns in the
    full space and split each slot block into a coefficient and a unit ket."""
    q = random_columns(rng, 4 * ancilla_dim)
    coeffs = []
    kets = []
    default = np.zeros(ancilla_dim, dtype=complex)
    default[0] = 1.0
    for col in range(2):
        for slot in range(4):
            block = q[slot * ancilla_dim : (slot + 1) * ancilla_dim, col]
            norm = np.linalg.norm(block)
            if norm < 1e-12:
                coeffs.append(0.0)
                kets.append(default)
            else:
                coeffs.append(norm)
                kets.append(block / norm)
    return AncillaCloner(*coeffs, kets=tuple(kets), ancilla_dim=ancilla_dim)


def reduced_by_einsum(psi, dims, keep):
    """Reference reduced state: build |psi><psi| and trace it with einsum,
    the traced factors sharing their ket and bra index."""
    k = len(dims)
    keep = sorted(keep)
    t = np.outer(psi, psi.conj()).reshape(list(dims) * 2)
    sub_in = list(range(k)) + [i if i not in keep else k + i for i in range(k)]
    d_keep = math.prod(dims[i] for i in keep)
    return np.einsum(t, sub_in, keep + [k + i for i in keep]).reshape(d_keep, d_keep)
