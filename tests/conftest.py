"""Shared helpers: random isometries for property tests, input-set JSON,
and the explicit density-matrix partial trace the ket oracle is checked
against."""

import json
import math

import numpy as np

from clonebench.cloners import CloneIsometry


def random_columns(rng, dim):
    m = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, r = np.linalg.qr(m)
    return q * (r.diagonal() / abs(r.diagonal()))


def random_economic(rng):
    """Random ancilla-free 1->2 isometry."""
    return CloneIsometry(random_columns(rng, 4))


def random_ancilla(rng, ancilla_dim=2):
    """Random 1->2 isometry with an ancilla of dimension `ancilla_dim`."""
    return CloneIsometry(random_columns(rng, 4 * ancilla_dim), ancilla_dim=ancilla_dim)


def input_set_json(s):
    """The input-set JSON document that `InputSet.from_json` reads."""
    return json.dumps(
        {"label": s.label, "points": [{"theta": p.theta, "phi": p.phi} for p in s.points]}
    )


def reduced_by_einsum(psi, dims, keep):
    """Reference reduced state: build |psi><psi| and trace it with einsum,
    the traced factors sharing their ket and bra index."""
    k = len(dims)
    keep = sorted(keep)
    t = np.outer(psi, psi.conj()).reshape(list(dims) * 2)
    sub_in = list(range(k)) + [i if i not in keep else k + i for i in range(k)]
    d_keep = math.prod(dims[i] for i in keep)
    return np.einsum(t, sub_in, keep + [k + i for i in keep]).reshape(d_keep, d_keep)
