"""Cloning machines as isometries, and the canonical machines.

Factor ordering is fixed everywhere: copy A, copy B, then ancilla (for the
1->2 machines), or the n copies (for the symmetric 1->n machines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import sym_basis

CONSTRAINT_TOL = 1e-8

SQRT2 = math.sqrt(2.0)


class InvalidMachineError(ValueError):
    """The machine violates its normalization/orthogonality constraints."""


@dataclass(frozen=True)
class CloneIsometry:
    """Unified numeric machine: orthonormal-column matrix from the 2-dim
    input space into the output space (copies first, ancilla last)."""

    matrix: np.ndarray
    copies: int = 2
    ancilla_dim: int = 1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = (2**self.copies) * self.ancilla_dim
        if m.shape != (d, 2):
            raise ValueError(f"matrix shape {m.shape}, expected ({d}, 2)")
        object.__setattr__(self, "matrix", m)

    @property
    def output_dims(self) -> list[int]:
        dims = [2] * self.copies
        if self.ancilla_dim > 1:
            dims.append(self.ancilla_dim)
        return dims


def constraint_check(cols: np.ndarray) -> dict:
    """Residuals of a machine's two columns, the images of |0> and |1>. Each
    squared norm is a pairwise sum of |entry|^2, with no square root to undo,
    so a 2^10-row isometry keeps its residuals near 1e-16."""
    norm0, norm1 = (float(abs(np.sum(abs(cols[:, k]) ** 2) - 1.0)) for k in (0, 1))
    overlap = float(abs(np.vdot(cols[:, 0], cols[:, 1])))
    passed = max(norm0, norm1, overlap) < CONSTRAINT_TOL
    return {"norm0": norm0, "norm1": norm1, "overlap": overlap, "tol": CONSTRAINT_TOL, "passed": passed}


# ---------------------------------------------------------------------------
# canonical machines


def economic_pqcm() -> CloneIsometry:
    """The ancilla-free phase-covariant cloner: |0> -> |00>,
    |1> -> (|01> + |10>)/sqrt(2)."""
    m = np.zeros((4, 2), dtype=complex)
    m[0, 0] = 1.0
    m[1, 1] = m[2, 1] = 1.0 / SQRT2
    return CloneIsometry(m)


def _qubit_ancilla_machine(a: float, b: float, f: float, h: float) -> CloneIsometry:
    """|0> -> a|00>|0> + b(|01> + |10>)|1>, |1> -> f(|01> + |10>)|0> + h|11>|1>;
    row 2 * (two-copy index) + ancilla index."""
    m = np.zeros((8, 2), dtype=complex)
    m[0, 0] = a
    m[3, 0] = m[5, 0] = b
    m[2, 1] = m[4, 1] = f
    m[7, 1] = h
    return CloneIsometry(m, ancilla_dim=2)


def ancilla_pqcm(a_mod: float) -> CloneIsometry:
    """One-parameter family of phase-covariant cloners with a qubit ancilla.

    |a| = a_mod fixes the rest through |f| = |a|/sqrt(2), |h| = sqrt(2)|b|
    and 2|b|^2 + 2|f|^2 = 1. Every member clones the equator at fidelity
    1/2 + sqrt(2)/4; a_mod = 1/sqrt(2) gives a = h = 1/sqrt(2), b = f = 1/2.
    """
    if not 0.0 <= a_mod <= 1.0:
        raise ValueError(f"a_mod={a_mod} outside [0, 1]")
    a = float(a_mod)
    b = math.sqrt(max(0.0, (1.0 - a * a) / 2.0))
    return _qubit_ancilla_machine(a, b, a / SQRT2, SQRT2 * b)


def uqcm() -> CloneIsometry:
    """The universal 1->2 cloner: a = h = sqrt(2/3), b = f = sqrt(1/6)."""
    a = math.sqrt(2.0 / 3.0)
    b = math.sqrt(1.0 / 6.0)
    return _qubit_ancilla_machine(a, b, b, a)


def optimal_n_cloner(n: int) -> CloneIsometry:
    """Optimal economic 1->n phase cloner: |0> and |1> go to the Dicke states
    with n // 2 and n // 2 + 1 ones."""
    i = n // 2
    return CloneIsometry(sym_basis(n)[:, i : i + 2], copies=n)


def symmetric_coefficients(v: CloneIsometry) -> np.ndarray:
    """The (n+1) x 2 coefficients c of a machine inside the symmetric
    subspace, V = S c with S = sym_basis(n): |0> -> sum_i a_i |i>>,
    |1> -> sum_i b_i |i>>, with a and b the columns of c.

    Each coefficient is one row of V per Dicke index divided by that row's
    basis amplitude, so a machine built as S c gives back c to rounding, and
    the canonical machines give exact 0s and 1s (a projection S^dag V would
    not)."""
    if v.ancilla_dim != 1:
        raise InvalidMachineError(f"ancilla of dimension {v.ancilla_dim}; not a symmetric machine")
    s = sym_basis(v.copies)
    # Dicke index i is read from the row of |0...01...1>, with i ones
    rows = [(1 << i) - 1 for i in range(v.copies + 1)]
    c = v.matrix[rows] / s[rows, range(v.copies + 1)][:, None]
    off = float(np.abs(s @ c - v.matrix).max())
    if off > CONSTRAINT_TOL:
        raise InvalidMachineError(f"machine leaves the symmetric subspace by {off:.1e}")
    return c


# ---------------------------------------------------------------------------
# serialization


def machine_doc(v: CloneIsometry) -> dict:
    """The machine.schema.json document of a symmetric 1->n machine."""
    a, b = symmetric_coefficients(v).T
    return {
        "kind": "symmetric_n",
        "n": v.copies,
        "a": [[z.real, z.imag] for z in a.tolist()],
        "b": [[z.real, z.imag] for z in b.tolist()],
    }
