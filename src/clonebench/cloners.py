"""Cloning machines as isometries, the symmetric 1->n coefficient form, and
the canonical machines.

Factor ordering is fixed everywhere: copy A, copy B, then ancilla (for the
1->2 machines), or the n copies (for the symmetric 1->n machines).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import sym_basis

CONSTRAINT_TOL = 1e-8

SQRT2 = math.sqrt(2.0)


class InvalidMachineError(ValueError):
    """The machine violates its normalization/orthogonality constraints."""


@dataclass(frozen=True)
class SymmetricNCloner:
    """Economic 1->n machine acting inside the n-qubit symmetric subspace:
    |0> -> sum_i a_i |i>>, |1> -> sum_i b_i |i>>."""

    n: int
    a: tuple[complex, ...]
    b: tuple[complex, ...]

    def __post_init__(self):
        if not 1 <= self.n <= 10:
            raise ValueError(f"n={self.n} outside 1..10")
        a = tuple(complex(x) for x in self.a)
        b = tuple(complex(x) for x in self.b)
        if len(a) != self.n + 1 or len(b) != self.n + 1:
            raise ValueError(f"need n+1={self.n + 1} coefficients per column")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def columns(self) -> np.ndarray:
        return np.column_stack([np.asarray(self.a), np.asarray(self.b)])


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


@dataclass(frozen=True)
class ConstraintReport:
    """Residuals of the two normalization conditions and the column overlap."""

    norm0: float
    norm1: float
    overlap: float
    tol: float = CONSTRAINT_TOL

    @property
    def passed(self) -> bool:
        return max(self.norm0, self.norm1, self.overlap) < self.tol

    def as_dict(self) -> dict:
        return {
            "norm0": self.norm0,
            "norm1": self.norm1,
            "overlap": self.overlap,
            "tol": self.tol,
            "passed": self.passed,
        }


def constraint_check(cols: np.ndarray) -> ConstraintReport:
    """Residuals of a machine's two columns, the images of |0> and |1>. Each
    squared norm is a pairwise sum of |entry|^2, with no square root to undo,
    so a 2^10-row isometry keeps its residuals near 1e-16."""
    norm0, norm1 = (float(abs(np.sum(abs(cols[:, k]) ** 2) - 1.0)) for k in (0, 1))
    return ConstraintReport(norm0, norm1, overlap=float(abs(np.vdot(cols[:, 0], cols[:, 1]))))


def to_isometry(c: SymmetricNCloner) -> CloneIsometry:
    """Expand a symmetric 1->n machine into its full-space isometry."""
    report = constraint_check(c.columns())
    if not report.passed:
        raise InvalidMachineError(f"constraint residuals too large: {report.as_dict()}")
    return CloneIsometry(sym_basis(c.n) @ c.columns(), copies=c.n, ancilla_dim=1)


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


def optimal_n_cloner(n: int) -> SymmetricNCloner:
    """Optimal economic 1->n phase cloner: a unit coefficient at the
    parity-dependent middle index, zeros elsewhere."""
    if not 1 <= n <= 10:
        raise ValueError(f"n={n} outside 1..10")
    ia = n // 2 if n % 2 == 0 else (n - 1) // 2
    a = [0.0] * (n + 1)
    b = [0.0] * (n + 1)
    a[ia] = 1.0
    b[ia + 1] = 1.0
    return SymmetricNCloner(n=n, a=tuple(a), b=tuple(b))


# ---------------------------------------------------------------------------
# serialization


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def machine_to_json(c: SymmetricNCloner) -> str:
    doc = {
        "kind": "symmetric_n",
        "n": c.n,
        "a": [_c2pair(z) for z in c.a],
        "b": [_c2pair(z) for z in c.b],
    }
    return json.dumps(doc)
