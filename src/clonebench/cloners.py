"""Structured cloning machines and their common isometry form.

Factor ordering is fixed everywhere: copy A, copy B, then ancilla (for the
1->2 machines), or the n copies (for the symmetric 1->n machines).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .qlinalg import sym_basis

CONSTRAINT_TOL = 1e-8
MAX_STRUCTURED_ANCILLA_DIM = 4

SQRT2 = math.sqrt(2.0)


class InvalidMachineError(ValueError):
    """The machine violates its normalization/orthogonality constraints."""


@dataclass(frozen=True)
class EconomicCloner:
    """Ancilla-free 1->2 machine: |00> -> a..d column, |10> -> e..h column
    over the two-copy basis {|00>, |01>, |10>, |11>}."""

    a: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0
    e: complex = 0.0
    f: complex = 0.0
    g: complex = 0.0
    h: complex = 0.0

    def columns(self) -> np.ndarray:
        return np.array(
            [[self.a, self.e], [self.b, self.f], [self.c, self.g], [self.d, self.h]],
            dtype=complex,
        )


def _unit_ket(vec, dim: int) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"ancilla ket has dimension {v.shape[0]}, expected {dim}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("ancilla kets must be unit vectors")
    return v


@dataclass(frozen=True)
class AncillaCloner:
    """1->2 machine with an ancilla register.

    Each output term carries its own ancilla ket: the |00> -> column is
    a|00>|A> + b|01>|B> + c|10>|C> + d|11>|D>, and likewise e..h with kets
    E..H for the |10> -> column.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    g: complex
    h: complex
    kets: tuple[np.ndarray, ...]  # (A, B, C, D, E, F, G, H)
    ancilla_dim: int = 2

    def __post_init__(self):
        if not 1 <= self.ancilla_dim <= MAX_STRUCTURED_ANCILLA_DIM:
            raise ValueError(f"ancilla_dim={self.ancilla_dim} outside 1..{MAX_STRUCTURED_ANCILLA_DIM}")
        if len(self.kets) != 8:
            raise ValueError("expected 8 ancilla kets (A..H)")
        kets = tuple(_unit_ket(k, self.ancilla_dim) for k in self.kets)
        object.__setattr__(self, "kets", kets)

    def columns(self) -> np.ndarray:
        coeffs = (self.a, self.b, self.c, self.d, self.e, self.f, self.g, self.h)
        cols = np.zeros((4 * self.ancilla_dim, 2), dtype=complex)
        for k in range(8):
            col, slot = divmod(k, 4)
            cols[slot * self.ancilla_dim : (slot + 1) * self.ancilla_dim, col] += (
                complex(coeffs[k]) * self.kets[k]
            )
        return cols


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


Cloner = Union[EconomicCloner, AncillaCloner, SymmetricNCloner]


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


def constraint_check(c: Cloner) -> ConstraintReport:
    cols = c.columns()
    return ConstraintReport(
        norm0=float(abs(np.linalg.norm(cols[:, 0]) ** 2 - 1.0)),
        norm1=float(abs(np.linalg.norm(cols[:, 1]) ** 2 - 1.0)),
        overlap=float(abs(np.vdot(cols[:, 0], cols[:, 1]))),
    )


def to_isometry(c: Cloner) -> CloneIsometry:
    """Expand a structured machine into its full-space isometry."""
    report = constraint_check(c)
    if not report.passed:
        raise InvalidMachineError(f"constraint residuals too large: {report.as_dict()}")
    if isinstance(c, SymmetricNCloner):
        return CloneIsometry(sym_basis(c.n) @ c.columns(), copies=c.n, ancilla_dim=1)
    if isinstance(c, AncillaCloner):
        return CloneIsometry(c.columns(), copies=2, ancilla_dim=c.ancilla_dim)
    return CloneIsometry(c.columns(), copies=2, ancilla_dim=1)


# ---------------------------------------------------------------------------
# canonical machines


def economic_pqcm() -> EconomicCloner:
    """The ancilla-free phase-covariant cloner: |00> -> |00>,
    |10> -> (|01> + |10>)/sqrt(2)."""
    return EconomicCloner(a=1.0, f=1.0 / SQRT2, g=1.0 / SQRT2)


def ancilla_pqcm(a_mod: float) -> AncillaCloner:
    """One-parameter family of phase-covariant cloners with a qubit ancilla.

    |a| = a_mod fixes the rest through |f| = |a|/sqrt(2), |h| = sqrt(2)|b|
    and 2|b|^2 + 2|f|^2 = 1. Every member clones the equator at fidelity
    1/2 + sqrt(2)/4; a_mod = 1/sqrt(2) gives a = h = 1/sqrt(2), b = f = 1/2.
    """
    if not 0.0 <= a_mod <= 1.0:
        raise ValueError(f"a_mod={a_mod} outside [0, 1]")
    a = float(a_mod)
    f = a / SQRT2
    b = math.sqrt(max(0.0, (1.0 - a * a) / 2.0))
    h = SQRT2 * b
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    # A = F = G = |0>, B = C = H = |1>; D, E are unused (zero coefficient)
    kets = (ket0, ket1, ket1, ket0, ket0, ket0, ket0, ket1)
    return AncillaCloner(a=a, b=b, c=b, d=0.0, e=0.0, f=f, g=f, h=h, kets=kets, ancilla_dim=2)


def uqcm() -> AncillaCloner:
    """The universal 1->2 cloner: |a| = |h| = sqrt(2/3), |b| = |f| = sqrt(1/6),
    ancilla kets A = F = |0>, B = H = |1>."""
    a = math.sqrt(2.0 / 3.0)
    b = math.sqrt(1.0 / 6.0)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    kets = (ket0, ket1, ket1, ket0, ket0, ket0, ket0, ket1)
    return AncillaCloner(a=a, b=b, c=b, d=0.0, e=0.0, f=b, g=b, h=a, kets=kets, ancilla_dim=2)


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


def _pair2c(p) -> complex:
    return complex(p[0], p[1])


def machine_to_json(c: Cloner) -> str:
    if isinstance(c, EconomicCloner):
        doc = {
            "kind": "economic",
            "coefficients": [_c2pair(z) for z in (c.a, c.b, c.c, c.d, c.e, c.f, c.g, c.h)],
        }
    elif isinstance(c, AncillaCloner):
        doc = {
            "kind": "ancilla",
            "coefficients": [_c2pair(z) for z in (c.a, c.b, c.c, c.d, c.e, c.f, c.g, c.h)],
            "ancilla_dim": c.ancilla_dim,
            "kets": [[_c2pair(z) for z in ket] for ket in c.kets],
        }
    elif isinstance(c, SymmetricNCloner):
        doc = {
            "kind": "symmetric_n",
            "n": c.n,
            "a": [_c2pair(z) for z in c.a],
            "b": [_c2pair(z) for z in c.b],
        }
    else:
        raise TypeError(f"not a structured machine: {type(c)!r}")
    return json.dumps(doc)


def machine_from_json(text: str) -> Cloner:
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "economic":
        coeffs = [_pair2c(p) for p in doc["coefficients"]]
        return EconomicCloner(*coeffs)
    if kind == "ancilla":
        coeffs = [_pair2c(p) for p in doc["coefficients"]]
        kets = tuple(np.array([_pair2c(p) for p in ket], dtype=complex) for ket in doc["kets"])
        return AncillaCloner(*coeffs, kets=kets, ancilla_dim=doc["ancilla_dim"])
    if kind == "symmetric_n":
        return SymmetricNCloner(
            n=doc["n"],
            a=tuple(_pair2c(p) for p in doc["a"]),
            b=tuple(_pair2c(p) for p in doc["b"]),
        )
    raise ValueError(f"unknown machine kind {kind!r}")
