"""Copy fidelities, the trigonometric fidelity decomposition, and the 1->n
closed form.

The ground truth is `copy_fidelity`: the overlap of the input with the
reduced density matrix of the output ket V|psi> on one copy. For an
equatorial input (|0> + e^{i phi}|1>)/sqrt(2) it is, for any machine, a
second-order trigonometric polynomial in phi,

    F(phi) = lambda1 cos(2 phi + psi1) + lambda2 cos(phi + psi2) + lambda3,

because the reduced state is quadratic in the input ket. Five equally spaced
phases therefore fix F exactly, and `decompose_equatorial` reads the lambdas
off a 5-point DFT of the oracle. The 1->n closed form is verified against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cloners import CloneIsometry, InvalidMachineError, SymmetricNCloner, constraint_check
from .qlinalg import partial_trace
from .states import TWO_PI, BlochPoint, bloch_to_state

PSI_UNDEFINED_BELOW = 1e-12  # lambda under this: the phase angle is meaningless

SQRT2 = math.sqrt(2.0)


def copy_fidelity(v: CloneIsometry, p: BlochPoint, copy: int = 0) -> float:
    """Overlap <psi| rho_copy |psi> between the input and one copy's reduced
    state, traced down from the output ket V|psi>."""
    if not 0 <= copy < v.copies:
        raise IndexError(f"copy index {copy} out of range for {v.copies} copies")
    psi = bloch_to_state(p)
    rho_c = partial_trace(v.matrix @ psi, v.output_dims, [copy])
    return float(np.real(psi.conj() @ rho_c @ psi))


@dataclass(frozen=True)
class FidelityDecomposition:
    """lambda/psi record of F(phi); psi angles are zeroed (and flagged) when
    the matching lambda vanishes, since arg(0) is meaningless."""

    lambda1: float
    lambda2: float
    lambda3: float
    psi1: float
    psi2: float
    psi1_defined: bool = True
    psi2_defined: bool = True

    def evaluate(self, phi) -> np.ndarray | float:
        phi = np.asarray(phi, dtype=float)
        val = (
            self.lambda1 * np.cos(2.0 * phi + self.psi1)
            + self.lambda2 * np.cos(phi + self.psi2)
            + self.lambda3
        )
        return float(val) if val.ndim == 0 else val


def _polar(z: complex) -> tuple[float, float, bool]:
    mag = abs(z)
    if mag < PSI_UNDEFINED_BELOW:
        return mag, 0.0, False
    return mag, cmath.phase(z) % TWO_PI, True


def decompose_equatorial(v: CloneIsometry, copy: int = 0) -> FidelityDecomposition:
    """lambda/psi record of one copy's equatorial fidelity: F at five equally
    spaced phases has DFT coefficients c_k, and lambda1 = 2|c_2|,
    lambda2 = 2|c_1|, lambda3 = c_0, psi1 = arg c_2, psi2 = arg c_1."""
    report = constraint_check(v.matrix)
    if not report.passed:
        raise InvalidMachineError(f"constraint residuals too large: {report.as_dict()}")
    phis = np.arange(5) * (TWO_PI / 5.0)
    f = np.array([copy_fidelity(v, BlochPoint(math.pi / 2.0, p), copy) for p in phis])
    c = np.exp(-1j * np.outer(np.arange(3), phis)) @ f / 5.0
    lam1, psi1, ok1 = _polar(complex(2.0 * c[2]))
    lam2, psi2, ok2 = _polar(complex(2.0 * c[1]))
    return FidelityDecomposition(lam1, lam2, float(c[0].real), psi1, psi2, ok1, ok2)


# ---------------------------------------------------------------------------
# 1 -> n


def n_clone_fidelity(c: SymmetricNCloner, phi: float) -> float:
    """Closed-form single-copy fidelity of a symmetric 1->n machine on the
    equatorial input at phase phi (no tensor expansion)."""
    n = c.n
    a = np.asarray(c.a)
    b = np.asarray(c.b)
    eip = cmath.exp(1j * phi)
    acc = 0.0 + 0.0j
    for i in range(n):
        w = math.sqrt((n - i) * (i + 1)) / n
        acc += w * (
            a[i] * np.conj(a[i + 1]) * eip
            + b[i] * np.conj(b[i + 1]) * eip
            + a[i] * np.conj(b[i + 1])
            + np.conj(a[i + 1]) * b[i] * eip * eip
        )
    return 0.5 + 0.5 * float(np.real(acc))


def closed_form_bound(kind: str, n: int | None = None) -> float:
    """Optimal-fidelity constants: phase-covariant 1->2, universal 1->2, and
    the parity-dependent phase-covariant 1->n bound."""
    if kind == "phase_1to2":
        return 0.5 + SQRT2 / 4.0
    if kind == "universal_1to2":
        return 5.0 / 6.0
    if kind == "phase_1ton":
        if n is None or n < 1:
            raise ValueError("phase_1ton needs n >= 1")
        if n % 2 == 0:
            return 0.5 + math.sqrt(n * (n + 2)) / (4.0 * n)
        return 0.5 + (n + 1) / (4.0 * n)
    raise ValueError(f"unknown bound kind {kind!r}")
