"""Copy fidelities, the trigonometric fidelity decomposition, and the 1->n
closed form.

For an equatorial input (|0> + e^{i phi}|1>)/sqrt(2) the single-copy fidelity
of any 1->2 machine is a second-order trigonometric polynomial in phi,

    F(phi) = lambda1 cos(2 phi + psi1) + lambda2 cos(phi + psi2) + lambda3,

and the lambdas are simple bilinear combinations of the machine coefficients.
The ground truth is `copy_fidelity`: the overlap of the input with the
reduced density matrix of the output ket V|psi> on one copy. The coefficient
formulas and the 1->n closed form are verified against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .cloners import (
    AncillaCloner,
    CloneIsometry,
    EconomicCloner,
    InvalidMachineError,
    SymmetricNCloner,
    constraint_check,
)
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


def _ancilla_view(c: Union[EconomicCloner, AncillaCloner], copy: int):
    """Coefficients and ancilla kets (a..h, A..H) for the requested copy.

    The copy-B fidelity comes from the copy-A formulas with b<->c and f<->g
    interchanged (with their kets).
    """
    one = np.ones(1, dtype=complex)
    if isinstance(c, EconomicCloner):
        coeffs = [c.a, c.b, c.c, c.d, c.e, c.f, c.g, c.h]
        kets = [one] * 8
    else:
        coeffs = [c.a, c.b, c.c, c.d, c.e, c.f, c.g, c.h]
        kets = list(c.kets)
    if copy == 1:
        for i, j in ((1, 2), (5, 6)):
            coeffs[i], coeffs[j] = coeffs[j], coeffs[i]
            kets[i], kets[j] = kets[j], kets[i]
    elif copy != 0:
        raise IndexError(f"copy index {copy} out of range for 2 copies")
    return coeffs, kets


def decompose_equatorial(c: Union[EconomicCloner, AncillaCloner], copy: int = 0) -> FidelityDecomposition:
    """lambda/psi record of the equatorial fidelity of a 1->2 machine."""
    report = constraint_check(c)
    if not report.passed:
        raise InvalidMachineError(f"constraint residuals too large: {report.as_dict()}")
    (a, b, cc, d, e, f, g, h), (A, B, C, D, E, F, G, H) = _ancilla_view(c, copy)
    ov = np.vdot  # ov(X, Y) = <X|Y>
    z2 = 0.5 * (e * np.conj(cc) * ov(C, E) + f * np.conj(d) * ov(D, F))
    z1 = 0.5 * (
        a * np.conj(cc) * ov(C, A)
        + e * np.conj(g) * ov(G, E)
        + b * np.conj(d) * ov(D, B)
        + f * np.conj(h) * ov(H, F)
    )
    lam3 = 0.5 + 0.5 * float(np.real(a * np.conj(g) * ov(G, A) + b * np.conj(h) * ov(H, B)))
    lam1, psi1, ok1 = _polar(complex(z2))
    lam2, psi2, ok2 = _polar(complex(z1))
    return FidelityDecomposition(lam1, lam2, lam3, psi1, psi2, ok1, ok2)


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
