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
from typing import Iterable, Sequence

import numpy as np

from .cloners import CloneIsometry, InvalidMachineError, constraint_check, symmetric_coefficients
from .qlinalg import partial_trace
from .states import TWO_PI, BlochPoint, bloch_to_state

PSI_UNDEFINED_BELOW = 1e-12  # lambda under this: the phase angle is meaningless


def copy_fidelity(v: CloneIsometry, points: Sequence[BlochPoint], copies: Iterable[int]) -> np.ndarray:
    """Overlaps <psi| rho_copy |psi> between each input and each listed
    copy's reduced state, traced down from the output ket V|psi>: a
    (len(points), len(copies)) table from one product for all the output
    kets and one stacked partial trace per copy."""
    copies = list(copies)
    for copy in copies:
        if not 0 <= copy < v.copies:
            raise IndexError(f"copy index {copy} out of range for {v.copies} copies")
    psis = np.array([bloch_to_state(p) for p in points])
    out = psis @ v.matrix.T
    rho = np.array([partial_trace(out, v.output_dims, copy) for copy in copies])
    return (psis.conj()[:, None, :] @ rho @ psis[:, :, None])[..., 0, 0].real.T


def _polar(z: complex) -> tuple[float, float, bool]:
    mag = abs(z)
    if mag < PSI_UNDEFINED_BELOW:
        return mag, 0.0, False
    return mag, cmath.phase(z) % TWO_PI, True


def decompose_equatorial(v: CloneIsometry) -> list[dict]:
    """The lambda/psi document of each copy's equatorial fidelity, in copy
    order: F at five equally spaced phases has DFT coefficients c_k, and
    lambda1 = 2|c_2|, lambda2 = 2|c_1|, lambda3 = c_0, psi1 = arg c_2,
    psi2 = arg c_1. A psi angle is zeroed, and flagged undefined, when its
    lambda vanishes, since arg(0) is meaningless."""
    report = constraint_check(v.matrix)
    if not report["passed"]:
        raise InvalidMachineError(f"constraint residuals too large: {report}")
    phis = np.arange(5) * (TWO_PI / 5.0)
    f = copy_fidelity(v, [BlochPoint(math.pi / 2.0, p) for p in phis], range(v.copies))
    records = []
    for c0, c1, c2 in (np.exp(-1j * np.outer(np.arange(3), phis)) @ f / 5.0).T.tolist():
        lam1, psi1, ok1 = _polar(2.0 * c2)
        lam2, psi2, ok2 = _polar(2.0 * c1)
        records.append({
            "lambda1": lam1, "lambda2": lam2, "lambda3": c0.real, "psi1": psi1, "psi2": psi2,
            "psi1_defined": ok1, "psi2_defined": ok2,
        })  # fmt: skip
    return records


# ---------------------------------------------------------------------------
# 1 -> n


def n_clone_fidelity(v: CloneIsometry, phi: float | np.ndarray) -> np.ndarray | float:
    """Closed-form single-copy fidelity of a symmetric 1->n machine on the
    equatorial input at phase phi (a float or an array of phases), from its
    (a_i, b_i) coefficients: 1/2 + 1/2 Re(c0 + c1 e^{i phi} + c2 e^{2 i phi})
    with weights w_i = sqrt((n - i)(i + 1)) / n. Reading the coefficients
    builds sym_basis(n) and checks V = S c over all 2^n rows."""
    n = v.copies
    a, b = symmetric_coefficients(v).T
    i = np.arange(n)
    w = np.sqrt((n - i) * (i + 1)) / n
    c0 = w @ (a[:-1] * b[1:].conj())
    c1 = w @ (a[:-1] * a[1:].conj() + b[:-1] * b[1:].conj())
    c2 = w @ (a[1:].conj() * b[:-1])
    eip = np.exp(1j * np.asarray(phi, dtype=float))
    val = 0.5 + 0.5 * np.real(c0 + c1 * eip + c2 * eip * eip)
    return float(val) if val.ndim == 0 else val


def closed_form_bound(kind: str, n: int | None = None) -> float:
    """Optimal-fidelity constants: universal 1->2 and the parity-dependent
    phase-covariant 1->n bound."""
    if kind == "universal_1to2":
        return 5.0 / 6.0
    if kind == "phase_1ton":
        if n is None or n < 1:
            raise ValueError("phase_1ton needs n >= 1")
        if n % 2 == 0:
            return 0.5 + math.sqrt(n * (n + 2)) / (4.0 * n)
        return 0.5 + (n + 1) / (4.0 * n)
    raise ValueError(f"unknown bound kind {kind!r}")
