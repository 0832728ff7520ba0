"""Numerical search for the best cloning machine on a finite input set.

One search serves 1->2 and 1->n: `optimize` finds the best 1->copies machine
for an input set, and `optimize_n` is that search on the 120-degree trio
inside the symmetric subspace.

Constraints are handled by construction: raw real parameters are read as two
complex output columns, Gram-Schmidt orthonormalized, and (optionally)
embedded from the symmetric subspace, so every iterate is a valid isometry.

Every copy fidelity is a Hermitian form in the two columns (Fiurasek, PRA 64,
062310, 2001). With y the real and imaginary parts of the stacked columns,
F_n = y^T R_n y for a real symmetric stack R built once per input set, one
form per (copy, state). One evaluation (`_search_objective`) is fused real
arithmetic on the raw parameters read as a 4 x d matrix X: the Gram matrix
of X gives the scalars of the Gram-Schmidt map M, the columns are Y = M X,
the fidelities are one stacked product R y, and the gradient G = 2 sum w_n
R_n y pulls back as M^T G + K X, with K a 4 x 4 matrix of scalars. That is
about 30 numpy calls on 4 x d arrays, and `_columns_from_params` builds the
reported machine through the same Gram-Schmidt. Local descent is BFGS
(`_descend`) with independent random restarts; the hard min objective is
smoothed with a log-sum-exp during the search, and the exact objective is
re-evaluated for reporting.

A search is set by OptimizationConfig: restarts, the exploration tolerance,
the objective mode, the parameterization (symmetric, ancilla_dim, copies) and
the seed. A descent stops when one step lowers the smoothed objective by at
most tol relative to its size, or when its gradient vanishes; the winner is
then polished with tolerances near machine precision, for max-min through
the softmin sharpnesses POLISH_SHARPNESS in turn. No search sets an
iteration cap: descents stop on the tolerance, far inside MAX_ITERS.

The searches call the module attribute `minimize`, bound to `_descend`, so a
caller can wrap every local descent in one place.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cloners import CloneIsometry
from .qlinalg import DegenerateColumnsError, sym_basis
from .states import TWO_PI, BlochPoint, InputSet, equatorial_trio

SMOOTH_SHARPNESS = 500.0  # log-sum-exp softening of the hard min
POLISH_SHARPNESS = (5e2, 5e3, 5e4, 5e5, 5e6, 5e7)  # the max-min polish stages
PENALTY_WEIGHT = 100.0  # weight of the fidelity variance in equal_fidelity_penalty
MAX_ITERS = 15000  # descent iteration cap, scipy L-BFGS-B's default
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking line search
MIN_STEP = 1e-20  # a line search whose step falls below this has failed


class _Descent(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def _descend(fun, x0, ftol: float = 1e-6, gtol: float = 1e-5) -> _Descent:
    """Minimize `fun`, which returns (value, gradient), by BFGS from x0
    (Nocedal & Wright, Numerical Optimization, 2006: Alg. 6.1 with the
    backtracking of Alg. 3.1).

    A dense inverse Hessian H starts as (s.y / y.y) I after the first accepted
    step, which goes along -g/|g|; an update whose curvature s.y is at most
    1e-12 y.y is skipped, and steepest descent replaces -Hg when that is not
    a descent direction. Each step backtracks from t = 1 to the Armijo
    condition, by quadratic interpolation clamped to [0.1 t, 0.5 t], or by
    halving where the value is not finite or where the step rounds away, so
    that x + t p == x is never taken for a step. The descent stops with success
    when max|g| <= gtol or when one step lowers the value by at most
    ftol * max(|f_k|, |f_k+1|, 1), the two tests of scipy's L-BFGS-B; it fails
    when the start value is not finite or the step falls below MIN_STEP.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev = 1
    if not math.isfinite(f):
        return _Descent(x, f, 0, nfev, False)
    h = None
    for nit in range(MAX_ITERS):
        if np.abs(g).max() <= gtol:
            return _Descent(x, f, nit, nfev, True)
        if h is None:
            p = g / -math.sqrt(g.dot(g))
        else:
            p = -h.dot(g)
        slope = g.dot(p)
        if not slope < 0.0:
            p = -g
            slope = -g.dot(g)
        t = 1.0
        while True:
            x_new = x + t * p
            f_new, g_new = fun(x_new)
            nfev += 1
            if not math.isfinite(f_new):
                t *= 0.5
            elif f_new <= f + ARMIJO_C1 * t * slope:
                # the test passes also when x_new rounds to x; that is no step
                s = x_new - x
                if f_new < f or (f_new == f and s.any()):
                    break
                t *= 0.5
            else:
                # minimizer of the parabola through f, slope and f_new
                t_min = -slope * t * t / (2.0 * (f_new - f - slope * t))
                t = min(max(t_min, 0.1 * t), 0.5 * t)
            if t < MIN_STEP:
                return _Descent(x, f, nit, nfev, False)
        y = g_new - g
        decrease = f - f_new
        x, g = x_new, g_new
        if decrease <= ftol * max(abs(f), abs(f_new), 1.0):
            return _Descent(x, f_new, nit + 1, nfev, True)
        f = f_new
        sy = s.dot(y)
        yy = y.dot(y)
        if sy > 1e-12 * yy:
            if h is None:
                h = np.eye(x.size) * (sy / yy)
            hy = h.dot(y)
            rho = 1.0 / sy
            # the rank-2 update as A + A^T, so h stays exactly symmetric
            half = s[:, None] * ((0.5 * rho * (rho * y.dot(hy) + 1.0)) * s - rho * hy)
            h += half + half.T
    return _Descent(x, f, MAX_ITERS, nfev, False)


minimize = _descend


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 200
    tol: float = 1e-6  # objective-improvement tolerance of the exploration restarts
    mode: str = "max_min"  # or "equal_fidelity_penalty"
    symmetric: bool = False
    ancilla_dim: int = 1  # 1 is the economic (ancilla-free) machine
    copies: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("max_min", "equal_fidelity_penalty"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.ancilla_dim < 1:
            raise ValueError("ancilla_dim must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        # NaN fails the comparison too
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol {self.tol} must be finite and > 0")


@dataclass(frozen=True)
class OptimizationResult:
    best: CloneIsometry
    per_state_fidelities: tuple[tuple[int, int, float], ...]  # (state, copy, F)
    objective: float
    spread: float
    restarts_hitting_best: int
    seed: int
    raw_params: tuple[float, ...] | None = None  # raw search coordinates of `best`


def _coinciding(i, j):
    """Whether scan cell (i, j), the trio of phase indices {0, i, j}, has two
    coinciding states, so that its `_orbit_key` has a zero gap. Works
    elementwise on index arrays too."""
    return (i == 0) | (j == 0) | (i == j)


@dataclass
class ScanGrid:
    resolution: int
    fidelity: np.ndarray  # (resolution, resolution), row index = phi2

    @property
    def degenerate_mask(self) -> np.ndarray:
        return _coinciding(*np.indices(self.fidelity.shape))

    def minimum_cells(self, slack: float = 1e-6) -> list[tuple[int, int]]:
        """Indices of non-degenerate cells within `slack` of the global minimum."""
        ok = ~self.degenerate_mask
        vmin = self.fidelity[ok].min()
        cells = np.argwhere(ok & (self.fidelity <= vmin + slack))
        return [tuple(map(int, ij)) for ij in cells]


def scan_csv(resolution: int, cells: Iterable[tuple[int, int, float]]) -> str:
    """CSV text of scan cells given as (i, j, fidelity), in the order given;
    phase index k is k * 360 / resolution degrees."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi2_deg", "phi3_deg", "fidelity", "degenerate"])
    for i, j, fidelity in cells:
        p2, p3 = i * 360.0 / resolution, j * 360.0 / resolution
        degenerate = "true" if _coinciding(i, j) else "false"
        writer.writerow([f"{p2:.6f}", f"{p3:.6f}", f"{fidelity:.12f}", degenerate])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# parameterization


def _sym_embedding(copies: int, ancilla_dim: int) -> np.ndarray:
    """Isometric embedding of (symmetric subspace x ancilla) into the full
    output space, with the copies as leading factors."""
    s = sym_basis(copies)  # 2^copies x (copies + 1)
    if ancilla_dim == 1:
        return s
    return np.kron(s, np.eye(ancilla_dim))


def _rows4(*entries: float) -> np.ndarray:
    """The 4-row matrix with these entries in row-major order."""
    return np.array(entries).reshape(4, -1)


def _gram_schmidt(x: np.ndarray, d: int):
    """Gram-Schmidt on the two raw columns, in real arithmetic.

    x is read as the 4 x d matrix X with rows Re c0, Re c1, Im c0, Im c1. The
    orthonormal columns q0 = c0 / n0 and q1 = (c1 - gamma c0) / n1, with
    gamma = c0^dag c1 / |c0|^2 = a + ib, come back in the same layout as
    Y = M X, where M is the 4 x 4 real matrix of (n0, n1, a, b). The second
    column is orthogonalized in two passes, each from the Gram matrix of its
    own input, so q1 stays orthogonal to q0 for nearly parallel raw columns
    and n1 never comes from the cancelling |c1|^2 - |c0^dag c1|^2 / |c0|^2.
    Returns X, Y, n0, n1, a and b.

    The small products use ndarray.dot, which costs a third of `@` here.
    """
    xm = x.reshape(4, d)
    (g00, g01, _, g03), (_, _, g12, _), (_, _, g22, g23), _ = xm.dot(xm.T).tolist()
    nn0 = g00 + g22
    if nn0 <= 1e-20:
        raise DegenerateColumnsError("first raw column is numerically zero")
    a = (g01 + g23) / nn0
    b = (g03 - g12) / nn0
    # rows c0 and w = c1 - gamma c0; the second pass repeats this step on w
    w = _rows4(
        1.0, 0.0, 0.0, 0.0,
        -a, 1.0, b, 0.0,
        0.0, 0.0, 1.0, 0.0,
        -b, 0.0, -a, 1.0,
    ).dot(xm)  # fmt: skip
    (_, h01, _, h03), (_, h11, h12, _), (_, _, _, h23), (_, _, _, h33) = w.dot(w.T).tolist()
    a2 = (h01 + h23) / nn0
    b2 = (h03 - h12) / nn0
    # |w|^2 minus its part along c0, which the first pass left tiny
    nn1 = h11 + h33 - (a2 * a2 + b2 * b2) * nn0
    if nn1 <= 1e-20:
        raise DegenerateColumnsError("raw columns are numerically parallel")
    n0 = math.sqrt(nn0)
    n1 = math.sqrt(nn1)
    r0, r1 = 1.0 / n0, 1.0 / n1
    ym = _rows4(
        r0, 0.0, 0.0, 0.0,
        -a2 * r1, r1, b2 * r1, 0.0,
        0.0, 0.0, r0, 0.0,
        -b2 * r1, 0.0, -a2 * r1, r1,
    ).dot(w)  # fmt: skip
    return xm, ym, n0, n1, a + a2, b + b2


def _columns_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """Two orthonormal complex columns (d x 2) from 4*d raw reals."""
    x = np.asarray(params, dtype=float)
    if x.size != 4 * d:
        raise ValueError(f"expected {4 * d} parameters, got {x.size}")
    y = _gram_schmidt(x, d)[1]
    return (y[:2] + 1j * y[2:]).T


# ---------------------------------------------------------------------------
# fidelity kernel: each fidelity is a real quadratic form in the columns


def _real_forms(h: np.ndarray) -> np.ndarray:
    """Real symmetric forms R with y^T R y = v^dag H v for a Hermitian stack H."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _copy_forms(
    psis: np.ndarray, embed: np.ndarray, copies: int, ancilla_dim: int
) -> np.ndarray:
    """Forms of the copy fidelities of the 1->copies machine embed @ q on the
    states in the columns of psis: copy 0 of every state, then copy 1, and so
    on."""
    d = embed.shape[1]
    factors = embed.reshape([2] * copies + [ancilla_dim, d])
    hs = []
    for copy in range(copies):
        for psi in psis.T:
            pp = np.outer(psi, psi.conj())
            # the projector on this copy's factor, applied without forming it
            proj_embed = np.moveaxis(np.tensordot(pp, factors, axes=(1, copy)), 0, copy)
            # the output on psi is embed @ q @ psi, and q @ psi = (psi^T x I) v
            hs.append(np.kron(pp.conj(), embed.conj().T @ proj_embed.reshape(-1, d)))
    return _real_forms(np.array(hs))


def _fidelities(forms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fidelities of the columns q, through y = [Re q0, Re q1, Im q0, Im q1]."""
    y = np.concatenate([q.T.real, q.T.imag]).ravel()
    return (forms @ y) @ y


def _exact_objective(fids: np.ndarray, mode: str) -> float:
    if mode == "max_min":
        return float(fids.min())
    return float(fids.mean() - PENALTY_WEIGHT * fids.var())


def _search_objective(
    x: np.ndarray, forms: np.ndarray, d: int, mode: str, sharpness: float = SMOOTH_SHARPNESS
):
    """The search's objective at raw parameters x: the negated smoothed
    objective and its gradient, or (inf, zeros) for a degenerate draw.

    max-min is smoothed by the log-sum-exp softmin of the given sharpness;
    equal-fidelity-penalty needs no smoothing. With F_n = y^T R_n y, the
    gradient in y is G = 2 sum_n w_n R_n y for the objective's weights w.
    Read as 4 x d, like X and Y = M X, it pulls back to X as M^T G + K X: the
    first term holds M fixed, and the symmetric 4 x 4 K carries the change of
    (n0, n1, gamma) through the Gram matrix of X.
    """
    try:
        xm, ym, n0, n1, a, b = _gram_schmidt(x, d)
    except DegenerateColumnsError:
        return math.inf, np.zeros_like(x)
    y = ym.ravel()
    ry = forms @ y
    fids = ry.dot(y)
    if mode == "max_min":
        lo = fids.min()
        e = np.exp((lo - fids) * sharpness)
        total = e.sum()
        value = lo - math.log(total) / sharpness
        gy = e.dot(ry) * (-2.0 / total)
    else:
        mean = fids.sum() / fids.size
        dev = fids - mean
        value = mean - PENALTY_WEIGHT * dev.dot(dev) / fids.size
        gy = (1.0 - 2.0 * PENALTY_WEIGHT * dev).dot(ry) * (-2.0 / fids.size)
    # Re and Im of g_k^dag q_j, with g_0, g_1 the gradient's complex columns
    (p00, _, _, _), (p10, p11, p12, _), (_, _, p22, _), (p30, _, p32, p33) = (
        gy.reshape(4, d).dot(ym.T).tolist()
    )
    # the value's derivatives in n0, n1 and gamma (tr + i ti is the one in gamma)
    d_n0 = -(p00 + p22) / n0
    d_n1 = -(p11 + p33) / n1
    tr = -n0 * (p10 + p32) / n1
    ti = -n0 * (p12 - p30) / n1
    nn0 = n0 * n0
    r0, r1 = 1.0 / n0, 1.0 / n1
    k11 = d_n1 * r1
    k00 = d_n0 * r0 - 2.0 * (tr * a - ti * b) / nn0 + k11 * (a * a + b * b)
    k01 = tr / nn0 - k11 * a
    k03 = -ti / nn0 - k11 * b
    # [M^T | K] @ [G; X] in one product
    mk = _rows4(
        r0, -a * r1, 0.0, -b * r1,  k00, k01, 0.0, k03,
        0.0, r1, 0.0, 0.0,  k01, k11, -k03, 0.0,
        0.0, b * r1, r0, -a * r1,  0.0, -k03, k00, k01,
        0.0, 0.0, 0.0, r1,  k03, 0.0, k01, k11,
    )  # fmt: skip
    return -value, mk.dot(np.concatenate((gy, x)).reshape(8, d)).ravel()


# ---------------------------------------------------------------------------
# search


def optimize(
    input_set: InputSet,
    cfg: OptimizationConfig,
    _stream: tuple[int, ...] | None = None,
    _extra_starts: Sequence[np.ndarray] = (),
) -> OptimizationResult:
    """Best 1->cfg.copies machine found for the set over random-restart BFGS.

    The starts are _extra_starts, then cfg.restarts normal draws, draw r from
    the stream (*_stream, r) with _stream defaulting to (cfg.seed,). Each start
    gets one descent on the smoothed objective; a degenerate draw evaluates to
    +inf and is dropped. A start wins when its exact objective beats the best
    so far by more than 1e-9, so of tied starts the first wins. The winner is
    polished: one more descent, or for max-min one per stage of
    POLISH_SHARPNESS.
    """
    copies = cfg.copies
    psis = np.column_stack(input_set.states())
    if cfg.symmetric:
        embed = _sym_embedding(copies, cfg.ancilla_dim)
    else:
        embed = np.eye(2**copies * cfg.ancilla_dim)
    d = embed.shape[1]
    forms = _copy_forms(psis, embed, copies, cfg.ancilla_dim)
    neg_smooth = functools.partial(_search_objective, forms=forms, d=d, mode=cfg.mode)

    def exact(x):
        return _exact_objective(_fidelities(forms, _columns_from_params(x, d)), cfg.mode)

    stream = (cfg.seed,) if _stream is None else _stream
    starts = [np.asarray(x0, dtype=float) for x0 in _extra_starts]
    for r in range(cfg.restarts):
        starts.append(np.random.default_rng([*stream, r]).standard_normal(4 * d))
    best_x = None
    best_val = -math.inf
    values = []
    for x0 in starts:
        # exploration restarts only need to identify the best basin; the
        # winner is polished to full precision afterwards
        res = minimize(neg_smooth, x0, ftol=cfg.tol)
        if not math.isfinite(res.fun):
            continue
        val = exact(res.x)
        values.append(val)
        if val > best_val + 1e-9:
            best_x, best_val = res.x, val
    if best_x is None:
        raise RuntimeError("all restarts failed (degenerate parameter draws)")
    # restarts whose exploration value reached the winning basin
    hits = sum(1 for v in values if v >= best_val - 1e-4)
    # max-min polishes through ever sharper softmins, each stage from the
    # last: a softmin's maximizer keeps a spread of order 1 / sharpness, and
    # so a value below the optimum, wherever the optimal multipliers on the
    # fidelities are unequal
    x = best_x
    for sharpness in POLISH_SHARPNESS if cfg.mode == "max_min" else (SMOOTH_SHARPNESS,):
        x = minimize(functools.partial(neg_smooth, sharpness=sharpness), x, ftol=1e-15, gtol=1e-12).x
        val = exact(x)
        if val >= best_val:
            best_x, best_val = x, val
    q = _columns_from_params(best_x, d)
    fids = _fidelities(forms, q).reshape(copies, -1)
    per_state = tuple(
        (s, k, float(fids[k, s])) for s in range(len(input_set)) for k in range(copies)
    )
    return OptimizationResult(
        best=CloneIsometry(embed @ q, copies=copies, ancilla_dim=cfg.ancilla_dim),
        per_state_fidelities=per_state,
        objective=_exact_objective(fids, cfg.mode),
        spread=float(fids.max() - fids.min()),
        restarts_hitting_best=hits,
        seed=cfg.seed,
        raw_params=tuple(float(v) for v in best_x),
    )


# ---------------------------------------------------------------------------
# contour scan over trio phases


# the per-orbit search of the scan: the equal-fidelity/symmetric conditions with
# a cheap restart schedule (warm starts from the orbits solved just before
# cover the rest)
SCAN_CONFIG = OptimizationConfig(restarts=6, tol=1e-3, mode="equal_fidelity_penalty", symmetric=True)


def _orbit_key(i: int, j: int, resolution: int) -> tuple[int, ...]:
    """Sorted arc gaps of the phase indices {0, i, j} on the resolution-point
    circle. Cells share a key exactly when they are images of each other under
    swapping phi2 and phi3, relabeling the reference state, and complex
    conjugation, all of which leave the best objective unchanged."""
    a, b = sorted((i, j))
    return tuple(sorted((a, b - a, resolution - b)))


def scan_equator(resolution: int, seed: int = 0, progress=None) -> ScanGrid:
    """Grid of best objectives for trios {0, phi2, phi3} over a square grid
    of phases in [0, 360) degrees.

    One search runs per orbit of the trio-phase symmetry group, at its first
    cell in row-major order; every other cell of the orbit copies that value,
    so the grid is exactly symmetric. Each search is SCAN_CONFIG with this
    seed, on its own pseudo-random stream keyed on (seed, index) of the
    orbit's first cell. `progress(i, j, value)` still fires once per cell in
    row-major order."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    cfg = replace(SCAN_CONFIG, seed=seed)
    phis = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    grid = np.zeros((resolution, resolution))
    solved: dict[tuple[int, ...], float] = {}
    warm: list[np.ndarray] = []  # raw parameters of the last two orbits solved
    for i, p2 in enumerate(phis):
        for j, p3 in enumerate(phis):
            key = _orbit_key(i, j, resolution)
            if key not in solved:
                pts = tuple(BlochPoint(math.pi / 2.0, p) for p in (0.0, p2, p3))
                trio = InputSet(f"trio({math.degrees(p2):.1f},{math.degrees(p3):.1f})", pts)
                res = optimize(trio, cfg, _stream=(seed, i * resolution + j), _extra_starts=warm)
                solved[key] = res.objective
                warm = [np.asarray(res.raw_params), *warm[:1]]
            grid[i, j] = solved[key]
            if progress is not None:
                progress(i, j, grid[i, j])
    return ScanGrid(resolution=resolution, fidelity=grid)


# ---------------------------------------------------------------------------
# 1 -> n over the 120-degree trio


def optimize_n(cfg: OptimizationConfig) -> OptimizationResult:
    """Best economic symmetric 1->n machine for the 120-degree trio: the
    `optimize` search with n = cfg.copies copies inside the symmetric
    subspace."""
    n = cfg.copies
    if not 2 <= n <= 8:
        raise ValueError(f"copies={n} outside 2..8")
    return optimize(equatorial_trio(), replace(cfg, symmetric=True, ancilla_dim=1))
