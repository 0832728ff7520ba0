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
form per (copy, state), so one evaluation is one stacked matrix product and
its gradient is 2 R_n y, pulled back through the Gram-Schmidt step. Local
descent is BFGS (`_descend`) with independent random restarts; the hard min
objective is smoothed with a log-sum-exp during the search and the exact
objective is re-evaluated for reporting.

A search is set by OptimizationConfig: restarts, the exploration tolerance,
the objective mode, the parameterization (symmetric, ancilla_dim, copies) and
the seed. A descent stops when one step lowers the smoothed objective by at
most tol relative to its size, or when its gradient vanishes; the winner is
then polished with tolerances near machine precision. No search sets an
iteration cap: descents stop on the tolerance, far inside MAX_ITERS.

The searches call the module attribute `minimize`, bound to `_descend`, so a
caller can wrap every local descent in one place.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cloners import CloneIsometry, SymmetricNCloner
from .qlinalg import DegenerateColumnsError, sym_basis
from .states import TWO_PI, BlochPoint, InputSet, equatorial_trio

SMOOTH_SHARPNESS = 500.0  # log-sum-exp softening of the hard min
PENALTY_WEIGHT = 100.0  # weight of the fidelity variance in equal_fidelity_penalty
DEGENERATE_OVERLAP = 1.0 - 1e-9  # two states this close count as coinciding
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
    halving where the value is not finite. The descent stops with success when
    max|g| <= gtol or when one step lowers the value by at most
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
            p = g / -math.sqrt(g @ g)
        else:
            p = -(h @ g)
        slope = g @ p
        if not slope < 0.0:
            p = -g
            slope = -(g @ g)
        t = 1.0
        while True:
            x_new = x + t * p
            f_new, g_new = fun(x_new)
            nfev += 1
            if not math.isfinite(f_new):
                t *= 0.5
            elif f_new <= f + ARMIJO_C1 * t * slope:
                break
            else:
                # minimizer of the parabola through f, slope and f_new
                t_min = -slope * t * t / (2.0 * (f_new - f - slope * t))
                t = min(max(t_min, 0.1 * t), 0.5 * t)
            if t < MIN_STEP:
                return _Descent(x, f, nit, nfev, False)
        s = x_new - x
        y = g_new - g
        decrease = f - f_new
        x, g = x_new, g_new
        if decrease <= ftol * max(abs(f), abs(f_new), 1.0):
            return _Descent(x, f_new, nit + 1, nfev, True)
        f = f_new
        sy = s @ y
        yy = y @ y
        if sy > 1e-12 * yy:
            if h is None:
                h = np.eye(x.size) * (sy / yy)
            hy = h @ y
            rho = 1.0 / sy
            shy = np.outer(s, hy)
            h += (rho * rho * (y @ hy) + rho) * np.outer(s, s) - rho * (shy + shy.T)
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
    machine: SymmetricNCloner | None = None  # populated by optimize_n
    raw_params: tuple[float, ...] | None = None  # raw search coordinates of `best`


@dataclass
class ScanGrid:
    resolution: int
    phi2_values: np.ndarray  # radians
    phi3_values: np.ndarray
    fidelity: np.ndarray  # (resolution, resolution), row index = phi2
    degenerate_mask: np.ndarray

    def minimum_cells(self, slack: float = 1e-6) -> list[tuple[int, int]]:
        """Indices of non-degenerate cells within `slack` of the global minimum."""
        ok = ~self.degenerate_mask
        vmin = self.fidelity[ok].min()
        cells = np.argwhere(ok & (self.fidelity <= vmin + slack))
        return [tuple(map(int, ij)) for ij in cells]

    def to_csv(self) -> str:
        return scan_csv(
            (math.degrees(p2), math.degrees(p3), self.fidelity[i, j], self.degenerate_mask[i, j])
            for i, p2 in enumerate(self.phi2_values)
            for j, p3 in enumerate(self.phi3_values)
        )


def scan_csv(rows: Iterable[tuple[float, float, float, bool]]) -> str:
    """CSV text of scan cells given as (phi2_deg, phi3_deg, fidelity, degenerate)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi2_deg", "phi3_deg", "fidelity", "degenerate"])
    for p2, p3, fidelity, degenerate in rows:
        writer.writerow(
            [f"{p2:.6f}", f"{p3:.6f}", f"{fidelity:.12f}", "true" if degenerate else "false"]
        )
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


def effective_dim(copies: int, symmetric: bool, ancilla_dim: int) -> int:
    base = copies + 1 if symmetric else 2**copies
    return base * ancilla_dim


def _columns_from_params(params: np.ndarray, d_eff: int) -> np.ndarray:
    """Two orthonormal complex columns from 4*d_eff raw reals (Gram-Schmidt,
    specialized to two columns)."""
    x = np.asarray(params, dtype=float)
    if x.size != 4 * d_eff:
        raise ValueError(f"expected {4 * d_eff} parameters, got {x.size}")
    z = x[: 2 * d_eff] + 1j * x[2 * d_eff :]
    c0 = z[:d_eff]
    c1 = z[d_eff:]
    n0 = math.sqrt(np.vdot(c0, c0).real)
    if n0 <= 1e-10:
        raise DegenerateColumnsError("first raw column is numerically zero")
    c0 = c0 / n0
    c1 = c1 - np.vdot(c0, c1) * c0
    c1 = c1 - np.vdot(c0, c1) * c0  # re-orthogonalization pass
    n1 = math.sqrt(np.vdot(c1, c1).real)
    if n1 <= 1e-10:
        raise DegenerateColumnsError("raw columns are numerically parallel")
    q = np.empty((d_eff, 2), dtype=complex)
    q[:, 0] = c0
    q[:, 1] = c1 / n1
    return q


def _columns_gradient(params: np.ndarray, q: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """Pull a gradient in the stacked columns (`_stack(q)` layout) back
    through `_columns_from_params` to the raw parameters."""
    d = q.shape[0]
    g = (grad_y[: 2 * d] + 1j * grad_y[2 * d :]).reshape(2, d)  # d/dRe + i d/dIm
    z = (params[: 2 * d] + 1j * params[2 * d :]).reshape(2, d)
    # forward: z0 = n0 q0 and z1 = alpha q0 + n1 q1
    r = q.conj().T @ z.T
    n0, alpha, n1 = r[0, 0].real, r[0, 1], r[1, 1].real
    q0, q1 = q.T
    g_w = (g[1] - q1 * np.vdot(q1, g[1]).real) / n1  # w = n1 q1 = z1 - alpha q0
    g_q0 = g[0] - alpha.conjugate() * g_w - np.vdot(g_w, q0) * z[1]
    g_z0 = (g_q0 - q0 * np.vdot(q0, g_q0).real) / n0
    g_z = np.concatenate([g_z0, g_w - q0 * np.vdot(q0, g_w)])
    return np.concatenate([g_z.real, g_z.imag])


def parameterize(
    params: np.ndarray,
    copies: int = 2,
    symmetric: bool = False,
    ancilla_dim: int = 1,
) -> CloneIsometry:
    """Turn unconstrained reals into a feasible CloneIsometry."""
    d_eff = effective_dim(copies, symmetric, ancilla_dim)
    q = _columns_from_params(params, d_eff)
    if symmetric:
        q = _sym_embedding(copies, ancilla_dim) @ q
    return CloneIsometry(q, copies=copies, ancilla_dim=ancilla_dim)


# ---------------------------------------------------------------------------
# fidelity kernel: each fidelity is a real quadratic form in the columns


def _stack(q: np.ndarray) -> np.ndarray:
    """Real coordinates y = [Re v; Im v] of the stacked columns v = [q0; q1]."""
    v = q.T.ravel()
    return np.concatenate([v.real, v.imag])


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
    y = _stack(q)
    return (forms @ y) @ y


def _exact_objective(fids: np.ndarray, mode: str) -> float:
    if mode == "max_min":
        return float(fids.min())
    return float(fids.mean() - PENALTY_WEIGHT * fids.var())


def _smooth_objective(fids: np.ndarray, mode: str):
    """Smoothed objective and its gradient in the fidelities."""
    if mode == "max_min":
        lo = fids.min()
        e = np.exp(-SMOOTH_SHARPNESS * (fids - lo))
        total = e.sum()
        return lo - math.log(total) / SMOOTH_SHARPNESS, e / total
    dev = fids - fids.mean()
    return (
        fids.mean() - PENALTY_WEIGHT * (dev @ dev) / fids.size,
        (1.0 - 2.0 * PENALTY_WEIGHT * dev) / fids.size,
    )


# ---------------------------------------------------------------------------
# search


def _run_restarts(
    forms: np.ndarray,
    d_eff: int,
    cfg: OptimizationConfig,
    stream: tuple[int, ...] | None = None,
    extra_starts: Sequence[np.ndarray] = (),
):
    """Shared multistart driver over the fidelity forms; returns (best_x, hits).

    Each start gets one descent on the smoothed objective, and the winner
    by exact objective one more to polish it. Degenerate draws
    evaluate to +inf and are dropped.
    """

    def neg_smooth(x):
        try:
            q = _columns_from_params(x, d_eff)
        except DegenerateColumnsError:
            return math.inf, np.zeros_like(x)
        y = _stack(q)
        ry = forms @ y
        value, weights = _smooth_objective(ry @ y, cfg.mode)
        return -value, -_columns_gradient(x, q, 2.0 * (weights @ ry))

    def exact(x):
        return _exact_objective(_fidelities(forms, _columns_from_params(x, d_eff)), cfg.mode)

    def tiebreak_key(x):
        # gauge-invariant: moduli of the columns rounded to 1e-9
        return tuple(np.round(np.abs(_columns_from_params(x, d_eff)).ravel(), 9))

    best_x = None
    best_val = -np.inf
    best_key = None
    values = []
    stream = stream if stream is not None else (cfg.seed,)
    starts = [np.asarray(x0, dtype=float) for x0 in extra_starts]
    for r in range(cfg.restarts):
        rng = np.random.default_rng([*stream, r])
        starts.append(rng.standard_normal(4 * d_eff))
    for x0 in starts:
        # exploration restarts only need to identify the best basin; the
        # winner is polished to full precision afterwards
        res = minimize(neg_smooth, x0, ftol=cfg.tol)
        try:
            val = exact(res.x)
        except DegenerateColumnsError:
            continue
        values.append(val)
        if val > best_val + 1e-9:
            best_x, best_val, best_key = res.x, val, None
        elif best_x is not None and abs(val - best_val) <= 1e-9:
            # deterministic tie-break: smallest modulus vector wins
            if best_key is None:
                best_key = tiebreak_key(best_x)
            key = tiebreak_key(res.x)
            if key < best_key:
                best_x, best_val, best_key = res.x, val, key
    if best_x is None:
        raise RuntimeError("all restarts failed (degenerate parameter draws)")
    # restarts whose exploration value reached the winning basin
    hits = sum(1 for v in values if v >= best_val - 1e-4)
    res = minimize(neg_smooth, best_x, ftol=1e-15, gtol=1e-12)
    try:
        if exact(res.x) >= best_val:
            best_x = res.x
    except DegenerateColumnsError:
        pass
    return best_x, hits


def optimize(
    input_set: InputSet,
    cfg: OptimizationConfig,
    _stream: tuple[int, ...] | None = None,
    _extra_starts: Sequence[np.ndarray] = (),
) -> OptimizationResult:
    """Best 1->cfg.copies machine found for the set over random-restart BFGS."""
    copies = cfg.copies
    psis = np.column_stack(input_set.states())
    d_eff = effective_dim(copies, cfg.symmetric, cfg.ancilla_dim)
    embed = _sym_embedding(copies, cfg.ancilla_dim) if cfg.symmetric else np.eye(d_eff)
    forms = _copy_forms(psis, embed, copies, cfg.ancilla_dim)
    best_x, hits = _run_restarts(forms, d_eff, cfg, stream=_stream, extra_starts=_extra_starts)
    q = _columns_from_params(best_x, d_eff)
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


def ancilla_sweep(
    input_set: InputSet, dims: Sequence[int], cfg: OptimizationConfig
) -> list[tuple[int, float]]:
    """Best objective per ancilla dimension, otherwise identical config."""
    if not dims:
        raise ValueError("dims must be nonempty")
    out = []
    for dim in dims:
        out.append((int(dim), optimize(input_set, replace(cfg, ancilla_dim=int(dim))).objective))
    return out


# ---------------------------------------------------------------------------
# contour scan over trio phases


def _trio_set(phi2: float, phi3: float) -> InputSet:
    pts = tuple(BlochPoint(math.pi / 2.0, p) for p in (0.0, phi2, phi3))
    return InputSet(f"trio({math.degrees(phi2):.1f},{math.degrees(phi3):.1f})", pts)


def trio_is_degenerate(phi2: float, phi3: float) -> bool:
    vecs = _trio_set(phi2, phi3).states()
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(np.vdot(vecs[i], vecs[j])) >= DEGENERATE_OVERLAP:
                return True
    return False


def _orbit_key(i: int, j: int, resolution: int) -> tuple[int, ...]:
    """Sorted arc gaps of the phase indices {0, i, j} on the resolution-point
    circle. Cells share a key exactly when they are images of each other under
    swapping phi2 and phi3, relabeling the reference state, and complex
    conjugation, all of which leave the best objective unchanged."""
    a, b = sorted((i, j))
    return tuple(sorted((a, b - a, resolution - b)))


def scan_config(cfg: OptimizationConfig | None = None) -> OptimizationConfig:
    """Per-orbit search configuration: the equal-fidelity/symmetric conditions
    with a cheaper restart schedule (warm starts from the orbits solved just
    before cover the rest)."""
    if cfg is None:
        cfg = OptimizationConfig(mode="equal_fidelity_penalty", symmetric=True)
    return replace(cfg, restarts=min(cfg.restarts, 6), tol=1e-3)


def scan_equator(
    resolution: int,
    cfg: OptimizationConfig | None = None,
    progress=None,
) -> ScanGrid:
    """Grid of best objectives for trios {0, phi2, phi3} over a square grid
    of phases in [0, 360) degrees.

    One search runs per orbit of the trio-phase symmetry group, at its first
    cell in row-major order; every other cell of the orbit copies that value,
    so the grid is exactly symmetric. `progress(i, j, value)` still fires once
    per cell in row-major order."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    cfg = scan_config(cfg)
    phis = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    grid = np.zeros((resolution, resolution))
    mask = np.zeros((resolution, resolution), dtype=bool)
    solved: dict[tuple[int, ...], tuple[float, bool]] = {}
    warm: list[np.ndarray] = []  # raw parameters of the last two orbits solved
    for i, p2 in enumerate(phis):
        for j, p3 in enumerate(phis):
            key = _orbit_key(i, j, resolution)
            if key not in solved:
                # the orbit's pseudo-random stream is keyed on (seed, index)
                # of its first cell
                res = optimize(
                    _trio_set(p2, p3),
                    cfg,
                    _stream=(cfg.seed, i * resolution + j),
                    _extra_starts=warm,
                )
                solved[key] = (res.objective, trio_is_degenerate(p2, p3))
                warm = [np.asarray(res.raw_params), *warm[:1]]
            grid[i, j], mask[i, j] = solved[key]
            if progress is not None:
                progress(i, j, grid[i, j])
    return ScanGrid(
        resolution=resolution,
        phi2_values=phis,
        phi3_values=phis.copy(),
        fidelity=grid,
        degenerate_mask=mask,
    )


# ---------------------------------------------------------------------------
# 1 -> n over the 120-degree trio


def optimize_n(cfg: OptimizationConfig) -> OptimizationResult:
    """Best economic symmetric 1->n machine for the 120-degree trio: the
    `optimize` search with n copies inside the symmetric subspace, whose two
    columns are the machine's coefficient vectors (a_i), (b_i)."""
    n = cfg.copies
    if not 2 <= n <= 8:
        raise ValueError(f"copies={n} outside 2..8")
    res = optimize(equatorial_trio(), replace(cfg, symmetric=True, ancilla_dim=1))
    q = _columns_from_params(np.asarray(res.raw_params), n + 1)
    return replace(res, machine=SymmetricNCloner(n=n, a=tuple(q[:, 0]), b=tuple(q[:, 1])))
