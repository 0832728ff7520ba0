"""Numerical search for the best cloning machine on a finite input set.

Constraints are handled by construction: raw real parameters are read as two
complex output columns, Gram-Schmidt orthonormalized, and (optionally)
embedded from the symmetric subspace, so every iterate is a valid isometry.
Local descent is Nelder-Mead with independent random restarts; the hard min
objective is smoothed with a log-sum-exp during the search and the exact
objective is re-evaluated for reporting.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .cloners import CloneIsometry, SymmetricNCloner, to_isometry
from .fidelity import n_clone_fidelity
from .qlinalg import DegenerateColumnsError, sym_basis
from .states import TWO_PI, BlochPoint, InputSet, bloch_to_state

SMOOTH_SHARPNESS = 500.0  # log-sum-exp softening of the hard min
DEGENERATE_OVERLAP = 1.0 - 1e-9  # two states this close count as coinciding
TRIO_PHASES = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 200
    tol: float = 1e-9  # objective-improvement tolerance of the local search
    max_iters: int = 4000  # per restart
    mode: str = "max_min"  # or "equal_fidelity_penalty"
    penalty_weight: float = 100.0
    symmetric: bool = False
    economic: bool = True
    ancilla_dim: int = 1
    copies: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("max_min", "equal_fidelity_penalty"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.penalty_weight <= 0:
            raise ValueError("penalty_weight must be positive")
        if self.economic != (self.ancilla_dim == 1):
            raise ValueError("economic is equivalent to ancilla_dim == 1")
        if self.ancilla_dim < 1:
            raise ValueError("ancilla_dim must be >= 1")


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
    s = np.column_stack(sym_basis(copies))  # 2^copies x (copies + 1)
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
# fast fidelity evaluation (1 -> 2)


def _pair_fidelities(matrix: np.ndarray, psis: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """Per-copy fidelities of a 1->2 isometry for a batch of input states.

    psis has shape (2, m); the result is (2, m) with row 0 = copy A.
    F_copy = || <psi| projected onto that copy of the output ||^2.
    """
    m = psis.shape[1]
    out = matrix @ psis  # (4 * anc, m)
    t = out.reshape(2, 2, ancilla_dim, m)
    pc = psis.conj()
    wa = pc[0, None, :] * t[0] + pc[1, None, :] * t[1]  # (2, anc, m)
    wb = pc[0, None, :] * t[:, 0] + pc[1, None, :] * t[:, 1]
    fids = np.empty((2, m))
    fids[0] = (wa.real**2 + wa.imag**2).sum(axis=(0, 1))
    fids[1] = (wb.real**2 + wb.imag**2).sum(axis=(0, 1))
    return fids


def _exact_objective(fids: np.ndarray, mode: str, penalty_weight: float) -> float:
    if mode == "max_min":
        return float(fids.min())
    return float(fids.mean() - penalty_weight * fids.var())


def _smooth_objective(fids: np.ndarray, mode: str, penalty_weight: float) -> float:
    if mode == "max_min":
        beta = SMOOTH_SHARPNESS
        flat = fids.ravel()
        return float(-(np.log(np.exp(-beta * (flat - flat.min())).sum()) / beta) + flat.min())
    return float(fids.mean() - penalty_weight * fids.var())


def objective(
    v: CloneIsometry,
    input_set: InputSet,
    mode: str = "max_min",
    penalty_weight: float = 100.0,
) -> float:
    """Exact objective of a machine on a set under the given mode."""
    psis = np.column_stack(input_set.states())
    fids = _pair_fidelities(v.matrix, psis, v.ancilla_dim)
    return _exact_objective(fids, mode, penalty_weight)


# ---------------------------------------------------------------------------
# search


def _canonical_modulus_key(matrix: np.ndarray) -> tuple:
    # gauge-invariant tie-break key: entry moduli rounded to 1e-9
    return tuple(np.round(np.abs(matrix).ravel(), 9))


def _run_restarts(
    evaluate_exact,
    evaluate_smooth,
    n_params: int,
    cfg: OptimizationConfig,
    stream: tuple[int, ...] | None = None,
    polish: bool = True,
    extra_starts: Sequence[np.ndarray] = (),
):
    """Shared multistart driver; returns (best_x, best_value, hits).

    evaluate_* map a raw parameter vector to a scalar to maximize;
    infeasible draws evaluate to -inf and Nelder-Mead walks away from them.
    """

    def neg_smooth(x):
        try:
            return -evaluate_smooth(x)
        except DegenerateColumnsError:
            return np.inf

    # exploration restarts only need to identify the best basin; the winner
    # is polished to full precision afterwards
    explore_maxfev = min(cfg.max_iters, 50 * n_params)
    explore_fatol = max(cfg.tol, 1e-6)
    best_x = None
    best_val = -np.inf
    best_key = None
    values = []
    stream = stream if stream is not None else (cfg.seed,)
    starts = [np.asarray(x0, dtype=float) for x0 in extra_starts]
    for r in range(cfg.restarts):
        rng = np.random.default_rng([*stream, r])
        starts.append(rng.standard_normal(n_params))
    for x0 in starts:
        res = minimize(
            neg_smooth,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iters,
                "maxfev": explore_maxfev,
                "xatol": 1e-4,
                "fatol": explore_fatol,
                "adaptive": n_params > 16,
            },
        )
        try:
            val = evaluate_exact(res.x)
        except DegenerateColumnsError:
            continue
        values.append(val)
        if val > best_val + 1e-9:
            best_x, best_val, best_key = res.x, val, None
        elif best_x is not None and abs(val - best_val) <= 1e-9:
            # deterministic tie-break: smallest modulus vector wins
            if best_key is None:
                best_key = _tiebreak_key(evaluate_exact, best_x)
            key = _tiebreak_key(evaluate_exact, res.x)
            if key < best_key:
                best_x, best_val, best_key = res.x, val, key
    if best_x is None:
        raise RuntimeError("all restarts failed (degenerate parameter draws)")
    # restarts whose exploration value reached the winning basin
    hits = sum(1 for v in values if v >= best_val - 1e-4)
    if polish:
        x = best_x
        polish_iters = max(cfg.max_iters, 2000)
        # quadratic optima: parameter accuracy sqrt(tol) gives value accuracy tol
        tight = cfg.tol <= 1e-6
        polish_opts = {
            "maxiter": polish_iters,
            "xatol": 1e-10 if tight else 1e-5,
            "fatol": min(cfg.tol, 1e-12) if tight else 1e-11,
        }
        if not tight:
            polish_opts["maxfev"] = 1200
        for _ in range(3 if tight else 2):
            res = minimize(neg_smooth, x, method="Nelder-Mead", options=polish_opts)
            x = res.x
        try:
            val = evaluate_exact(x)
            if val >= best_val:
                best_x, best_val = x, val
        except DegenerateColumnsError:
            pass
    return best_x, best_val, hits


def _tiebreak_key(evaluate_exact, x):
    # the exact evaluator caches the last isometry on itself
    evaluate_exact(x)
    return _canonical_modulus_key(evaluate_exact.last_matrix)


def optimize(
    input_set: InputSet,
    cfg: OptimizationConfig,
    _stream: tuple[int, ...] | None = None,
    _extra_starts: Sequence[np.ndarray] = (),
) -> OptimizationResult:
    """Best machine found for the set over random-restart Nelder-Mead."""
    if cfg.copies != 2:
        raise ValueError("optimize handles 1->2 machines; use optimize_n for 1->n")
    psis = np.column_stack(input_set.states())
    d_eff = effective_dim(2, cfg.symmetric, cfg.ancilla_dim)
    embed = _sym_embedding(2, cfg.ancilla_dim) if cfg.symmetric else None

    def matrix_of(x):
        q = _columns_from_params(x, d_eff)
        return embed @ q if embed is not None else q

    def fids_of(x):
        return _pair_fidelities(matrix_of(x), psis, cfg.ancilla_dim)

    def evaluate_exact(x):
        mat = matrix_of(x)
        evaluate_exact.last_matrix = mat
        return _exact_objective(
            _pair_fidelities(mat, psis, cfg.ancilla_dim), cfg.mode, cfg.penalty_weight
        )

    def evaluate_smooth(x):
        return _smooth_objective(fids_of(x), cfg.mode, cfg.penalty_weight)

    n_params = 4 * d_eff
    best_x, best_val, hits = _run_restarts(
        evaluate_exact, evaluate_smooth, n_params, cfg, stream=_stream, extra_starts=_extra_starts
    )
    best = parameterize(best_x, copies=2, symmetric=cfg.symmetric, ancilla_dim=cfg.ancilla_dim)
    fids = _pair_fidelities(best.matrix, psis, cfg.ancilla_dim)
    per_state = tuple(
        (s, k, float(fids[k, s])) for s in range(len(input_set)) for k in range(2)
    )
    return OptimizationResult(
        best=best,
        per_state_fidelities=per_state,
        objective=_exact_objective(fids, cfg.mode, cfg.penalty_weight),
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
        sub = replace(cfg, ancilla_dim=int(dim), economic=(int(dim) == 1))
        out.append((int(dim), optimize(input_set, sub).objective))
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
    return replace(cfg, restarts=min(cfg.restarts, 6), tol=1e-3, max_iters=min(cfg.max_iters, 600))


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
    """Best symmetric 1->n machine for the 120-degree trio.

    The search space is the two coefficient vectors (a_i), (b_i) under the
    normalization and orthogonality constraints, enforced by the same
    two-column Gram-Schmidt parameterization.
    """
    n = cfg.copies
    if not 2 <= n <= 8:
        raise ValueError(f"copies={n} outside 2..8")
    d_eff = n + 1
    phases = np.asarray(TRIO_PHASES)

    def machine_of(x):
        q = _columns_from_params(x, d_eff)
        return SymmetricNCloner(n=n, a=tuple(q[:, 0]), b=tuple(q[:, 1]))

    def fids_of(x):
        mach = machine_of(x)
        return np.array([[n_clone_fidelity(mach, p) for p in phases]])

    def evaluate_exact(x):
        q = _columns_from_params(x, d_eff)
        evaluate_exact.last_matrix = q
        mach = SymmetricNCloner(n=n, a=tuple(q[:, 0]), b=tuple(q[:, 1]))
        fids = np.array([[n_clone_fidelity(mach, p) for p in phases]])
        return _exact_objective(fids, cfg.mode, cfg.penalty_weight)

    def evaluate_smooth(x):
        return _smooth_objective(fids_of(x), cfg.mode, cfg.penalty_weight)

    best_x, best_val, hits = _run_restarts(evaluate_exact, evaluate_smooth, 4 * d_eff, cfg)
    mach = machine_of(best_x)
    fids = np.array([n_clone_fidelity(mach, p) for p in phases])
    per_state = tuple((s, 0, float(fids[s])) for s in range(3))
    return OptimizationResult(
        best=to_isometry(mach),
        per_state_fidelities=per_state,
        objective=float(fids.min()) if cfg.mode == "max_min" else _exact_objective(
            fids[None, :], cfg.mode, cfg.penalty_weight
        ),
        spread=float(fids.max() - fids.min()),
        restarts_hitting_best=hits,
        seed=cfg.seed,
        machine=mach,
    )
