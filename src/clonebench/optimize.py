"""Numerical search for the best cloning machine on a finite input set.

`optimize` finds the best 1->copies machine for an input set; `optimize_n`
is that search on the 120-degree trio inside the symmetric subspace. Raw
real parameters are read as two complex output columns, Gram-Schmidt
orthonormalized and (optionally) embedded from the symmetric subspace, so
every iterate is a valid isometry. Every copy fidelity is a Hermitian form
in the columns (Fiurasek, PRA 64, 062310, 2001): F_n = y^T R_n y, with y the
real and imaginary parts of the stacked columns. `_search_objective`
evaluates a batch of parameter rows, one numpy call per step for the whole
batch, and `_descend` runs BFGS from every row in lockstep. Every start and
accepted step lands on its canonical point, the orthonormal columns Y, where
the one gradient is taken, so no descent drifts along the column scales or
c1's part along c0, which leave the value unchanged. The hard min is smoothed
with a log-sum-exp and re-evaluated exactly.

OptimizationConfig sets `optimize`'s restarts, objective mode,
parameterization (symmetric, ancilla_dim, copies) and seed, which keys the
counter-based streams of normal starts (`_starts`). The winner of a loose
exploration is polished with tolerances near machine precision, for max-min
through the softmin sharpnesses POLISH_SHARPNESS in turn.

Each batched descent is one call of the module attribute `minimize`: `optimize`
explores once and polishes once per stage, `scan_equator` twice per batch."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .cloners import CloneIsometry
from .descent import _descend
from .qlinalg import sym_basis
from .states import TWO_PI, BlochPoint, InputSet, bloch_to_state, equatorial_trio

SMOOTH_SHARPNESS = 500.0  # log-sum-exp softening of the hard min
POLISH_SHARPNESS = (5e2, 5e3, 5e4, 5e5, 5e6, 5e7)  # the max-min polish stages
PENALTY_WEIGHT = 100.0  # weight of the fidelity variance in equal_fidelity_penalty
EXPLORE_TOL = 1e-6  # objective-improvement tolerance of optimize's exploration

minimize = _descend  # every search's descents go through this attribute


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 200
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


@dataclass(frozen=True)
class OptimizationResult:
    best: CloneIsometry
    per_state_fidelities: tuple[tuple[int, int, float], ...]  # (state, copy, F)
    objective: float
    spread: float
    restarts_hitting_best: int
    seed: int


def _coinciding(i, j):
    """Whether scan cell (i, j), the trio of phase indices {0, i, j}, has two
    coinciding states, so that its `_orbit_key` has a zero gap. Works
    elementwise on index arrays too."""
    return (i == 0) | (j == 0) | (i == j)


def minimum_cells(grid: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """The non-degenerate cells of a scan grid within 1e-6 of its least
    non-degenerate value, and that value."""
    ok = ~_coinciding(*np.indices(grid.shape))
    vmin = float(grid[ok].min())
    return [tuple(map(int, ij)) for ij in np.argwhere(ok & (grid <= vmin + 1e-6))], vmin


def scan_csv(resolution: int, cells: Iterable[tuple[int, int, float]]) -> str:
    """CSV text of scan cells given as (i, j, fidelity), in the order given;
    phase index k is k * 360 / resolution degrees."""
    rows = ["phi2_deg,phi3_deg,fidelity,degenerate\n"]
    for i, j, fidelity in cells:
        p2, p3 = i * 360.0 / resolution, j * 360.0 / resolution
        degenerate = "true" if _coinciding(i, j) else "false"
        rows.append(f"{p2:.6f},{p3:.6f},{fidelity:.12f},{degenerate}\n")
    return "".join(rows)


# ---------------------------------------------------------------------------
# parameterization


def _sym_embedding(copies: int, ancilla_dim: int) -> np.ndarray:
    """Isometric embedding of (symmetric subspace x ancilla) into the full
    output space, with the copies as leading factors."""
    s = sym_basis(copies)  # 2^copies x (copies + 1)
    if ancilla_dim == 1:
        return s
    return np.kron(s, np.eye(ancilla_dim))


def _pattern(names: str, *rows: str) -> np.ndarray:
    """The 0/+-1 matrix P with (c @ P).reshape(k, 4, w) the table of the
    coefficients each cell names (a minus negates); T.reshape(k, -1) @ P.T
    sums cells into names. Two terms at most, so no row depends on its batch."""
    names, cells = names.split(), " ".join(rows).split()
    p = np.zeros((len(names), len(cells)))
    for c, entry in enumerate(cells):
        if entry != "0":
            p[names.index(entry.lstrip("-")), c] = -1.0 if entry[0] == "-" else 1.0
    return p


# |c0|^2 and c0^dag c1 = re + i im from X X^T, for the first pass
_GRAM = _pattern("nn0 re im", "nn0 re 0 im", "0 0 -im 0", "0 0 nn0 re", "0 0 0 0").T
# c0^dag w and |w|^2 from W W^T, for the second pass
_GRAM2 = _pattern("re im ww", "0 re 0 im", "0 ww -im 0", "0 0 0 re", "0 0 0 ww").T
# the first pass's change to X, w - c1 = -gamma c0, from (a, b) with gamma = a + ib
_PASS1 = _pattern("a b", "0 0 0 0", "-a 0 b 0", "0 0 0 0", "-b 0 -a 0")
# the second pass and the normalization, from (1/n0, 1/n1, a2/n1, b2/n1)
_PASS2 = _pattern("r0 r1 a b", "r0 0 0 0", "-a r1 b 0", "0 0 r0 0", "-b 0 -a r1")


def _columns(stack: np.ndarray):
    """The c columns of a (k, c) stack: floats when k is 1, else (k,) arrays. The
    per-row formulas take either, so one member costs no numpy calls there."""
    return stack[0].tolist() if len(stack) == 1 else stack.T


def _stack(*columns) -> np.ndarray:
    """The (k, c) stack of c columns from `_columns` or per-row formulas."""
    return np.array(columns).T.reshape(-1, len(columns))


def _gram_schmidt(x: np.ndarray, d: int):
    """Gram-Schmidt on the raw columns of each row of x read as the 4 x d matrix
    X with rows Re c0, Re c1, Im c0, Im c1: q0 = c0 / n0 and q1 = (c1 - gamma
    c0) / n1, gamma = c0^dag c1 / |c0|^2 = a + ib. q1 is orthogonalized in two
    passes, each from its own input's Gram matrix, so it stays orthogonal for
    nearly parallel columns. Returns Y, q in X's layout, where the search takes
    its gradient, and which rows are degenerate: zero or parallel columns."""
    xm = x.reshape(-1, 4, d)
    k = len(xm)
    nn0, re, im = _columns(np.matmul(xm, xm.swapaxes(1, 2)).reshape(k, 16) @ _GRAM)
    live = nn0 > 1e-20
    nn0 = nn0 + (nn0 <= 1e-20)  # a placeholder for degenerate rows
    a, b = re / nn0, im / nn0
    # rows c0 and w = c1 - gamma c0; the second pass repeats this step on w
    w = xm + np.matmul((_stack(a, b) @ _PASS1).reshape(k, 4, 4), xm)
    re2, im2, ww = _columns(np.matmul(w, w.swapaxes(1, 2)).reshape(k, 16) @ _GRAM2)
    a2, b2 = re2 / nn0, im2 / nn0
    # |w|^2 minus its part along c0, which the first pass left tiny
    nn1 = ww - (a2 * re2 + b2 * im2)
    bad = np.logical_not(live & (nn1 > 1e-20)).reshape(k)
    r0, r1 = 1.0 / np.sqrt(nn0), 1.0 / np.sqrt(nn1 + (nn1 <= 1e-20))
    ym = np.matmul((_stack(r0, r1, a2 * r1, b2 * r1) @ _PASS2).reshape(k, 4, 4), w)
    return ym, bad


# ---------------------------------------------------------------------------
# fidelity kernel: each fidelity is a real quadratic form in the columns


def _real_forms(h: np.ndarray) -> np.ndarray:
    """Real symmetric forms R with y^T R y = v^dag H v for a Hermitian stack H."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _copy_forms(
    psis: np.ndarray, embed: np.ndarray, copies: int, ancilla_dim: int
) -> np.ndarray:
    """Forms of the copy fidelities of the 1->copies machine embed @ q on the
    states in the columns of each (2, m) matrix of a stack psis: copy 0 of
    every state, then copy 1, and so on. The m forms R_n of a problem come laid
    out for one product with a stack of columns: the (4d, m*4d) matrix F with
    (y @ F)[n*4d + i] = (R_n y)_i; the result stacks these as psis does."""
    d = embed.shape[1]
    # e[c, a, b] = embed^dag (|a><b| on copy c's factor) embed
    factors = embed.reshape([2] * copies + [ancilla_dim * d])
    e = np.array([
        np.einsum("aki,bkj->abij", f.conj(), f)
        for f in (np.moveaxis(factors, c, 0).reshape(2, -1, d) for c in range(copies))
    ])  # fmt: skip
    kets = psis.swapaxes(-1, -2)
    pp = kets[..., :, None] * kets.conj()[..., None, :]
    # the output on psi is embed @ q @ psi, and q @ psi = (psi^T x I) v
    hs = np.einsum("...sab,...csij->...csaibj", pp.conj(), np.einsum("...sab,cabij->...csij", pp, e))
    forms = _real_forms(hs.reshape(*psis.shape[:-2], -1, 2 * d, 2 * d))
    return np.moveaxis(forms, -1, -3).reshape(*psis.shape[:-2], 4 * d, -1)


def _exact_objective(fids: np.ndarray, mode: str) -> np.ndarray:
    """The objective of each row of fidelities: the least, or the penalty."""
    if mode == "max_min":
        return fids.min(-1)
    return fids.mean(-1) - PENALTY_WEIGHT * fids.var(-1)


def _fidelity_stack(x: np.ndarray, forms: np.ndarray, d: int, idx=None, width=None):
    """The Gram-Schmidt of every row of x, the form products R_n y of its
    columns y as a (k, m, 4d) stack, and the fidelities y^T R_n y. forms stacks
    p problems' `_copy_forms`; row r is member idx[r] of a (p, width) layout,
    by default members 0..k-1 of one problem. Rows of several problems meet
    their forms in that layout, zero-padded where members have left, so that no
    row copies its forms. A row's product is then a matrix-matrix (gemm) row,
    which does not depend on the other rows or their number, or a matrix-vector
    one in a one-slot layout. Rows of one problem take the same product with its
    forms directly, a lone row in a wider layout padded to two rows."""
    ym, bad = _gram_schmidt(x, d)
    k, n = len(ym), 4 * d
    y = ym.reshape(k, n)
    if idx is None:
        idx, width = np.arange(k), k
    if k == 1 or len(forms) == 1:
        rows = y if k > 1 or width == 1 else np.concatenate((y, np.zeros((1, n))))
        ry = (rows @ forms[idx[0] // width])[:k]
    else:
        pad = np.zeros((len(forms) * width, n))
        pad[idx] = y
        ry = np.matmul(pad.reshape(len(forms), width, n), forms).reshape(len(pad), -1)[idx]
    ry = ry.reshape(k, -1, n)
    return ym, bad, ry, np.matmul(ry, y[:, :, None])[:, :, 0]


# the sums of Re g_i^dag q_j that the derivatives in n0, n1 and gamma need, from G Y^T
_PSUMS = _pattern("p0 p1 pr pi", "p0 0 0 0", "pr p1 pi 0", "0 0 p0 0", "-pi 0 pr p1").T
# K of the gradient G + K Y at Y, where r0 = r1 = 1 and a = b = 0, from the p-sums
_TANGENT = _pattern("p0 p1 pr pi", "-p0 -pr 0 pi", "-pr -p1 -pi 0", "0 -pi -p0 -pr", "pi 0 -pr -p1")


def _search_objective(
    x: np.ndarray, forms: np.ndarray, d: int, mode: str, sharpness: float = SMOOTH_SHARPNESS,
    idx=None, width=None,
):
    """The negated smoothed objective (k,) at each row of x, each row's
    canonical point, its orthonormal columns Y (k, 4d), and the objective's
    gradient there (k, 4d), or (inf, zeros) at a degenerate row; forms, idx and
    width as in _fidelity_stack. max-min is smoothed by the softmin of the
    given sharpness. The gradient in y, G = 2 sum_n w_n R_n y, pulls back
    through the Gram-Schmidt, which is the identity at Y, as G + K Y: the
    symmetric 4 x 4 K carries the change of (n0, n1, gamma) through the Gram
    matrix of Y."""
    ym, bad, ry, fids = _fidelity_stack(x, forms, d, idx, width)
    k, add = len(ym), np.add.reduce
    if mode == "max_min":
        lo = np.minimum.reduce(fids, 1, keepdims=True)
        e = np.exp((lo - fids) * sharpness)
        total = add(e, 1, keepdims=True)
        value = lo - np.log(total) / sharpness
        e *= -2.0 / total
    else:
        m = fids.shape[1]
        value = add(fids, 1, keepdims=True) / m
        dev = fids - value
        value -= PENALTY_WEIGHT / m * add(dev * dev, 1, keepdims=True)
        e = dev * (4.0 * PENALTY_WEIGHT / m) - 2.0 / m
    gm = np.matmul(e[:, None, :], ry).reshape(k, 4, d)
    psums = np.matmul(gm, ym.swapaxes(1, 2)).reshape(k, 16) @ _PSUMS
    grad = (gm + np.matmul((psums @ _TANGENT).reshape(k, 4, 4), ym)).reshape(k, -1)
    value = -value[:, 0]
    if np.count_nonzero(bad):
        value[bad], grad[bad] = math.inf, 0.0
    return value, ym.reshape(k, -1), grad


# ---------------------------------------------------------------------------
# search


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014) on uint64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _stream(keys, count: int, size: int) -> np.ndarray:
    """Counter-based random bits (Salmon et al., SC 2011): the (p, count,
    size) uint64 array whose entry (k, r, i) hashes (*keys[k], r, i), each
    component (mod 2^64) folded in by a splitmix64 step. An entry depends on
    nothing else, so more draws or longer ones leave the earlier entries."""
    h = np.zeros(len(keys), np.uint64)
    for column in zip(*keys):
        h = _mix(h + 0x9E3779B97F4A7C15 + np.array([v % 2**64 for v in column], np.uint64))
    h = _mix(h[:, None] + 0x9E3779B97F4A7C15 + np.arange(count, dtype=np.uint64))
    return _mix(h[:, :, None] + 0x9E3779B97F4A7C15 + np.arange(size, dtype=np.uint64))


def _starts(keys, count: int, size: int) -> np.ndarray:
    """(p, count, size) standard normals, draw r of stream keys[k] at [k, r]:
    Box-Muller on the two 32-bit halves of each `_stream` entry."""
    h = _stream(keys, count, size)
    radius = np.sqrt(-2.0 * np.log(((h >> 32) + 1.0) * 2.0**-32))
    return radius * np.cos((h & 0xFFFFFFFF) * (TWO_PI * 2.0**-32))


def _search(forms: np.ndarray, d: int, mode: str, tol: float, starts: np.ndarray):
    """Best raw parameters for each of p problems (forms stacked, starts
    (p, s, 4d)) in mode, their exact objectives and how many starts reached
    each winner's basin. One descent explores every start, at ftol=tol; a
    degenerate one is dropped, and the first start to beat the best exact
    objective by more than 1e-9 wins. One descent polishes the winners, one per
    POLISH_SHARPNESS stage for max-min. Descended columns are orthonormal."""
    p, s, n = starts.shape

    def objective(width, sharpness=SMOOTH_SHARPNESS):
        return lambda x, idx: _search_objective(x, forms, d, mode, sharpness, idx, width)

    def exact(x, width):  # -inf at a degenerate row
        *_, bad, _, fids = _fidelity_stack(x, forms, d, np.arange(len(x)), width)
        return np.where(bad, -math.inf, _exact_objective(fids, mode))

    # exploration only needs to find the best basin; the winner is polished after
    res = minimize(objective(s), starts.reshape(p * s, n), ftol=tol)
    values = np.where(np.isfinite(res.fun), exact(res.x, s), -math.inf).reshape(p, s)
    best_val, pick = np.full(p, -math.inf), np.zeros(p, int)
    for r in range(s):
        wins = values[:, r] > best_val + 1e-9
        best_val[wins], pick[wins] = values[wins, r], r
    if not np.isfinite(best_val).all():
        raise RuntimeError("all restarts failed (degenerate parameter draws)")
    # restarts whose exploration value reached the winning basin
    hits = (values >= best_val[:, None] - 1e-4).sum(1)
    # max-min polishes through ever sharper softmins, each stage from the last: a
    # softmin's maximizer keeps a spread of order 1 / sharpness, and so a value
    # below the optimum, wherever the optimal multipliers are unequal
    best_x = x = res.x.reshape(p, s, n)[np.arange(p), pick]
    for sharpness in POLISH_SHARPNESS if mode == "max_min" else (SMOOTH_SHARPNESS,):
        x = minimize(objective(1, sharpness), x, ftol=1e-15, gtol=1e-12).x
        val = exact(x, 1)
        better = val >= best_val
        best_x, best_val = np.where(better[:, None], x, best_x), np.where(better, val, best_val)
    return best_x, best_val, hits


def optimize(input_set: InputSet, cfg: OptimizationConfig) -> OptimizationResult:
    """Best 1->cfg.copies machine found for the set over random-restart BFGS:
    `_search` from draws 0..cfg.restarts-1 of the stream (cfg.seed,)."""
    copies = cfg.copies
    embed = _sym_embedding(copies, cfg.ancilla_dim) if cfg.symmetric else np.eye(2**copies * cfg.ancilla_dim)
    d = embed.shape[1]
    forms = _copy_forms(np.column_stack(input_set.states())[None], embed, copies, cfg.ancilla_dim)
    best_x, _, hits = _search(forms, d, cfg.mode, EXPLORE_TOL, _starts([(cfg.seed,)], cfg.restarts, 4 * d))
    ym, _, _, fids = _fidelity_stack(best_x, forms, d)
    q = (ym[0, :2] + 1j * ym[0, 2:]).T  # the winner's orthonormal columns
    fids = fids.reshape(copies, -1)
    per_state = tuple(
        (s, k, float(fids[k, s])) for s in range(len(input_set)) for k in range(copies)
    )
    return OptimizationResult(
        best=CloneIsometry(embed @ q, copies=copies, ancilla_dim=cfg.ancilla_dim),
        per_state_fidelities=per_state,
        objective=float(_exact_objective(fids.ravel(), cfg.mode)),
        spread=float(fids.max() - fids.min()),
        restarts_hitting_best=int(hits[0]),
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# contour scan over trio phases


# the exploration tolerance of the scan's search, one start per orbit. The
# polish minimizes the same penalty objective and sets every value, so the
# exploration only brings the start into its basin. One start gave the grids of
# 8 starts to within 6.7e-16, with the same minimum cells, on res 9 seeds 0-99,
# res 24 seeds 0-9 and res 36 seeds 0-11; the polish alone left one res-36
# orbit, gaps (2, 17, 17) at seed 2, 5.3e-11 short
SCAN_EXPLORE_TOL = 3e-2
# a one-degree grid; a scan builds resolution**2 orbit keys before any output
MAX_RESOLUTION = 360
# orbits solved together, in one exploration and one polish descent; a scan
# reports, and a budgeted scan can stop, only between batches
SCAN_BATCH = 32


def _orbit_key(i: int, j: int, resolution: int) -> tuple[int, ...]:
    """Sorted arc gaps of the phase indices {0, i, j} on the resolution-point
    circle. Cells share a key exactly when they are images of each other under
    swapping phi2 and phi3, relabeling the reference state, and complex
    conjugation, all of which leave the best objective unchanged."""
    a, b = sorted((i, j))
    return tuple(sorted((a, b - a, resolution - b)))


def scan_equator(resolution: int, seed: int = 0, progress=None) -> np.ndarray:
    """The (resolution, resolution) grid of best objectives, row index phi2,
    for trios {0, phi2, phi3} over a square grid of phases in [0, 360)
    degrees. One search per orbit of the trio-phase symmetry group fills
    every cell of the orbit, so the grid is exactly symmetric; its one start
    is draw 0 of the stream (seed, index of the orbit's first cell in
    row-major order). `_search` solves SCAN_BATCH orbits at a time, in that
    order, and `progress(i, j, value)` fires once per cell in row-major order
    as soon as the cell's orbit is solved."""
    if not 8 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in 8..{MAX_RESOLUTION}")
    phis = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    kets = np.array([bloch_to_state(BlochPoint(math.pi / 2.0, phi)) for phi in phis])
    keys = [_orbit_key(i, j, resolution) for i in range(resolution) for j in range(resolution)]
    # the first cell of each orbit, in row-major order
    firsts = sorted({key: c for c, key in reversed(list(enumerate(keys)))}.values())
    embed = _sym_embedding(2, 1)
    d, grid = embed.shape[1], np.zeros(resolution * resolution)
    solved: dict[tuple[int, ...], float] = {}
    for b in range(0, len(firsts), SCAN_BATCH):
        batch = firsts[b : b + SCAN_BATCH]
        trios = kets[np.array([(0, *divmod(c, resolution)) for c in batch])]  # (p, 3, 2)
        forms = _copy_forms(trios.swapaxes(1, 2), embed, 2, 1)
        starts = _starts([(seed, c) for c in batch], 1, 4 * d)
        values = _search(forms, d, "equal_fidelity_penalty", SCAN_EXPLORE_TOL, starts)[1]
        solved.update(zip((keys[c] for c in batch), values.tolist()))
        # every cell before the next batch's first orbit now has its value
        end = firsts[b + SCAN_BATCH] if b + SCAN_BATCH < len(firsts) else grid.size
        cells = [(*divmod(c, resolution), solved[keys[c]]) for c in range(batch[0], end)]
        grid[batch[0] : end] = [value for *_, value in cells]
        if progress is not None:
            for cell in cells:
                progress(*cell)
    return grid.reshape(resolution, resolution)


# ---------------------------------------------------------------------------
# 1 -> n over the 120-degree trio


def optimize_n(cfg: OptimizationConfig) -> OptimizationResult:
    """Best economic symmetric 1->n machine for the 120-degree trio: the
    `optimize` search with n = cfg.copies copies in the symmetric subspace."""
    if not 2 <= cfg.copies <= 8:
        raise ValueError(f"copies={cfg.copies} outside 2..8")
    return optimize(equatorial_trio(), replace(cfg, symmetric=True, ancilla_dim=1))
