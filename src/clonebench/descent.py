"""The lockstep BFGS descent every search runs, one evaluation per round."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

MAX_ITERS = 15000  # descent iteration cap, scipy L-BFGS-B's default
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the backtracking line search
MIN_STEP = 1e-20  # a line search whose step falls below this has failed
# members per slice of the inverse-Hessian update, where optimize explores all its restarts:
# unsliced, `optimize --set trio --ancilla-dim 8` peaks at 78.5, not 40.5 MiB (tracemalloc)
UPDATE_SLICE = 32


class _Descent(NamedTuple):
    x: np.ndarray  # (k, n) final points
    fun: np.ndarray  # (k,) final values
    nit: np.ndarray  # (k,) accepted steps
    nfev: np.ndarray  # (k,) evaluations
    converged: np.ndarray  # (k,) whether each member stopped on a tolerance
    success: bool  # whether every member converged


def _descend(fun, x0, ftol: float = 1e-6, gtol: float = 1e-5) -> _Descent:
    """BFGS from every row of x0 in lockstep (Nocedal & Wright, Numerical
    Optimization, 2006: Alg. 6.1 with the backtracking of Alg. 3.1).

    `fun(x, idx)` returns values (k,) at the rows of x, the batch members idx,
    each row's canonical point, a point of equal value, and the gradient (k, n)
    there (x itself for an objective without invariances). The first
    evaluation moves every start to its canonical point, and an accepted step
    a member to its trial point's: a retraction (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, 4.1) that keeps it from
    drifting along the objective's flat directions. The BFGS pair is the raw
    step s = x_new - x with y the change of the gradient between the two
    canonical points (Huang, Gallivan & Absil, SIAM J. Optim. 25, 1660, 2015).
    Each round evaluates every running member once; a member that stops leaves
    the batch. Each keeps the serial rules: H starts as (s.y / y.y) I after the
    first step, along -g/|g|; an update with s.y <= 1e-12 y.y is skipped; -g
    replaces a -Hg that does not descend. A step backtracks from t = 1 to the
    Armijo condition by the parabola clamped to [0.1 t, 0.5 t], or halves where
    the value is not finite or x + t p rounds to x. A member converges when
    max|g| <= gtol or a step lowers its value by at most ftol * max(|f_k|,
    |f_k+1|, 1) (scipy's L-BFGS-B tests); it fails at a non-finite start, which
    it returns as given, a step below MIN_STEP or MAX_ITERS steps."""
    add, where, count = np.add.reduce, np.where, np.count_nonzero
    x0 = np.array(x0, dtype=float)
    k, n = x0.shape
    idx = np.arange(k)
    f, x, g = fun(x0, idx)
    x = where(np.isfinite(f)[:, None], x, x0)
    out = _Descent(x.copy(), f.copy(), np.zeros(k, int), np.ones(k, int), np.zeros(k, bool), False)
    h = np.broadcast_to(np.eye(n), (k, n, n)).copy()  # H = I, the step scaled by 1/|g|, until updated
    has_h, nit, p, t, slope = np.zeros(k, bool), np.zeros(k, int), np.zeros_like(x), np.ones(k), np.zeros(k)
    ok = np.isfinite(f) & (np.maximum.reduce(np.abs(g), 1) <= gtol)  # members that converged
    done = ok | ~np.isfinite(f)
    fresh, rounds, all_h = ~done, 0, False  # members at the top of an iteration, rounds made
    while True:
        if count(done):
            # write the finished members out and drop them from the batch
            gone = idx[done]
            out.x[gone], out.fun[gone], out.nit[gone] = x[done], f[done], nit[done]
            out.nfev[gone], out.converged[gone] = rounds + 1, ok[done]
            # the last running members take the finished ones' places, so that
            # only their H rows move, in place
            m = len(idx) - count(done)
            dst, src = np.flatnonzero(done[:m]), m + np.flatnonzero(~done[m:])
            order = np.arange(m)
            order[dst], h[dst] = src, h[src]
            idx, x, f, g, h = idx[order], x[order], f[order], g[order], h[:m]
            has_h, nit, p, t, slope, fresh = (a[order] for a in (has_h, nit, p, t, slope, fresh))
            if not idx.size:
                break
        fresh_count = count(fresh)
        if fresh_count:
            # a new iteration: -H g, or -g/|g| before the first update
            new = -np.matmul(h, g[:, :, None])[:, :, 0]
            if not all_h:
                new /= where(has_h, 1.0, np.sqrt(add(g * g, 1)))[:, None]
            new_slope = add(g * new, 1)
            uphill = ~(new_slope < 0.0)
            if count(uphill):
                new[uphill] = -g[uphill]
                new_slope[uphill] = -add(g[uphill] * g[uphill], 1)
            if fresh_count == len(idx):
                p, slope, t = new, new_slope, np.ones(len(idx))
            else:
                p, slope = where(fresh[:, None], new, p), where(fresh, new_slope, slope)
                t = where(fresh, 1.0, t)
        x_new = x + t[:, None] * p
        f_new, x_ret, g_new = fun(x_new, idx)
        rounds += 1
        s, y = x_new - x, g_new - g
        finite = np.isfinite(f_new)
        armijo = finite & (f_new <= f + ARMIJO_C1 * t * slope)
        accept = armijo & (f_new < f)
        failed, full = False, count(accept) == len(idx)  # full: every member takes its step
        if not full:
            # the test passes also when x_new rounds to x; that is no step
            accept |= armijo & (f_new == f) & s.any(1)
            # the minimizer of the parabola through f, slope and f_new, or half the step
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t_par = -slope * t * t / (2.0 * (f_new - f - slope * t))
            t = where(finite & ~armijo, np.minimum(np.maximum(t_par, 0.1 * t), 0.5 * t), 0.5 * t)
            failed = ~accept & (t < MIN_STEP)
            moved = accept[:, None]
            x_ret, g_new, f_new = where(moved, x_ret, x), where(moved, g_new, g), where(accept, f_new, f)
        # max(|f|, |f_new|) is max(f, -f_new) where f_new <= f
        stop = accept & (f - f_new <= ftol * np.maximum(np.maximum(f, -f_new), 1.0))
        x, g, f = x_ret, g_new, f_new
        nit += accept
        conv = accept & (np.maximum.reduce(np.abs(g), 1) <= gtol)
        if rounds >= MAX_ITERS:
            # the last step allowed ends the descent before its gtol test
            capped = accept & ~stop & (nit >= MAX_ITERS)
            conv, failed = conv & ~capped, failed | capped
        ok = stop | conv
        done = failed | ok
        fresh = accept & ~done
        sy, yy = add(s * y, 1, keepdims=True), add(y * y, 1, keepdims=True)
        update = fresh & (sy > 1e-12 * yy)[:, 0]
        updates = count(update)
        if updates:
            if not all_h:
                first = update & ~has_h
                h[first], has_h = np.eye(n) * (sy[first] / yy[first])[:, :, None], has_h | first
                all_h = bool(has_h.all())
            if updates == len(idx):
                rho = 1.0 / sy
            else:  # the members without an update get a zero one
                rho = where(update[:, None], 1.0 / where(update[:, None], sy, 1.0), 0.0)
                s, y = where(update[:, None], s, 0.0), where(update[:, None], y, 0.0)
            hy = np.matmul(h, y[:, :, None])[:, :, 0]
            v = (0.5 * rho * (rho * add(y * hy, 1, keepdims=True) + 1.0)) * s - rho * hy
            # the rank-2 update as A + A^T, so each H stays exactly symmetric
            for lo in range(0, len(idx), UPDATE_SLICE):
                half = s[lo : lo + UPDATE_SLICE, :, None] * v[lo : lo + UPDATE_SLICE, None, :]
                h[lo : lo + UPDATE_SLICE] += half + half.transpose(0, 2, 1)
    return out._replace(success=bool(out.converged.all()))
