"""Dense convex QP solver: the dual active-set method of Goldfarb and Idnani.

Solves  min 1/2 x'Hx + g'x  s.t.  Gx <= h  for a positive definite H.
The iteration starts at the unconstrained minimizer -H^-1 g, which is dual
feasible with no active rows, and adds one violated row at a time, the one
farthest from the iterate in the metric of H, dropping an active row
whenever its multiplier would turn negative, so every iterate is dual
feasible and the first primal feasible one is optimal.  Any violated row may
enter; the farthest one leaves fewer rows to drop again, and every QP of the
bundled scenarios ends within two changes.  Problems here are tiny (tens of
decision variables, a few active rows), so one Cholesky factor of H per call
and a fresh QR of the few active rows at each change cost less than any
bookkeeping that would update them.  At these sizes the scipy.linalg and
numpy.linalg wrappers' argument checks cost several times the arithmetic, so
the solver calls the LAPACK routines under them (dpotrf, dpotrs, dtrtrs, and
dgeqrf and dorgqr for the QR) directly, with the arguments the wrappers
pass, which keeps every result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    lam: np.ndarray            # inequality multipliers (>= 0 at optimum)
    # 'optimal' | 'infeasible' | 'iteration_limit' | 'invalid' (H, g or h
    # not finite, or H not positive definite)
    status: str
    iterations: int            # active-set changes


def qp_solve(H: np.ndarray, g: np.ndarray, G: np.ndarray,
             h: np.ndarray) -> QpSolution:
    """Goldfarb-Idnani dual active-set solve of min 1/2 x'Hx + g'x
    s.t. Gx <= h, for float arrays H (n, n), g (n,), G (m, n) and h (m,);
    m may be 0, so a (0, n) G poses the unconstrained problem.

    H is taken from its lower triangle, as LAPACK's dpotrf(lower=1) reads
    it: finite values in its strict upper triangle do not change a bit of
    the result, and symmetry is not checked.  Mismatched shapes raise
    ValueError.  A non-finite entry of H, g or h, or an H whose lower
    triangle dpotrf cannot factor (not positive definite), ends 'invalid'.
    G's entries are not checked: a row whose violation reads NaN is never
    satisfied, enters first and ends the solve 'infeasible'.

    With H = L L' and the active rows' normals mapped to W = L^-1 G_A', the
    entering row q is, of the violated rows V, the one with the largest
    (G_q x - h_q) / |v|, v = L^-1 G_q', its distance from x in the metric of
    H (ties to the lowest index; L^-1 G_V' is formed for V alone, so a
    feasible start solves nothing).  Row q moves the primal iterate along
    -z, z = L^-T w, w = v - W r, r = W^+ v, while the active multipliers
    move by -r and its own multiplier grows.  The full step makes row q
    active; a partial step stops where an active multiplier reaches zero
    and drops that row.  If neither step is finite (w = 0 and no r_k > 0),
    no dual step can satisfy row q and the problem is infeasible; w counts
    as 0 when it is below rounding or n rows are already active.  The
    method is finite but has no useful worst-case bound, so active-set
    changes are capped at 2 (m + n), every row entering and leaving once
    plus a full active set; the bundled problems take at most 2 n.
    """
    n, m = g.size, h.size
    if (g.ndim != 1 or h.ndim != 1 or H.shape != (n, n)
            or G.shape != (m, n)):
        raise ValueError("qp_solve: H %s, g %s, G %s and h %s do not match"
                         % (H.shape, g.shape, G.shape, h.shape))
    lam = np.zeros(m)

    def finish(x, status, changes):
        return QpSolution(x=x, lam=lam, status=status, iterations=changes)

    if not (np.isfinite(H).all() and np.isfinite(g).all()
            and np.isfinite(h).all()):
        return finish(np.zeros(n), "invalid", 0)
    L, info = lapack.dpotrf(H, lower=1, clean=1)
    if info != 0:
        return finish(np.zeros(n), "invalid", 0)
    x = -lapack.dpotrs(L, g, lower=1)[0]

    # a row is violated when (G x - h) / max(1, |h|) exceeds 1e-9; it
    # depends on the active rows when its normal, in the metric of H, keeps
    # less than 1e-12 of its length after projection against theirs
    scale = np.maximum(1.0, np.abs(h))
    active = []                       # row indices, in the order added
    W = np.zeros((n, 0))              # L^-1 G_A'
    changes = 0
    max_changes = 2 * (m + n)
    while True:
        slack = G @ x - h
        viol = slack / scale
        viol[active] = 0.0
        q = int(viol.argmax()) if m else 0
        if not m or viol[q] <= 1e-9:
            return finish(x, "optimal", changes)
        # enter the violated row farthest from x in the metric of H; a zero
        # normal scores +inf, enters first and proves infeasibility, and a
        # NaN row, never satisfied, enters first and ends the solve
        V = (~(viol <= 1e-9)).nonzero()[0]
        B = lapack.dtrtrs(L, G[V].T, lower=1)[0]
        with np.errstate(divide="ignore"):
            j = int((slack[V] / np.sqrt((B * B).sum(axis=0))).argmax())
        q, v = int(V[j]), B[:, j]
        while True:
            if changes >= max_changes:
                return finish(x, "iteration_limit", changes)
            # partial step: the first active multiplier to reach zero
            t_part, k = np.inf, -1
            if active:
                # W = Q R by dgeqrf and dorgqr, as np.linalg.qr(W) builds
                # it, with Q copied to C order so that Q'v rounds as it does
                # with numpy's Q.  R r = Q'v is solved as scipy solves it
                # for a C-ordered R, as the lower triangular R' transposed;
                # that reads only R's upper triangle, so qr's top rows serve
                qr, tau = lapack.dgeqrf(W)[:2]
                Q = np.ascontiguousarray(lapack.dorgqr(qr, tau)[0])
                r, info = lapack.dtrtrs(qr[:len(active)].T, Q.T @ v,
                                        lower=1, trans=1)
                if info != 0:
                    raise np.linalg.LinAlgError("singular active-set factor")
                w = v - W @ r
                pos = (r > 0.0).nonzero()[0]
                if pos.size:
                    ratios = lam[np.asarray(active)[pos]] / r[pos]
                    j = int(ratios.argmin())
                    t_part, k = float(ratios[j]), int(pos[j])
            else:
                w = v
            ww = float(w @ w)
            # full step: the violation of row q falls at rate w'w; with n
            # active rows every normal depends on theirs, whatever w's
            # rounding leaves
            t_full = np.inf
            if ww > 1e-24 * float(v @ v) and len(active) < n:
                t_full = float(G[q] @ x - h[q]) / ww
            t = min(t_full, t_part)
            if t == np.inf:
                return finish(x, "infeasible", changes)
            if t_full < np.inf:
                x = x - t * lapack.dtrtrs(L, w, lower=1, trans=1)[0]
            if active:
                lam[active] -= t * r
            lam[q] += t
            changes += 1
            if t_full <= t_part:
                active.append(q)
                W = np.concatenate((W, v[:, None]), axis=1)
                break
            lam[active[k]] = 0.0
            del active[k]
            W = np.concatenate((W[:, :k], W[:, k + 1:]), axis=1)
