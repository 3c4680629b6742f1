"""Dense convex QP solver: operator splitting with an active-set polish.

Solves  min 1/2 x'Hx + g'x  s.t.  Gx <= h_in  via the standard splitting
iteration (fixed penalty, over-relaxation) followed by a reduced KKT solve
on the identified active set.  Problems here are tiny (tens of rows), so a
single dense factorization per solve is the right trade-off and warm
starting matters more than sparsity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla


class QpError(Exception):
    pass


_equil_cache = None


class QpInfeasible(QpError):
    """Primal infeasibility certificate found."""


@dataclass(frozen=True)
class QpProblem:
    H: np.ndarray
    g: np.ndarray
    G: Optional[np.ndarray] = None
    h_in: Optional[np.ndarray] = None
    validate: bool = True    # callers that build H symmetric PSD may skip

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        g = np.asarray(self.g, dtype=float).reshape(-1)
        n = g.size
        if H.shape != (n, n):
            raise ValueError("H must be n x n")
        if self.validate:
            if np.max(np.abs(H - H.T)) > 1e-10:
                raise ValueError("H must be symmetric (tol 1e-10)")
            if np.min(np.linalg.eigvalsh(0.5 * (H + H.T))) < -1e-9:
                raise ValueError("H must be positive semidefinite (tol 1e-9)")
        object.__setattr__(self, "H", 0.5 * (H + H.T))
        object.__setattr__(self, "g", g)
        if (self.G is None) != (self.h_in is None):
            raise ValueError("G and its offsets must be given together")
        if self.G is not None:
            G = np.atleast_2d(np.asarray(self.G, dtype=float))
            h_in = np.asarray(self.h_in, dtype=float).reshape(-1)
            if G.shape != (h_in.size, n):
                raise ValueError("G shape mismatch")
            object.__setattr__(self, "G", G)
            object.__setattr__(self, "h_in", h_in)

    @property
    def n(self) -> int:
        return self.g.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.g @ x)


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    lam: np.ndarray            # inequality multipliers (>= 0 at optimum)
    status: str                # 'optimal' | 'infeasible' | 'iteration_limit'
    iterations: int
    residuals: Tuple[float, float, float, float]
    rho_final: Optional[np.ndarray] = None


def kkt_residuals(p: QpProblem, x, lam) -> Tuple[float, float, float, float]:
    """(stationarity, primal, dual, complementarity) infinity norms."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    stat = p.H @ x + p.g
    primal = dual = comp = 0.0
    if p.G is not None:
        slack = p.G @ x - p.h_in
        stat = stat + p.G.T @ lam
        primal = max(primal, float(np.max(slack, initial=0.0)))
        dual = float(np.max(-lam, initial=0.0))
        comp = float(np.max(np.abs(lam * slack), initial=0.0))
    return (float(np.max(np.abs(stat), initial=0.0)), primal, dual, comp)


def solution_residuals(p: QpProblem, sol: QpSolution):
    return kkt_residuals(p, sol.x, sol.lam)


def _polish(p: QpProblem, x, lam, tol_active=1e-7):
    """Solve the reduced KKT system on the active set; None if it fails."""
    n = p.n
    slack = p.h_in - p.G @ x
    active_idx = np.flatnonzero((slack < tol_active) | (lam > tol_active))
    A_act = p.G[active_idx]
    k = active_idx.size
    KKT = np.zeros((n + k, n + k))
    KKT[:n, :n] = p.H + 1e-12 * np.eye(n)
    KKT[:n, n:] = A_act.T
    KKT[n:, :n] = A_act
    KKT[n:, n:] = -1e-12 * np.eye(k)
    try:
        sol = np.linalg.solve(KKT, np.concatenate([-p.g, p.h_in[active_idx]]))
    except np.linalg.LinAlgError:
        return None
    lam_new = np.zeros_like(lam)
    lam_new[active_idx] = sol[n:]
    if np.min(lam_new, initial=0.0) < -1e-7:
        return None
    return sol[:n], np.maximum(lam_new, 0.0)


def qp_solve(p: QpProblem, warm_start=None, max_iter: int = 4000,
             rho: float = 0.1, alpha: float = 1.6, sigma: float = 1e-6,
             eps: float = 1e-8) -> QpSolution:
    """Operator-splitting solve with over-relaxation and polish.

    ``warm_start`` is an optional (x0, y0, rho0) triple: primal iterate,
    inequality duals and per-row penalties (a previous solution's ``x``,
    ``lam`` and ``rho_final``); any entry may be None.  Infeasibility is
    detected from the divergence direction of the dual iterates.
    """
    n = p.n

    # The constraint matrix is often shared across many solves (SQP, MPC warm
    # starts), so its equilibration is cached on identity; the offsets change
    # every call and are rescaled below.
    global _equil_cache
    cached = _equil_cache
    if cached is not None and cached[0] is p.G:
        A, row_scale = cached[1], cached[2]
    else:
        A = p.G if p.G is not None else np.zeros((0, n))
        # row equilibration: unit-norm constraint rows (zero rows left alone)
        row_norms = np.linalg.norm(A, axis=1)
        row_scale = np.where(row_norms > 1e-12, row_norms, 1.0)
        A = A / row_scale[:, None]
        _equil_cache = (p.G, A, row_scale)
    m = A.shape[0]
    u = p.h_in / row_scale if m else np.zeros(0)

    rho_vec = np.full(m, rho)
    x = np.zeros(n)
    y = np.zeros(m)
    if warm_start is not None:
        x0, y0, rho0 = warm_start
        if rho0 is not None and np.asarray(rho0).shape == (m,):
            rho_vec = np.asarray(rho0, dtype=float).copy()
        if x0 is not None:
            x = np.asarray(x0, dtype=float).copy()
        if y0 is not None:
            y = np.asarray(y0, dtype=float).reshape(-1).copy()
            if y.size != m:
                y = np.zeros(m)
            else:
                y = y * row_scale    # duals live in the scaled row space
    z = np.minimum(A @ x, u)

    def finish(status, iters):
        lam = np.maximum(y / row_scale, 0.0)
        return QpSolution(x=x.copy(), lam=lam, status=status,
                          iterations=iters, residuals=kkt_residuals(p, x, lam),
                          rho_final=rho_vec.copy())

    if m == 0:
        x = np.linalg.solve(p.H + 1e-12 * np.eye(n), -p.g)
        return finish("optimal", 0)

    def factor():
        M = p.H + sigma * np.eye(n) + A.T @ (rho_vec[:, None] * A)
        return sla.cho_factor(M)

    chol = factor()

    finite_u = np.isfinite(u)
    scale = max(1.0, np.max(np.abs(p.g)), np.max(np.abs(u[finite_u]), initial=1.0))

    def converged():
        r_prim = np.max(np.abs(A @ x - z), initial=0.0)
        r_dual = np.max(np.abs(p.H @ x + p.g + A.T @ y), initial=0.0)
        return r_prim < eps * scale and r_dual < eps * scale

    status = "iteration_limit"
    it = 0
    if converged():
        # warm start already satisfies the KKT conditions
        return finish("optimal", 0)
    for it in range(1, max_iter + 1):
        rhs = sigma * x - p.g + A.T @ (rho_vec * z - y)
        x_t = sla.cho_solve(chol, rhs)
        z_t = A @ x_t
        x = alpha * x_t + (1.0 - alpha) * x
        z_r = alpha * z_t + (1.0 - alpha) * z
        y_old = y
        z = np.minimum(z_r + y / rho_vec, u)
        y = y + rho_vec * (z_r - z)

        if it % 100 == 0:
            # residual-balancing penalty update (with refactorization)
            r_p = np.max(np.abs(A @ x - z), initial=0.0)
            r_d = np.max(np.abs(p.H @ x + p.g + A.T @ y), initial=0.0)
            np_ = max(np.max(np.abs(A @ x), initial=0.0), np.max(np.abs(z), initial=0.0), 1e-10)
            nd_ = max(np.max(np.abs(p.H @ x), initial=0.0),
                      np.max(np.abs(A.T @ y), initial=0.0),
                      np.max(np.abs(p.g), initial=0.0), 1e-10)
            ratio = math.sqrt((r_p / np_) / max(r_d / nd_, 1e-16))
            if ratio > 5.0 or ratio < 0.2:
                scale_f = min(max(ratio, 1e-3), 1e3)
                rho_vec = np.clip(rho_vec * scale_f, 1e-6, 1e7)
                chol = factor()

        if it <= 10 or it % 10 == 0:
            if converged():
                status = "optimal"
                break
            # certificate: a nonnegative dual direction y with A'y = 0 and
            # u'y < 0 proves that no x satisfies Ax <= u
            dy = y - y_old
            ndy = np.max(np.abs(dy), initial=0.0)
            if ndy > 1e-12:
                dyn = dy / ndy
                cert_ok = np.max(np.abs(A.T @ dyn), initial=0.0) < 1e-8
                gap = float(np.sum(u[finite_u] * np.maximum(dyn, 0.0)[finite_u]))
                if cert_ok and np.all(dyn >= -1e-8) and gap < -1e-8:
                    return finish("infeasible", it)

    if status == "optimal":
        return finish("optimal", it)
    lam = np.maximum(y / row_scale, 0.0)
    polished = _polish(p, x, lam)
    if polished is not None:
        x_p, lam_p = polished
        res_old = max(kkt_residuals(p, x, lam))
        res_new = max(kkt_residuals(p, x_p, lam_p))
        # never let the polish increase the objective or the KKT error
        if res_new <= res_old and p.objective(x_p) <= p.objective(x) + 1e-12 * scale:
            x, y = x_p, lam_p * row_scale
            status = "optimal" if res_new < 1e-6 else status
    return finish(status, it)
