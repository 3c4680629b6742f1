"""Tube MPC with a learned cost-side model.

The optimization decides perturbations c_i on top of the pre-stabilizing
feedback v_i = K zbar_i + c_i.  Constraints act on the nominal trajectory
zbar (linear in c) with tube-tightened sets, so feasibility is untouched by
the oracle; the cost is evaluated on the learned trajectory z, which rolls
the oracle estimate through the dynamics and is handled by a short
Gauss-Newton SQP loop.

An oracle adapter gives the solver one method, ``rollout(A, B, x, v)``: the
learned trajectory z (z_0 = x, z_{i+1} = A z_i + B v_i + h(z_i, v_i)) stacked
over i = 0..N, and the stage Jacobians dh/d(z_i, v_i) as an (N, d, d+m)
array, from which the solver propagates dz/dc.  The network rolls out with
its chain-rule products batched over stages; the kernel and zero oracles go
stage by stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import oracle as om, qp as qpmod
from .polytope import (Polytope, TighteningData, NotSchurStable, spectral_radius,
                       tube_margins)


class MpcError(Exception):
    pass


class RiccatiDiverged(MpcError):
    pass


class EmptyTightenedSet(MpcError):
    def __init__(self, stage, kind):
        self.stage = stage
        self.kind = kind
        super().__init__("tightened %s set empty at stage %d" % (kind, stage))


class MpcInfeasible(MpcError):
    """No feasible perturbation sequence and no fallback available."""


def synthesize_gain(model, Q, R, max_iter: int = 10000, tol: float = 1e-10):
    """Stabilizing feedback from the discrete Riccati fixed point.

    Iterates P <- Q + A'PA - A'PB (R + B'PB)^-1 B'PA until stationary and
    returns K = -(R + B'PB)^-1 B'PA; the closed loop is verified Schur
    stable before returning.
    """
    A, B = model.A, model.B
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        K_mat = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ K_mat
        delta = np.max(np.abs(P_next - P))
        P = 0.5 * (P_next + P_next.T)
        if delta < tol:
            break
    else:
        raise RiccatiDiverged("Riccati iteration stalled above %.1e" % tol)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A + B @ K) >= 1.0 - 1e-8:
        raise NotSchurStable("Riccati gain failed the Schur check")
    return K


def solve_lyapunov_P(model, K, Q, R, tol: float = 1e-12):
    """P with A_cl' P A_cl - P = -(Q + K'RK), by the doubling iteration."""
    A_cl = model.A + model.B @ np.atleast_2d(K)
    if spectral_radius(A_cl) >= 1.0 - 1e-8:
        raise NotSchurStable("A + BK is not Schur stable")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    S = np.atleast_2d(np.asarray(Q, dtype=float)) + K.T @ np.atleast_2d(np.asarray(R, dtype=float)) @ K
    M = A_cl.copy()
    P = S.copy()
    for _ in range(200):
        P = P + M.T @ P @ M
        M = M @ M
        if np.max(np.abs(M)) < tol:
            break
    return 0.5 * (P + P.T)


def margin_ratio(model, K, horizon: int = 80) -> float:
    """Worst asymptotic tube-margin ratio over all constraint rows.

    A value below 1 means the limit tube fits strictly inside the state and
    input sets, which is what the terminal-set construction needs.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_cl = model.A + model.B @ K
    if spectral_radius(A_cl) >= 1.0 - 1e-8:
        return np.inf
    try:
        mx = tube_margins(A_cl, model.W, model.X.F, horizon)[horizon]
        mu = tube_margins(A_cl, model.W, model.U.F @ K, horizon)[horizon]
    except NotSchurStable:
        return np.inf
    return float(max(np.max(mx / model.X.h), np.max(mu / model.U.h)))


def synthesize_tube_gain(model, Q, R, target: float = 0.95):
    """Tube feedback gain: the LQR gain of (Q, R), stiffened if needed.

    If the nominal gain leaves no room for the disturbance tube (worst
    asymptotic margin ratio at or above ``target``), the weights are walked
    up a fixed ladder that penalizes the slow flow/pressure states harder
    and cheapens the input, and the first gain whose tube fits is returned.
    The ladder keeps the gain entries moderate on purpose: an aggressive
    gain shrinks the terminal set until nothing can reach it.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    best = None
    best_ratio = np.inf
    for q_scale, r_scale in ((1.0, 1.0), (4.0, 0.3), (16.0, 0.1),
                             (64.0, 0.1), (256.0, 0.03)):
        Qs = Q.copy()
        k = min(2, Qs.shape[0])
        Qs[:k, :k] = Qs[:k, :k] * np.diag([q_scale, q_scale / 8.0][:k])
        try:
            K = synthesize_gain(model, Qs, R * r_scale)
        except MpcError:
            continue
        ratio = margin_ratio(model, K)
        if ratio < best_ratio:
            best, best_ratio = K, ratio
        if ratio < target:
            return K
    if best is None or best_ratio >= 1.0:
        raise MpcError("no gain found with a feasible disturbance tube")
    return best


@dataclass(frozen=True)
class ControllerConfig:
    N: int
    Q: np.ndarray
    R: np.ndarray
    K: np.ndarray
    P: np.ndarray
    x_ref: np.ndarray
    u_ref: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        object.__setattr__(self, "R", np.atleast_2d(np.asarray(self.R, dtype=float)))
        object.__setattr__(self, "K", np.atleast_2d(np.asarray(self.K, dtype=float)))
        object.__setattr__(self, "P", np.atleast_2d(np.asarray(self.P, dtype=float)))
        object.__setattr__(self, "x_ref", np.asarray(self.x_ref, dtype=float).reshape(-1))
        object.__setattr__(self, "u_ref", np.asarray(self.u_ref, dtype=float).reshape(-1))
        if self.N < 1:
            raise ValueError("horizon must be >= 1")


# ---------------------------------------------------------------------------
# oracle handles seen by the solver


def _stagewise_rollout(A, B, x, v, stage):
    """Rollout through ``stage(z_i, v_i) -> (h, dh/dz, dh/dv)``, one stage
    after the other."""
    d, m = B.shape
    N = v.size // m
    z = np.zeros((N + 1) * d)
    z[:d] = x
    Jh = np.zeros((N, d, d + m))
    for i in range(N):
        zi = z[i * d:(i + 1) * d]
        vi = v[i * m:(i + 1) * m]
        hi, Jh[i, :, :d], Jh[i, :, d:] = stage(zi, vi)
        z[(i + 1) * d:(i + 2) * d] = A @ zi + B @ vi + hi
    return z, Jh


class ZeroOracle:
    """h-hat == 0; collapses LBMPC to the linear tube MPC baseline."""

    is_zero = True

    def predict(self, x, u):
        return np.zeros(np.asarray(x).reshape(-1).size)

    def rollout(self, A, B, x, v):
        d, m = B.shape
        zero = (np.zeros(d), np.zeros((d, d)), np.zeros((d, m)))
        return _stagewise_rollout(A, B, x, v, lambda z, u: zero)


class DnnOracle:
    """Adapter exposing the live network state to the SQP loop."""

    is_zero = False

    def __init__(self, state):
        self.state = state

    def rollout(self, A, B, x, v):
        """Network rollout with the stage Jacobians batched.

        The forward pass is sequential (each stage feeds the next), but the
        tanh chain-rule products are independent across stages once the
        activations are known, so they run as one batched matmul per layer.
        """
        d, m = B.shape
        N = v.size // m
        hidden = self.state.hidden
        K0, K1 = self.state.K[0], self.state.K[1:]
        z = np.zeros((N + 1) * d)
        z[:d] = x
        acts = [np.empty((N, Wl.shape[1])) for Wl, _ in hidden]
        for i in range(N):
            zi = z[i * d:(i + 1) * d]
            vi = v[i * m:(i + 1) * m]
            a = np.concatenate([zi, vi])
            for li, (Wl, bl) in enumerate(hidden):
                a = np.tanh(a @ Wl + bl)
                acts[li][i] = a
            z[(i + 1) * d:(i + 2) * d] = A @ zi + B @ vi + (K0 + a @ K1)
        J = None
        for (Wl, _), al in zip(hidden, acts):
            layer = (1.0 - al ** 2)[:, :, None] * Wl.T[None]
            J = layer if J is None else layer @ J
        return z, np.matmul(K1.T, J)


class L2nwOracle:
    """Adapter around the kernel baseline estimator."""

    is_zero = False

    def __init__(self, est):
        self.est = est

    def predict(self, x, u):
        return om.l2nw_predict(self.est, x, u)

    def rollout(self, A, B, x, v):
        return _stagewise_rollout(
            A, B, x, v, partial(om.l2nw_predict_and_jacobian, self.est))


# ---------------------------------------------------------------------------
# problem assembly


@dataclass
class LbmpcProblem:
    """Offline-assembled matrices of the tube MPC program."""

    model: object
    cfg: ControllerConfig
    omega: Polytope
    margins: TighteningData
    oracle: object
    # prediction maps: zbar = Sz x + Tz c (stacked over i = 0..N),
    #                  v = Sv x + Tv c (stacked over i = 0..N-1)
    Sz: np.ndarray = field(init=False)
    Tz: np.ndarray = field(init=False)
    Sv: np.ndarray = field(init=False)
    Tv: np.ndarray = field(init=False)
    # constraints: Gc c <= rhs0 - Gx x
    Gc: np.ndarray = field(init=False)
    Gx: np.ndarray = field(init=False)
    rhs0: np.ndarray = field(init=False)
    # cost: quadratic weights stacked over the trajectory
    Qbar: np.ndarray = field(init=False)
    Rbar: np.ndarray = field(init=False)
    H_lin: np.ndarray = field(init=False)
    sqp_max_iter: int = 5
    sqp_tol: float = 1e-8

    def __post_init__(self):
        model, cfg = self.model, self.cfg
        d, m, N = model.d, model.m, cfg.N
        A, B, K = model.A, model.B, cfg.K
        A_cl = A + B @ K

        Sz = np.zeros(((N + 1) * d, d))
        Tz = np.zeros(((N + 1) * d, N * m))
        Sz[:d] = np.eye(d)
        for i in range(1, N + 1):
            Sz[i * d:(i + 1) * d] = A_cl @ Sz[(i - 1) * d:i * d]
            Tz[i * d:(i + 1) * d] = A_cl @ Tz[(i - 1) * d:i * d]
            Tz[i * d:(i + 1) * d, (i - 1) * m:i * m] += B
        Sv = np.zeros((N * m, d))
        Tv = np.zeros((N * m, N * m))
        for i in range(N):
            Sv[i * m:(i + 1) * m] = K @ Sz[i * d:(i + 1) * d]
            Tv[i * m:(i + 1) * m] = K @ Tz[i * d:(i + 1) * d]
            Tv[i * m:(i + 1) * m, i * m:(i + 1) * m] += np.eye(m)
        self.Sz, self.Tz, self.Sv, self.Tv = Sz, Tz, Sv, Tv

        X, U = model.X, model.U
        rows_G, rows_X, rows_rhs = [], [], []
        for i in range(N):
            rhs = X.h - self.margins.state[i]
            _check_nonempty(X, rhs, i, "state")
            rows_G.append(X.F @ Tz[i * d:(i + 1) * d])
            rows_X.append(X.F @ Sz[i * d:(i + 1) * d])
            rows_rhs.append(rhs)
        for i in range(N):
            rhs = U.h - self.margins.inputs[i]
            _check_nonempty(U, rhs, i, "input")
            rows_G.append(U.F @ Tv[i * m:(i + 1) * m])
            rows_X.append(U.F @ Sv[i * m:(i + 1) * m])
            rows_rhs.append(rhs)
        rhs = self.omega.h - self.margins.terminal
        _check_nonempty(self.omega, rhs, N, "terminal")
        rows_G.append(self.omega.F @ Tz[N * d:])
        rows_X.append(self.omega.F @ Sz[N * d:])
        rows_rhs.append(rhs)
        self.Gc = np.vstack(rows_G)
        self.Gx = np.vstack(rows_X)
        self.rhs0 = np.concatenate(rows_rhs)

        Qbar = np.zeros(((N + 1) * d, (N + 1) * d))
        for i in range(N):
            Qbar[i * d:(i + 1) * d, i * d:(i + 1) * d] = cfg.Q
        Qbar[N * d:, N * d:] = cfg.P
        Rbar = np.zeros((N * m, N * m))
        for i in range(N):
            Rbar[i * m:(i + 1) * m, i * m:(i + 1) * m] = cfg.R
        self.Qbar, self.Rbar = Qbar, Rbar
        self.H_lin = 2.0 * (Tz.T @ Qbar @ Tz + Tv.T @ Rbar @ Tv)

    @property
    def n_dec(self) -> int:
        return self.cfg.N * self.model.m

    def refs(self):
        N, d, m = self.cfg.N, self.model.d, self.model.m
        return (np.tile(self.cfg.x_ref, N + 1), np.tile(self.cfg.u_ref, N))

    def nominal_traj(self, x, c):
        zbar = self.Sz @ x + self.Tz @ c
        v = self.Sv @ x + self.Tv @ c
        return zbar, v

    def feasible(self, x, c, tol: float = 1e-7) -> bool:
        return bool(np.all(self.Gc @ c <= self.rhs0 - self.Gx @ x + tol))


def _check_nonempty(P, h, stage, kind):
    if P.is_empty_at(h):
        raise EmptyTightenedSet(stage, kind)


def build_margins(model, cfg: ControllerConfig, omega: Polytope) -> TighteningData:
    """Tube margins for the state, input and terminal rows over the horizon."""
    A_cl = model.A + model.B @ cfg.K
    N = cfg.N
    state = tube_margins(A_cl, model.W, model.X.F, N)
    inputs = tube_margins(A_cl, model.W, model.U.F @ cfg.K, N)[:N]
    terminal = tube_margins(A_cl, model.W, omega.F, N)[N]
    return TighteningData(state=state, inputs=inputs, terminal=terminal)


# ---------------------------------------------------------------------------
# solves


@dataclass(frozen=True)
class MpcSolution:
    c: np.ndarray
    zbar: np.ndarray      # (N+1, d) nominal trajectory
    z: np.ndarray         # (N+1, d) learned trajectory
    v: np.ndarray         # (N, m)
    u: np.ndarray         # applied input, v_0
    status: str           # 'optimal' | 'fallback'
    sqp_iters: int
    wall_time: float
    objective: float
    qp_dual: Optional[np.ndarray] = None
    qp_rho: Optional[np.ndarray] = None


def shift_solution(prev: MpcSolution, m: int):
    """Warm start (c_1, ..., c_{N-1}, 0) from the previous optimizer."""
    c = np.concatenate([prev.c[m:], np.zeros(m)])
    return c


def _learned_rollout(p: LbmpcProblem, x, c):
    """Nominal and learned trajectories, and dz/dc (stacked)."""
    A, B = p.model.A, p.model.B
    d, m = B.shape
    zbar, v = p.nominal_traj(x, c)
    z, Jh = p.oracle.rollout(A, B, x, v)
    Jz = np.zeros((z.size, p.n_dec))
    for i in range(p.cfg.N):
        dv_dc = p.Tv[i * m:(i + 1) * m]
        Jz[(i + 1) * d:(i + 2) * d] = (
            (A + Jh[i, :, :d]) @ Jz[i * d:(i + 1) * d]
            + (B + Jh[i, :, d:]) @ dv_dc)
    return zbar, v, z, Jz


def _objective(p: LbmpcProblem, z, v):
    x_ref, u_ref = p.refs()
    dz = z - x_ref
    dv = v - u_ref
    return float(dz @ p.Qbar @ dz + dv @ p.Rbar @ dv)


def _make_solution(p, x, c, status, sqp_iters, t0, dual=None, rho=None,
                   rollout=None):
    if rollout is not None:
        zbar, v, z = rollout
    else:
        zbar, v, z, _ = _learned_rollout(p, x, c)
    d, m, N = p.model.d, p.model.m, p.cfg.N
    return MpcSolution(c=c.copy(), zbar=zbar.reshape(N + 1, d),
                       z=z.reshape(N + 1, d), v=v.reshape(N, m),
                       u=v[:m].copy(), status=status, sqp_iters=sqp_iters,
                       wall_time=time.perf_counter() - t0,
                       objective=_objective(p, z, v), qp_dual=dual, qp_rho=rho)


def solve_linear_mpc(p: LbmpcProblem, x, warm=None) -> MpcSolution:
    """Single tube-MPC QP (zero oracle); cost on the nominal trajectory."""
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    x_ref, u_ref = p.refs()
    g = 2.0 * (p.Tz.T @ p.Qbar @ (p.Sz @ x - x_ref) + p.Tv.T @ p.Rbar @ (p.Sv @ x - u_ref))
    prob = qpmod.QpProblem(H=p.H_lin, g=g, G=p.Gc, h_in=p.rhs0 - p.Gx @ x,
                           validate=False)
    warm = warm or {}
    sol = qpmod.qp_solve(prob, warm_start=(warm.get("c"), warm.get("dual"),
                                           warm.get("rho")))
    if sol.status == "infeasible":
        raise MpcInfeasible("tube MPC program infeasible")
    if sol.status == "iteration_limit" and max(sol.residuals) > 1e-4:
        raise MpcError("tube MPC QP failed to converge")
    return _make_solution(p, x, sol.x, "optimal", 1, t0, dual=sol.lam,
                          rho=sol.rho_final)


def solve_lbmpc(p: LbmpcProblem, x, warm=None) -> MpcSolution:
    """Gauss-Newton SQP on the learned-trajectory cost.

    ``warm`` is None or a dict with the shifted previous perturbations
    ``"c"``, the previous QP duals ``"dual"`` and penalties ``"rho"``.
    Constraints stay linear in c, so every iterate is feasible once the
    first QP succeeds.  On any solver failure the warm ``c`` is returned
    with status 'fallback' if it is feasible at x; otherwise MpcInfeasible
    is raised.  The wall time of either outcome counts from entry.
    """
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    warm = warm or {}
    warm_c = warm.get("c")
    iters = 0
    try:
        if p.oracle.is_zero:
            return solve_linear_mpc(p, x, warm=warm)
        x_ref, u_ref = p.refs()
        rhs = p.rhs0 - p.Gx @ x
        c = np.zeros(p.n_dec) if warm_c is None else np.array(warm_c, dtype=float)
        dual = None if warm_c is None else warm.get("dual")
        rho = warm.get("rho")
        for iters in range(1, p.sqp_max_iter + 1):
            zbar, v, z, Jz = _learned_rollout(p, x, c)
            Jv = p.Tv
            dz = z - x_ref
            dv = v - u_ref
            H = 2.0 * (Jz.T @ p.Qbar @ Jz + Jv.T @ p.Rbar @ Jv)
            # clip tiny negative curvature from the Gauss-Newton approximation
            H = 0.5 * (H + H.T) + 1e-9 * np.eye(H.shape[0])
            g = 2.0 * (Jz.T @ p.Qbar @ dz + Jv.T @ p.Rbar @ dv)
            prob = qpmod.QpProblem(H=H, g=g, G=p.Gc, h_in=rhs - p.Gc @ c,
                                   validate=False)
            sol = qpmod.qp_solve(prob, warm_start=(np.zeros(p.n_dec), dual, rho))
            if sol.status == "infeasible":
                raise MpcInfeasible("SQP subproblem infeasible")
            if sol.status == "iteration_limit" and max(sol.residuals) > 1e-4:
                raise MpcError("QP failed to converge")
            dual = sol.lam
            rho = sol.rho_final
            c = c + sol.x
            if np.linalg.norm(sol.x) < p.sqp_tol:
                # the step is below the SQP tolerance, so a first-order
                # update of the learned trajectory is accurate enough and
                # saves one full network rollout
                zbar, v = p.nominal_traj(x, c)
                z = z + Jz @ sol.x
                return _make_solution(p, x, c, "optimal", iters, t0,
                                      dual=dual, rho=rho,
                                      rollout=(zbar, v, z))
        return _make_solution(p, x, c, "optimal", iters, t0, dual=dual, rho=rho)

    except MpcError as exc:
        if warm_c is not None and p.feasible(x, warm_c):
            return _make_solution(p, x, np.asarray(warm_c, dtype=float),
                                  "fallback", iters, t0)
        raise MpcInfeasible("%s; no feasible fallback" % exc) from exc
