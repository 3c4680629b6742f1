"""Tube MPC with a learned cost-side model.

The optimization decides perturbations c_i on top of the pre-stabilizing
feedback v_i = K zbar_i + c_i.  Constraints act on the nominal trajectory
zbar (linear in c) with tube-tightened sets, so feasibility is untouched by
the oracle; the cost is evaluated on the learned trajectory z, which rolls
the oracle estimate through the dynamics and is handled by a short
Gauss-Newton SQP loop.

An oracle adapter (one per kind, in the oracle module) gives the solver a
flag, ``is_zero``, that sends a solve to the linear baseline's single QP,
and one method, ``rollout(A, B, x, v)``: the learned trajectory z (z_0 = x,
z_{i+1} = A z_i + B v_i + h(z_i, v_i)) over i = 0..N and the stage
Jacobians dh/d(z_i, v_i) as an (N, d, d+m) array.  Only the closed loop
updates an oracle.  The solver builds the dz/dc stage matrices first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import qp as qpmod
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


def _doubling(A, G, H):
    """P with P = H + A'P(I + GP)^-1 A, by the doubling iteration.

    Each step maps (A, G, H) to (A W A, G + A W G A', H + A'H W A) with
    W = (I + GH)^-1, so H sums twice the horizon of the step before
    (Anderson, Int. J. Control 1978).  The loop stops once every entry of
    A is below 1e-12; with G = 0 a step is P <- P + (M'P)M, M <- MM.  A
    stable iterate gets there within 64 squarings, since (1 - eps)^(2^64)
    underflows; a singular W, a non-finite iterate or no convergence by
    then raises RiccatiDiverged.
    """
    n = A.shape[0]
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            try:
                WAG = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
            except np.linalg.LinAlgError:
                break
            WA, WG = WAG[:, :n], WAG[:, n:]
            H = H + A.T @ H @ WA
            G = G + A @ WG @ A.T
            A = A @ WA
            # a non-finite G reaches A through the next solve
            size = np.max(np.abs(A))
            if not (size < np.inf and np.isfinite(H).all()):
                break
            if size < 1e-12:
                return 0.5 * (H + H.T)
    raise RiccatiDiverged("doubling iteration did not converge")


def synthesize_gain(model, Q, R):
    """Stabilizing feedback from the discrete Riccati equation.

    Solves P = Q + A'P(I + BR^-1 B'P)^-1 A by doubling and returns
    K = -(R + B'PB)^-1 B'PA; the closed loop is verified Schur stable
    before returning.
    """
    A, B = model.A, model.B
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = _doubling(A, B @ np.linalg.solve(R, B.T), Q)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A + B @ K) >= 1.0 - 1e-8:
        raise NotSchurStable("Riccati gain failed the Schur check")
    return K


def solve_lyapunov_P(model, K, Q, R):
    """P with A_cl' P A_cl - P = -(Q + K'RK), by doubling with G = 0."""
    A_cl = model.A + model.B @ np.atleast_2d(K)
    if spectral_radius(A_cl) >= 1.0 - 1e-8:
        raise NotSchurStable("A + BK is not Schur stable")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    S = np.atleast_2d(np.asarray(Q, dtype=float)) + K.T @ np.atleast_2d(np.asarray(R, dtype=float)) @ K
    return _doubling(A_cl, np.zeros_like(A_cl), S)


def margin_ratio(model, K, horizon: int = 80) -> float:
    """Worst asymptotic tube-margin ratio over all constraint rows.

    A value below 1 means the limit tube fits strictly inside the state and
    input sets, which is what the terminal-set construction needs.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_cl = model.A + model.B @ K
    if spectral_radius(A_cl) >= 1.0 - 1e-8:
        return np.inf
    normals = np.vstack([model.X.F, model.U.F @ K])
    try:
        m = tube_margins(A_cl, model.W, normals, horizon)[horizon]
    except NotSchurStable:
        return np.inf
    return float(np.max(m / np.concatenate([model.X.h, model.U.h])))


def synthesize_tube_gain(model, Q, R, target: float = 0.95):
    """Tube feedback gain: the LQR gain of (Q, R), stiffened if needed.

    If the nominal gain leaves no room for the disturbance tube (worst
    asymptotic margin ratio at or above ``target``), the weights are walked
    up a fixed ladder that penalizes the slow flow/pressure states harder
    and cheapens the input, and the first gain whose tube fits is returned.
    A rung whose synthesis fails (no convergence, or a gain that is not
    Schur stable) is skipped.
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
        except (MpcError, NotSchurStable):
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

    def __post_init__(self):
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        object.__setattr__(self, "R", np.atleast_2d(np.asarray(self.R, dtype=float)))
        object.__setattr__(self, "K", np.atleast_2d(np.asarray(self.K, dtype=float)))
        object.__setattr__(self, "P", np.atleast_2d(np.asarray(self.P, dtype=float)))
        if self.N < 1:
            raise ValueError("horizon must be >= 1")


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
    # constant factors of the SQP's H and g, products in the order the
    # solves would form them (Tz'Qbar, Tv'Rbar, Tv'Rbar Tv, 1e-9 I)
    TzQ: np.ndarray = field(init=False)
    TvR: np.ndarray = field(init=False)
    TvRTv: np.ndarray = field(init=False)
    reg: np.ndarray = field(init=False)
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
        self.TzQ, self.TvR = Tz.T @ Qbar, Tv.T @ Rbar
        self.TvRTv = self.TvR @ Tv
        self.reg = 1e-9 * np.eye(N * m)
        self.H_lin = 2.0 * (self.TzQ @ Tz + self.TvRTv)

    @property
    def n_dec(self) -> int:
        return self.cfg.N * self.model.m

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
    Az = A + Jh[:, :, :d]
    Bc = np.matmul(B + Jh[:, :, d:], p.Tv.reshape(-1, m, p.n_dec))
    Jz = np.zeros((p.cfg.N + 1, d, p.n_dec))
    for i in range(p.cfg.N):
        Jz[i + 1] = Az[i] @ Jz[i] + Bc[i]
    return zbar, v, z, Jz.reshape(z.size, p.n_dec)


def _objective(p: LbmpcProblem, z, v):
    return float(z @ p.Qbar @ z + v @ p.Rbar @ v)


def _make_solution(p, x, c, status, sqp_iters, t0, rollout=None):
    if rollout is not None:
        zbar, v, z = rollout
    else:
        zbar, v, z, _ = _learned_rollout(p, x, c)
    d, m, N = p.model.d, p.model.m, p.cfg.N
    return MpcSolution(c=c.copy(), zbar=zbar.reshape(N + 1, d),
                       z=z.reshape(N + 1, d), v=v.reshape(N, m),
                       u=v[:m].copy(), status=status, sqp_iters=sqp_iters,
                       wall_time=time.perf_counter() - t0,
                       objective=_objective(p, z, v))


def _qp_step(prob) -> np.ndarray:
    """Minimizer of one QP; any outcome but 'optimal' is an MpcError."""
    sol = qpmod.qp_solve(prob)
    if sol.status == "infeasible":
        raise MpcInfeasible("QP infeasible")
    if sol.status != "optimal":
        raise MpcError("QP ended '%s'" % sol.status)
    return sol.x


def solve_linear_mpc(p: LbmpcProblem, x) -> MpcSolution:
    """Single tube-MPC QP (zero oracle); cost on the nominal trajectory."""
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    # Sz x and Sv x first: the product order fixes the rounding of the
    # pinned reference traces
    g = 2.0 * (p.TzQ @ (p.Sz @ x) + p.TvR @ (p.Sv @ x))
    prob = qpmod.QpProblem(H=p.H_lin, g=g, G=p.Gc, h_in=p.rhs0 - p.Gx @ x,
                           validate=False)
    return _make_solution(p, x, _qp_step(prob), "optimal", 1, t0)


def solve_lbmpc(p: LbmpcProblem, x, warm=None) -> MpcSolution:
    """Gauss-Newton SQP on the learned-trajectory cost.

    ``warm`` is None or a dict with the shifted previous perturbations
    ``"c"``, the SQP's first linearization point.  Constraints stay linear
    in c, so every iterate is feasible once the first QP succeeds.  On any
    solver failure (a QP that does not end 'optimal', a non-finite oracle
    output among them) the warm ``c`` is returned with status 'fallback' if
    it is feasible at x; otherwise MpcInfeasible is raised.  The wall time
    of either outcome counts from entry.
    """
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    warm = warm or {}
    warm_c = warm.get("c")
    iters = 0
    try:
        if p.oracle.is_zero:
            return solve_linear_mpc(p, x)
        rhs = p.rhs0 - p.Gx @ x
        c = np.zeros(p.n_dec) if warm_c is None else np.array(warm_c, dtype=float)
        for iters in range(1, p.sqp_max_iter + 1):
            zbar, v, z, Jz = _learned_rollout(p, x, c)
            # dv/dc is Tv, so its terms are constants of the problem
            JzQ = Jz.T @ p.Qbar
            H = 2.0 * (JzQ @ Jz + p.TvRTv)
            # clip tiny negative curvature from the Gauss-Newton approximation
            H = 0.5 * (H + H.T) + p.reg
            g = 2.0 * (JzQ @ z + p.TvR @ v)
            prob = qpmod.QpProblem(H=H, g=g, G=p.Gc, h_in=rhs - p.Gc @ c,
                                   validate=False)
            step = _qp_step(prob)
            c = c + step
            if np.linalg.norm(step) < p.sqp_tol:
                # the step is below the SQP tolerance, so a first-order
                # update of the learned trajectory is accurate enough and
                # saves one full network rollout
                zbar, v = p.nominal_traj(x, c)
                z = z + Jz @ step
                return _make_solution(p, x, c, "optimal", iters, t0,
                                      rollout=(zbar, v, z))
        return _make_solution(p, x, c, "optimal", iters, t0)

    except MpcError as exc:
        if warm_c is not None and p.feasible(x, warm_c):
            return _make_solution(p, x, np.asarray(warm_c, dtype=float),
                                  "fallback", iters, t0)
        raise MpcInfeasible("%s; no feasible fallback" % exc) from exc
