"""Tube MPC with a learned cost-side model.

The optimization decides perturbations c_i on top of the pre-stabilizing
feedback v_i = K zbar_i + c_i.  Constraints act on the nominal trajectory
zbar (linear in c) with tube-tightened sets, so feasibility is untouched by
the oracle; the cost is evaluated on the learned trajectory z, which rolls
the oracle estimate through the dynamics.  Each control step takes one
Gauss-Newton step on that cost from the shifted warm start, the real-time
iteration of Diehl, Bock and Schloeder (SIAM J. Control Optim. 2005), in
its two phases.  The preparation (``prepare``) needs no measurement: it
linearizes the cost at a predicted state x_pred and forms the QP's Hessian,
its gradient g0 at x_pred and the gradient's slope M in x.  The feedback
(``solve_lbmpc``) takes the measured x, shifts the gradient to
g0 + M (x - x_pred), forms the constraints at x and solves one QP.  A solve
without a preparation prepares at x itself, so both phases run at the
measurement; that is the one path, and the zero shift adds nothing.

An oracle adapter (one per kind, in the oracle module) gives the solver
one method, ``predict_and_jacobian(z, v)``: the estimate h and its Jacobians
dh/dz, dh/dv at each row of a batch of stages.  The preparation calls it
once, at the N stages (zbar_i, v_i) of the nominal trajectory, and takes
the learned trajectory as the first-order expansion around it:
z = zbar + e with e_0 = 0 and e_{i+1} = (A + dh/dz_i) e_i + h_i, whose error
is second order in z - zbar, which is of the size of W.  The nominal
trajectory needs no state carried between steps, and LBMPC's constraints
act on it alone (Aswani et al., Automatica 2013), so they do not change.
With h = 0 the cost is exactly quadratic and its gradient affine in x, so
the one step is its minimizer wherever it was prepared, and the linear tube
MPC baseline is the same program as the learned one.  Only the closed loop
updates an oracle.
One triangular solve of the block-bidiagonal recursion gives e and dz/dc
together (see _learned_rollout).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import qp as qpmod
from .polytope import (Polytope, TighteningData, NotSchurStable,
                       _require_schur, tube_margins)


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
    _require_schur(A + B @ K)
    return K


def solve_lyapunov_P(model, K, Q, R):
    """P with A_cl' P A_cl - P = -(Q + K'RK), by doubling with G = 0."""
    A_cl = model.A + model.B @ np.atleast_2d(K)
    _require_schur(A_cl)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    S = np.atleast_2d(np.asarray(Q, dtype=float)) + K.T @ np.atleast_2d(np.asarray(R, dtype=float)) @ K
    return _doubling(A_cl, np.zeros_like(A_cl), S)


def margin_ratio(model, K, horizon: int = 80) -> float:
    """Worst asymptotic tube-margin ratio over all constraint rows.

    A value below 1 means the limit tube fits strictly inside the state and
    input sets, which is what the terminal-set construction needs.  A gain
    whose closed loop is not Schur stable has no limit tube: infinity.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_cl = model.A + model.B @ K
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
    # cost: the state weights stacked over the trajectory, and the constant
    # parts of the QP's H and g and of the gradient's slope in x, for half
    # the cost (see prepare): Tv'Rbar Tv + 5e-10 I, Tv'Rbar, Qbar Sz and
    # Tv'Rbar Sv, with Rbar = I_N (x) R
    Qbar: np.ndarray = field(init=False)
    H_v: np.ndarray = field(init=False)
    TvR: np.ndarray = field(init=False)
    QbarSz: np.ndarray = field(init=False)
    TvRSv: np.ndarray = field(init=False)
    # for _learned_rollout: Tv by stage (a view), and the flat positions in
    # its transposed triangular matrix of entry [i, b, a] of (-A - dh/dz_i)
    Tv_stages: np.ndarray = field(init=False)
    sub_index: np.ndarray = field(init=False)

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
        rows_G, rows_X, rows_rhs, checks = [], [], [], []
        for i in range(N):
            rhs = X.h - self.margins.state[i]
            checks.append((X, rhs, i, "state"))
            rows_G.append(X.F @ Tz[i * d:(i + 1) * d])
            rows_X.append(X.F @ Sz[i * d:(i + 1) * d])
            rows_rhs.append(rhs)
        for i in range(N):
            rhs = U.h - self.margins.inputs[i]
            checks.append((U, rhs, i, "input"))
            rows_G.append(U.F @ Tv[i * m:(i + 1) * m])
            rows_X.append(U.F @ Sv[i * m:(i + 1) * m])
            rows_rhs.append(rhs)
        rhs = self.omega.h - self.margins.terminal
        checks.append((self.omega, rhs, N, "terminal"))
        rows_G.append(self.omega.F @ Tz[N * d:])
        rows_X.append(self.omega.F @ Sz[N * d:])
        rows_rhs.append(rhs)
        self.Gc = np.vstack(rows_G)
        self.Gx = np.vstack(rows_X)
        self.rhs0 = np.concatenate(rows_rhs)
        # a NaN would end every QP 'invalid' or make linprog raise its own
        # ValueError, so non-finite data is refused before any emptiness test
        for name in ("Gc", "Gx", "rhs0"):
            if not np.isfinite(getattr(self, name)).all():
                raise MpcError("constraint data %s not finite" % name)
        for args in checks:
            _check_nonempty(*args)

        Qbar = np.zeros(((N + 1) * d, (N + 1) * d))
        for i in range(N):
            Qbar[i * d:(i + 1) * d, i * d:(i + 1) * d] = cfg.Q
        Qbar[N * d:, N * d:] = cfg.P
        self.Qbar = Qbar
        self.TvR = Tv.T @ np.kron(np.eye(N), cfg.R)
        self.H_v = self.TvR @ Tv + 5e-10 * np.eye(N * m)
        self.QbarSz = Qbar @ Sz
        self.TvRSv = self.TvR @ Sv
        self.Tv_stages = Tv.reshape(N, m, N * m)
        i, b, a = np.ogrid[:N, :d, :d]
        self.sub_index = ((i * d + a) * (N + 1) + i + 1) * d + b

    @property
    def n_dec(self) -> int:
        return self.cfg.N * self.model.m

    def feasible(self, x, c, tol: float = 1e-7) -> bool:
        return bool((self.Gc @ c <= self.rhs0 - self.Gx @ x + tol).all())


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
    u: np.ndarray         # applied input, v_0
    status: str           # 'optimal' | 'fallback'
    sqp_iters: int        # Gauss-Newton steps taken, always 1
    wall_time: float


def shift_solution(prev: MpcSolution, m: int):
    """Warm start (c_1, ..., c_{N-1}, 0) from the previous optimizer."""
    c = np.concatenate([prev.c[m:], np.zeros(m)])
    return c


def _learned_rollout(p: LbmpcProblem, x, c):
    """Nominal inputs v, learned trajectory z and dz/dc (stacked).

    One oracle call gives h and its Jacobians at the N nominal stages
    (zbar_i, v_i).  The learned trajectory is its first-order expansion
    z = zbar + e, with e_0 = 0 and e_{i+1} = (A + dh/dz_i) e_i + h_i, and
    dz/dc solves Jz_{i+1} - (A + dh/dz_i) Jz_i = (B + dh/dv_i) Tv_i with
    Jz_0 = 0.  Both recursions have the same unit lower block-bidiagonal
    matrix, so one triangular solve with [h | (B + dh/dv) Tv] on the right
    gives [e | dz/dc]; dz/dc holds the stage Jacobians at their values, as
    the Gauss-Newton model does.  The matrix is stored transposed in C
    order, so that LAPACK reads it in Fortran order without a copy; its
    sub-diagonal blocks go in through the problem's flat ``sub_index``.
    """
    A, B = p.model.A, p.model.B
    d, m = B.shape
    N, nc = p.cfg.N, p.n_dec
    zbar = p.Sz @ x + p.Tz @ c
    v = p.Sv @ x + p.Tv @ c
    h, dh_dz, dh_dv = p.oracle.predict_and_jacobian(
        zbar[:N * d].reshape(N, d), v.reshape(N, m))
    rhs = np.zeros((N + 1, d, 1 + nc))
    rhs[1:, :, 0] = h
    np.matmul(B + dh_dv, p.Tv_stages, out=rhs[1:, :, 1:])
    n = (N + 1) * d
    Lt = np.zeros(n * n)
    Lt[p.sub_index] = -A - dh_dz
    eJ, _ = lapack.dtrtrs(Lt.reshape(n, n).T, rhs.reshape(n, 1 + nc),
                          lower=1, unitdiag=1)
    if not np.isfinite(eJ).all():
        raise MpcError("oracle output not finite")
    return v, zbar + eJ[:, 0], eJ[:, 1:]


def _make_solution(p, x, c, status, t0):
    """The solution at c, its input v_0 = K x + c_0 (zbar_0 is x): the
    nominal map's first rows, Sv[:m] = K and Tv[:m] = [I 0], without the
    products by their identity and zero blocks."""
    return MpcSolution(c=c, u=p.cfg.K @ x + c[:p.model.m],
                       status=status, sqp_iters=1,
                       wall_time=time.perf_counter() - t0)


@dataclass
class Preparation:
    """The cost of one step linearized at a predicted state.

    H is the QP's Hessian, g0 its gradient at ``x_pred`` and M the
    gradient's slope in the state, so the gradient at x is
    g0 + M (x - x_pred); ``rhs_c`` is rhs0 - Gc c, the constraints' right
    side but for -Gx x.  A preparation whose rollout raised MpcError holds
    the error instead, for the feedback that uses it.  The feedback only
    reads it, so one preparation serves any number of feedbacks.
    """

    x_pred: np.ndarray
    c: np.ndarray
    H: np.ndarray | None
    g0: np.ndarray | None
    M: np.ndarray | None
    rhs_c: np.ndarray | None
    error: MpcError | None
    wall_time: float


def prepare(p: LbmpcProblem, x_pred, c=None) -> Preparation:
    """The preparation phase: linearize the cost at ``x_pred`` and ``c``.

    ``c`` is None (zero) or the shifted previous perturbations.  One
    learned rollout (one oracle call) gives z and dz/dc; the measurement is
    not needed.  An MpcError of the rollout is held, not raised.
    """
    t0 = time.perf_counter()
    x_pred = np.asarray(x_pred, dtype=float).reshape(-1)
    c = np.zeros(p.n_dec) if c is None else np.array(c, dtype=float)
    try:
        v, z, Jz = _learned_rollout(p, x_pred, c)
    except MpcError as exc:
        return Preparation(x_pred, c, None, None, None, None, exc,
                           time.perf_counter() - t0)
    # The QP takes half the Gauss-Newton model of z'Qbar z + v'Rbar v,
    # which has the same minimizer: H = dz/dc' Qbar dz/dc + Tv'Rbar Tv and
    # g = dz/dc' Qbar z + Tv'Rbar v, as dv/dc is Tv; the QP reads only H's
    # lower triangle, so H is not symmetrized, and its 5e-10 I clips tiny
    # negative curvature.  With dz/dc held at its value, dz/dx is Sz and
    # dv/dx is Sv, which gives the slope M.
    JzQ = Jz.T @ p.Qbar
    return Preparation(x_pred, c, JzQ @ Jz + p.H_v, JzQ @ z + p.TvR @ v,
                       Jz.T @ p.QbarSz + p.TvRSv, p.rhs0 - p.Gc @ c, None,
                       time.perf_counter() - t0)


def solve_lbmpc(p: LbmpcProblem, x, warm_c=None,
                prep: Preparation | None = None) -> MpcSolution:
    """The feedback phase: one QP at the measured ``x``.

    ``warm_c`` is None or the shifted previous perturbations, and ``prep``
    is ``prepare(p, x_pred, warm_c)`` at a predicted state, or None to
    prepare at x itself.  The QP's gradient is shifted from x_pred to x and
    its constraints are formed at x; they are linear in c, so c + step is
    feasible.  On any solver failure (a preparation that holds an error,
    or a QP that does not end 'optimal') ``warm_c`` is returned with status
    'fallback' if it is feasible at x; otherwise MpcInfeasible is raised.
    The wall time of either outcome counts from entry, a preparation made
    here included.
    """
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    if prep is None:
        prep = prepare(p, x, warm_c)
    try:
        if prep.error is not None:
            raise prep.error
        sol = qpmod.qp_solve(prep.H, prep.g0 + prep.M @ (x - prep.x_pred),
                             p.Gc, prep.rhs_c - p.Gx @ x)
        if sol.status != "optimal":
            raise MpcError("QP ended '%s'" % sol.status)
        return _make_solution(p, x, prep.c + sol.x, "optimal", t0)

    except MpcError as exc:
        if warm_c is not None and p.feasible(x, warm_c):
            return _make_solution(p, x, np.array(warm_c, dtype=float),
                                  "fallback", t0)
        raise MpcInfeasible("%s; no feasible fallback" % exc) from exc
