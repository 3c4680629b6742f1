"""Tube MPC with a learned cost-side model.

The optimization decides perturbations c_i on top of the pre-stabilizing
feedback v_i = K zbar_i + c_i.  Constraints act on the nominal trajectory
zbar (linear in c) with tube-tightened sets, so feasibility is untouched by
the oracle; the cost is evaluated on the learned trajectory z, which rolls
the oracle estimate through the dynamics.  Each control step takes one
Gauss-Newton step on that cost from the shifted warm start, the real-time
iteration of Diehl, Bock and Schloeder (SIAM J. Control Optim. 2005), in
its two phases; as every step takes exactly one, the trace logs no count
of them.  The preparation (``prepare``) needs no measurement: it
linearizes the cost at a predicted state x_pred and forms the QP's Hessian
and its Cholesky factor (qp.factor), its gradient g0 at x_pred and the
gradient's slope M in x, and from the factor the QP's unconstrained
minimizer and the constraint rows' slack there, both affine in
dx = x - x_pred.  Where that minimizer violates a row at x_pred, the
preparation also solves the QP there once and folds its active set into
the affine maps, which then give the multipliers as well.  The feedback
(``solve_lbmpc``) takes the measured x and solves one QP
(``feedback_qp``): where the prepared step violates no row and no prepared
multiplier is negative, x has the active set of x_pred, the solution is
the affine step, and no active-set iteration runs (the piece of the
parametric QP on one active set, along which online active-set methods
follow the solution, Ferreau, Bock and Diehl, Int. J. Robust Nonlinear
Control 2008); otherwise it shifts the gradient to g0 + M dx, forms the
constraints at x and hands the QP to qp_solve, from the prepared factor.
The feedback reads the maps as the preparation's ``offset`` and
``slope``, the rows it multiplies, and tests the slack and finiteness
first.  Where no row binds, the multipliers are the problem's one
read-only zero vector, made at assembly, so the affine step costs dx, one
product, the two tests, the input K x + c_0 and the two slotted records it
returns, the QP's QpSolution and the step's MpcSolution.  A solve without
a preparation prepares at x itself, so both phases run at the
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

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import qp as qpmod
from ._memo import memoized
from .polytope import (Polytope, TighteningData, NotSchurStable,
                       _require_schur, stacked_leq, tube_margins)


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


@memoized
def solve_lyapunov_P(model, K, Q, R):
    """P with A_cl' P A_cl - P = -(Q + K'RK), by doubling with G = 0.

    Memoized by its arguments' content: returns a shared, read-only result.
    """
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


@memoized
def synthesize_tube_gain(model, Q, R, target: float = 0.95):
    """Tube feedback gain: the LQR gain of (Q, R), stiffened if needed.

    If the nominal gain leaves no room for the disturbance tube (worst
    asymptotic margin ratio at or above ``target``), the weights are walked
    up a fixed ladder that penalizes the slow flow/pressure states harder
    and cheapens the input, and the first gain whose tube fits is returned.
    A rung whose synthesis fails (no convergence, or a gain that is not
    Schur stable) is skipped.
    The ladder keeps the gain entries moderate on purpose: an aggressive
    gain shrinks the terminal set until nothing can reach it.  Memoized by
    its arguments' content: returns a shared, read-only result.
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
    # constraints: Gc c <= rhs0 - Gx x.  For prepare, Gc and Gx are views
    # into step_slack, [[I, 0, 0], [Gc, Gx, -rhs0]], which takes (c, x, 1)
    # to c and the rows' slack Gc c + Gx x - rhs0; prepare fills its row
    # vectors into a copy of affine_seed, [[0, 0, 1], [0, I, 0]]
    Gc: np.ndarray = field(init=False)
    Gx: np.ndarray = field(init=False)
    rhs0: np.ndarray = field(init=False)
    step_slack: np.ndarray = field(init=False)
    affine_seed: np.ndarray = field(init=False)
    # the multipliers of a QP solved with no active row, zero for every
    # row: one read-only vector that every such feedback returns
    zero_lam: np.ndarray = field(init=False)
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
        nc = N * m
        Gc = np.vstack(rows_G)
        G = np.zeros((nc + Gc.shape[0], nc + d + 1))
        G[:nc, :nc] = np.eye(nc)
        G[nc:, :nc] = Gc
        G[nc:, nc:-1] = np.vstack(rows_X)
        self.rhs0 = np.concatenate(rows_rhs)
        G[nc:, -1] = -self.rhs0
        self.Gc, self.Gx, self.step_slack = G[nc:, :nc], G[nc:, nc:-1], G
        self.affine_seed = np.zeros((1 + d, nc + d + 1))
        self.affine_seed[0, -1] = 1.0
        self.affine_seed[1:, nc:-1] = np.eye(d)
        self.zero_lam = np.zeros(Gc.shape[0])
        self.zero_lam.flags.writeable = False
        # a NaN would end every QP 'invalid', and polytope.linprog refuses
        # it with a bare ValueError, so non-finite data is refused here,
        # before any emptiness test
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

    def feasible(self, x, c, tol: float = 1e-7):
        """True iff Gc c <= rhs0 - Gx x + tol; a NaN entry reads False.

        One state and perturbation sequence give a bool, stacks of them
        (shapes (n, d) and (n, N m)) one bool per row, each the bool of its
        row alone.
        """
        c = np.asarray(c, dtype=float)
        # an inf entry times a zero of Gx or Gc is a NaN, read as False
        with np.errstate(invalid="ignore"):
            lhs, rhs = c @ self.Gc.T, self.rhs0 - x @ self.Gx.T + tol
            if c.ndim > 1:
                return stacked_leq(lhs, rhs,
                                   lambda i: self.feasible(x[i], c[i], tol))
        return bool((lhs <= rhs).all())


def _check_nonempty(P, h, stage, kind):
    if P.is_empty_at(h):
        raise EmptyTightenedSet(stage, kind)


@memoized
def build_margins(model, cfg: ControllerConfig, omega: Polytope) -> TighteningData:
    """Tube margins for the state, input and terminal rows over the horizon.

    Memoized by its arguments' content: returns a shared, read-only result.
    """
    A_cl = model.A + model.B @ cfg.K
    N = cfg.N
    state = tube_margins(A_cl, model.W, model.X.F, N)
    inputs = tube_margins(A_cl, model.W, model.U.F @ cfg.K, N)[:N]
    terminal = tube_margins(A_cl, model.W, omega.F, N)[N]
    return TighteningData(state=state, inputs=inputs, terminal=terminal)


# ---------------------------------------------------------------------------
# solves


@dataclass(slots=True)
class MpcSolution:
    """One control step's solution, a plain slotted record built once per
    feedback: the perturbations c, the input u applied, the status, the
    Gauss-Newton steps and the feedback's wall time."""

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

    H is the QP's Hessian and L its lower Cholesky factor, qp.factor(H);
    g0 is the gradient at ``x_pred`` and M the gradient's slope in the
    state, so the gradient at x is g0 + M dx, dx = x - x_pred.
    The QP's unconstrained minimizer is then the step a + B dx, with
    [a | B] = -H^-1 [g0 | M], so the perturbations c + a + B dx, and the
    constraint rows' slack there, Gc (c + a + B dx) - rhs0 + Gx x, is
    s0 + S1 dx.  ``offset`` and ``slope`` hold both maps, transposed for a
    row vector dx and side by side, the perturbations' n entries first:
    offset + dx @ slope is [c + step | slack], with
    offset = [(c + a)' | s0'] and slope = [B' | S1'] (the rows of one
    array, which the preparation makes in one product).
    Where rows bind at x_pred, ``active`` holds the rows A with a positive
    multiplier in the QP's solution there, and the maps are those of the
    QP with A held as equalities: with V = L^-1 G_A' and S = V'V, the
    multipliers are lam(dx) = S^-1 [s0_A + S1_A dx], the active rows of
    the unconstrained slack, and the step is a + B dx - Z lam(dx) with
    Z = H^-1 G_A' = L^-T V; ``lam`` holds that map the way the others are
    held, lam[0] + dx @ lam[1:] the multipliers of the rows in ``active``.
    Elsewhere ``active`` and ``lam`` are None, and the multipliers are zero
    for every row: the problem's one read-only ``zero_lam``.
    A preparation whose rollout raised MpcError holds the error instead,
    for the feedback that uses it, and so does one whose H is not finite
    or not positive definite: MpcError("QP ended 'invalid'"), the error a
    QP on that H would end in; its maps and factor are None.  The feedback
    only reads a preparation, so one serves any number of feedbacks.
    """

    x_pred: np.ndarray
    c: np.ndarray
    wall_time: float
    H: np.ndarray | None = None
    L: np.ndarray | None = None
    g0: np.ndarray | None = None
    M: np.ndarray | None = None
    offset: np.ndarray | None = None
    slope: np.ndarray | None = None
    active: np.ndarray | None = None
    lam: np.ndarray | None = None
    error: MpcError | None = None


def _bind_active_set(p, H, L, c, Y, affine):
    """(affine, active, lam) of a preparation whose unconstrained step
    leaves some row's slack above the tolerance at x_pred, with ``affine``
    the unconstrained maps' array [offset; slope] (see Preparation), or
    None to keep the unconstrained maps.

    qp_solve solves the QP at x_pred once, from the factor L, in the step
    from the unconstrained minimizer, min 1/2 s'H s s.t. Gc s <= -s0, and
    its rows with a positive multiplier are A.  With V = L^-1 G_A', one
    dgesv of S = V'V gives the multipliers' map S^-1 [s0_A | S1_A]', and
    the step moves by Z lam(dx), Z = L^-T V; the same product as the
    unconstrained maps' then gives the step and the slack.  A QP that does
    not end 'optimal', no positive multiplier or an S that dgesv finds
    singular keep the unconstrained maps.  qp_solve keeps its active rows
    independent in the metric of H, so S is singular only where a row's
    normal is zero or the QP's solution is not qp_solve's.
    """
    n = c.size
    sol = qpmod.qp_solve(H, np.zeros(n), p.Gc, -affine[0, n:], L)
    active = (sol.lam > 0.0).nonzero()[0]
    if sol.status != "optimal" or not active.size:
        return None
    V = lapack.dtrtrs(L, p.Gc[active].T, lower=1)[0]
    lam, info = lapack.dgesv(V.T @ V, affine[:, n + active].T)[2:]
    if info:
        return None
    Y[:, :n] -= (lapack.dtrtrs(L, V, lower=1, trans=1)[0] @ lam).T
    return Y @ p.step_slack.T, active, lam.T


def prepare(p: LbmpcProblem, x_pred, c=None) -> Preparation:
    """The preparation phase: linearize the cost at ``x_pred`` and ``c``.

    ``c`` is None (zero) or the shifted previous perturbations.  One
    learned rollout (one oracle call) gives z and dz/dc; the measurement is
    not needed.  H is checked and factored here by qp.factor, once for
    every feedback the preparation serves, and the factor gives the
    unconstrained step and the rows' slack there as affine maps of the
    state.  Where that step leaves a row's slack above qp.VIOLATION_TOL at
    x_pred, the QP at x_pred is solved here, once, and its active set
    folded into the maps, which then also give the multipliers (see
    Preparation).  An MpcError of the rollout, or an H that is not finite
    or not positive definite, is held, not raised.
    """
    t0 = time.perf_counter()
    x_pred = np.asarray(x_pred, dtype=float).reshape(-1)
    c = np.zeros(p.n_dec) if c is None else np.array(c, dtype=float)
    try:
        v, z, Jz = _learned_rollout(p, x_pred, c)
    except MpcError as exc:
        return Preparation(x_pred=x_pred, c=c, error=exc,
                           wall_time=time.perf_counter() - t0)
    # The QP takes half the Gauss-Newton model of z'Qbar z + v'Rbar v,
    # which has the same minimizer: H = dz/dc' Qbar dz/dc + Tv'Rbar Tv and
    # g = dz/dc' Qbar z + Tv'Rbar v, as dv/dc is Tv; the QP reads only H's
    # lower triangle, so H is not symmetrized, and its 5e-10 I clips tiny
    # negative curvature.  With dz/dc held at its value, dz/dx is Sz and
    # dv/dx is Sv, which gives the slope M.
    JzQ = Jz.T @ p.Qbar
    H = JzQ @ Jz + p.H_v
    g0 = JzQ @ z + p.TvR @ v
    M = Jz.T @ p.QbarSz + p.TvRSv
    L = qpmod.factor(H)
    if L is None:
        return Preparation(x_pred=x_pred, c=c, H=H, g0=g0, M=M,
                           error=MpcError("QP ended 'invalid'"),
                           wall_time=time.perf_counter() - t0)
    # one dpotrs gives [a | B] = -H^-1 [g0 | M]; with the rows
    # (c + a, x_pred, 1) and (B, I, 0) in Y, one product with step_slack
    # gives [c + a | s0]' and [B | S1]'
    n = c.size
    R = lapack.dpotrs(L, np.concatenate((g0[:, None], M), axis=1),
                      lower=1)[0]
    Y = p.affine_seed.copy()
    np.subtract(c, R[:, 0], out=Y[0, :n])
    np.negative(R[:, 1:].T, out=Y[1:, :n])
    Y[0, n:-1] = x_pred
    affine = Y @ p.step_slack.T
    active = lam = None
    if affine[0, n:].max() > qpmod.VIOLATION_TOL:
        bound = _bind_active_set(p, H, L, c, Y, affine)
        if bound:
            affine, active, lam = bound
    return Preparation(x_pred=x_pred, c=c, H=H, L=L, g0=g0, M=M,
                       offset=affine[0], slope=affine[1:], active=active,
                       lam=lam, wall_time=time.perf_counter() - t0)


def feedback_qp(p: LbmpcProblem, prep: Preparation, x) -> qpmod.QpSolution:
    """The feedback's QP at ``x``, in the perturbations: the c' = prep.c +
    step that minimizes the cost model with gradient g0 + M dx at the step,
    subject to Gc c' <= rhs0 - Gx x, dx = x - x_pred.  The solution's x is
    that c'.

    The prepared maps give c + step, every row's slack there and, where
    rows bound at x_pred, the multipliers of the prepared active set (see
    Preparation).  If every slack is at most qp.VIOLATION_TOL, every
    multiplier is nonnegative and all are finite, that step satisfies the
    QP's optimality conditions and is its solution, returned with its
    multipliers (zero where no row bound at x_pred) and no active-set
    change.
    The slack is not scaled by max(1, |h|), so this test is at least as
    strict as qp_solve's, up to the maps' rounding.  Otherwise qp_solve solves the QP in the step,
    (H, g0 + M dx, Gc, rhs0 - Gc c - Gx x), from the prepared factor: the
    active-set loop's one entry in the feedback.  Both outcomes pass
    through here, the one place to observe or replace the feedback's QP.

    The slack and finiteness are tested first.  Where no row bound at
    x_pred, the multipliers are the problem's read-only ``zero_lam``;
    elsewhere the multipliers of the active rows alone are formed and
    tested (the others are zero, which passes both tests), and the
    full-length vector is built only for the step returned.  So the
    unconstrained step costs dx, one product, the two tests and the record
    it returns.  The tests call np.maximum.reduce, np.minimum.reduce and
    np.add.reduce, the reductions under ndarray.max, min and sum, which
    cost less called directly at these sizes.
    """
    dx = x - prep.x_pred
    y = prep.offset + dx @ prep.slope
    n = prep.c.size
    # a NaN or an inf entry leaves the sum not finite, and a NaN the max
    # and the min
    if (np.maximum.reduce(y[n:]) <= qpmod.VIOLATION_TOL
            and math.isfinite(np.add.reduce(y))):
        if prep.active is None:
            return qpmod.QpSolution(y[:n], p.zero_lam, "optimal", 0)
        lam_a = prep.lam[0] + dx @ prep.lam[1:]
        if (np.minimum.reduce(lam_a) >= 0.0
                and math.isfinite(np.add.reduce(lam_a))):
            lam = np.zeros(y.size - n)
            lam[prep.active] = lam_a
            return qpmod.QpSolution(y[:n], lam, "optimal", 0)
    sol = qpmod.qp_solve(prep.H, prep.g0 + prep.M @ dx, p.Gc,
                         p.rhs0 - p.Gc @ prep.c - p.Gx @ x, prep.L)
    return qpmod.QpSolution(prep.c + sol.x, sol.lam, sol.status,
                            sol.iterations)


def solve_lbmpc(p: LbmpcProblem, x, warm_c=None,
                prep: Preparation | None = None) -> MpcSolution:
    """The feedback phase: one QP at the measured ``x`` (see feedback_qp).

    ``warm_c`` is None or the shifted previous perturbations, and ``prep``
    is ``prepare(p, x_pred, warm_c)`` at a predicted state, or None to
    prepare at x itself.  The QP's gradient is shifted from x_pred to x and
    its constraints are formed at x; they are linear in c, so c + step is
    feasible.  Where x has the active set prepared at x_pred (none, where
    no row binds), the step is the prepared affine map's and the
    active-set loop is not entered.  On any solver failure (a
    preparation that holds an error, or a QP that does not end 'optimal')
    ``warm_c`` is returned with status 'fallback' if it is feasible at x;
    otherwise MpcInfeasible is raised.
    The wall time of either outcome counts from entry, a preparation made
    here included.  Beyond feedback_qp's work the feedback forms only the
    input u = K x + c_0 and its record, an MpcSolution.
    """
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    if prep is None:
        prep = prepare(p, x, warm_c)
    try:
        if prep.error is not None:
            raise prep.error
        sol = feedback_qp(p, prep, x)
        if sol.status != "optimal":
            raise MpcError("QP ended '%s'" % sol.status)
        return _make_solution(p, x, sol.x, "optimal", t0)

    except MpcError as exc:
        if warm_c is not None and p.feasible(x, warm_c):
            return _make_solution(p, x, np.array(warm_c, dtype=float),
                                  "fallback", t0)
        raise MpcInfeasible("%s; no feasible fallback" % exc) from exc
