"""Dual-timescale closed loop: real-time control with a slow trainer.

The fast loop runs measure -> solve -> apply -> observe -> log every
sampling period through one oracle adapter, whose kind it never asks: the
solve calls the adapter's ``predict_and_jacobian`` once, at the nominal
stages, and the loop calls its ``observe`` once after the truth step.  A
network adapter retrains its hidden stack every ``copy_period`` steps and
installs the result at that same step, on the loop's own thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import mpc, oracle as om, plant
from .config import ConfigError
from .polytope import Polytope, bounding_box, max_invariant_set


class RuntimeFailure(Exception):
    pass


class InfeasibleAtStart(RuntimeFailure):
    """The very first MPC solve has no feasible solution."""


# ---------------------------------------------------------------------------
# trace


def _numbered(prefix):
    return tuple("%s%d" % (prefix, i + 1) for i in range(4))


# One entry per per-step field of ClosedLoopTrace, in CSV column order:
# (field, CSV columns, CSV format, dtype).  TRACE_COLUMNS, the trace's
# row-count check, its CSV writer and its assembly from the loop's rows all
# derive from this table.
TRACE_SPEC = (
    ("x", _numbered("x"), "%.17g", float),
    ("u", ("u",), "%.17g", float),
    ("h_hat", _numbered("hhat"), "%.17g", float),
    ("h", _numbered("h"), "%.17g", float),
    ("x_tilde", _numbered("xtilde"), "%.17g", float),
    ("k_fro", ("k_fro",), "%.17g", float),
    ("generation", ("generation",), "%d", int),
    ("status", ("status",), "%s", str),
    ("sqp_iters", ("sqp_iters",), "%d", int),
    ("solver_time", ("solver_time",), "%.17g", float),
    ("state_margin", ("state_margin",), "%.17g", float),
    ("input_margin", ("input_margin",), "%.17g", float),
    ("shift_feasible", ("shift_feasible",), "%d", bool),
    ("h_in_w", ("h_in_w",), "%d", bool),
)

TRACE_COLUMNS = ["t"] + [col for _, cols, _, _ in TRACE_SPEC for col in cols]


@dataclass
class ClosedLoopTrace:
    """Per-step log of a closed-loop run, one row per control step.

    Column order is fixed (see TRACE_SPEC): time index, deviation state,
    applied input, oracle prediction h_hat, realized residual h, one-step
    prediction error x_tilde, output-layer Frobenius norm, live oracle
    generation, solver status / Gauss-Newton steps (always 1) / wall time,
    worst-case state and input constraint margins (positive = satisfied),
    and the two certificate flags (shifted candidate feasible, realized h
    inside W).
    """

    x: np.ndarray
    u: np.ndarray
    h_hat: np.ndarray
    h: np.ndarray
    x_tilde: np.ndarray
    k_fro: np.ndarray
    generation: np.ndarray
    status: List[str]
    sqp_iters: np.ndarray
    solver_time: np.ndarray
    state_margin: np.ndarray
    input_margin: np.ndarray
    shift_feasible: np.ndarray
    h_in_w: np.ndarray
    swap_steps: List[int] = field(default_factory=list)
    # deterministic-mode runs promise byte-identical CSVs, so the (inherently
    # nonreproducible) wall-time column is written as zero; the measured
    # times stay available in memory for metrics and benchmarks
    deterministic: bool = False

    def __post_init__(self):
        n = len(self.x)
        if any(len(getattr(self, name)) != n for name, _, _, _ in TRACE_SPEC):
            raise ValueError("trace fields must share the row count")

    @classmethod
    def from_rows(cls, rows, **meta) -> "ClosedLoopTrace":
        """Trace from one dict per step, keyed by the TRACE_SPEC fields."""
        columns = {name: ([r[name] for r in rows] if dtype is str else
                          np.array([r[name] for r in rows], dtype=dtype))
                   for name, _, _, dtype in TRACE_SPEC}
        return cls(**columns, **meta)

    def __len__(self):
        return len(self.x)

    def to_csv(self) -> str:
        n = len(self)
        blocks = []
        for name, cols, _, _ in TRACE_SPEC:
            values = getattr(self, name)
            if name == "solver_time" and self.deterministic:
                values = np.zeros_like(values)
            blocks.append(np.reshape(values, (n, len(cols))).tolist())
        row = ",".join(["%d"] + [fmt for _, cols, fmt, _ in TRACE_SPEC
                                 for _ in cols])
        lines = [",".join(TRACE_COLUMNS)]
        lines += [row % (t, *(v for part in parts for v in part))
                  for t, parts in enumerate(zip(*blocks))]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario -> controller assembly


@dataclass
class LoopSetup:
    """Everything run_closed_loop needs, assembled once from a scenario."""

    params: plant.MooreGreitzerParams
    model: plant.PlantModel
    cfg: mpc.ControllerConfig
    omega: Polytope
    margins: object
    problem: mpc.LbmpcProblem
    oracle_adapter: object
    # the network's replay buffer and the kernel estimator, as in the adapter
    buffer: Optional[om.ReplayBuffer]
    l2nw: Optional[om.L2nwEstimator]
    x0: np.ndarray


def _w_halfwidths(W: Polytope) -> np.ndarray:
    """Largest |w_i| over W, from its bounding box."""
    lo, hi = bounding_box(W)
    return np.maximum(-lo, hi)


def build_setup(scenario) -> LoopSetup:
    """Instantiate plant, sets, gains and oracle from a validated scenario."""
    pc, cc, oc = scenario.plant, scenario.controller, scenario.oracle
    params = plant.MooreGreitzerParams(beta=pc.beta, zeta=pc.zeta,
                                       omega_n=pc.omega_n, T=pc.T)
    model0 = plant.linearize_discretize(params)
    W = plant.estimate_W(model0, params, samples=pc.w_samples,
                         inflation=pc.w_inflation, substeps=pc.substeps,
                         region_scale=pc.w_region)
    model = model0.with_W(W)
    Q = np.diag(cc.q_diag)
    R = np.array([[cc.r]])
    K = mpc.synthesize_tube_gain(model, Q, R, target=cc.tube_margin_target)
    P = mpc.solve_lyapunov_P(model, K, Q, R)
    cfg = mpc.ControllerConfig(N=cc.N, Q=Q, R=R, K=K, P=P)
    A_cl = model.A + model.B @ K
    inv = max_invariant_set(A_cl, model.X, model.U, K, W)
    if not inv.converged:
        # an iteration-capped fixpoint is not invariant, so the terminal
        # set would not keep the shifted candidate feasible
        raise RuntimeFailure("invariant set did not converge in %d levels"
                             % inv.iterations)
    omega = inv.omega
    margins = mpc.build_margins(model, cfg, omega)

    buf = l2nw = None
    if oc.kind == "zero":
        adapter = om.ZeroOracle()
    elif oc.kind == "dnn":
        arch = om.NetworkArch(n_in=model.d + model.m, hidden=tuple(oc.hidden),
                              n_out=model.d)
        state = om.new_oracle(arch, oc.w_bar_factor * _w_halfwidths(W),
                              oc.gamma, seed=scenario.schedule.seed)
        buf = om.ReplayBuffer(capacity=oc.buffer_capacity,
                              n_in=model.d + model.m, n_out=model.d,
                              policy=oc.buffer_policy)
        adapter = om.DnnOracle(state, model, buf, scenario.schedule, oc)
    elif oc.kind == "l2nw":
        diameter = float(np.linalg.norm(2.0 * plant.HALF_WIDTHS))
        try:
            adapter = l2nw = om.L2nwEstimator(
                capacity=oc.buffer_capacity, n_in=model.d + model.m,
                n_out=model.d, bandwidth=oc.l2nw_bandwidth_factor * diameter,
                lam=oc.l2nw_lambda)
        except ValueError as exc:
            raise ConfigError("oracle.l2nw_bandwidth_factor: %s"
                              % exc) from exc
    else:
        raise ValueError("unknown oracle kind %r" % oc.kind)

    problem = mpc.LbmpcProblem(model, cfg, omega, margins, adapter)
    x0 = np.asarray(scenario.run.x0, dtype=float)
    return LoopSetup(params=params, model=model, cfg=cfg, omega=omega,
                     margins=margins, problem=problem,
                     oracle_adapter=adapter, buffer=buf, l2nw=l2nw, x0=x0)


# ---------------------------------------------------------------------------
# the loop


def run_closed_loop(scenario) -> ClosedLoopTrace:
    """Run the scenario's closed loop and return the per-step trace.

    Raises InfeasibleAtStart if the first solve has no feasible solution;
    later steps always produce an input because the shifted previous solution
    is a feasible fallback (a failure there is a RuntimeFailure).  A failed
    trainer job raises RuntimeFailure at its step, with the trainer's
    exception as the cause.
    """
    setup = build_setup(scenario)
    model, problem = setup.model, setup.problem
    oracle = setup.oracle_adapter
    A, B, X, U, W = model.A, model.B, model.X, model.U, model.W
    x_eq, u_eq, m = model.x_eq, model.u_eq, model.m
    params, substeps = setup.params, scenario.plant.substeps
    rows = []
    x = setup.x0.copy()
    c_shift = None
    for t in range(scenario.run.steps):
        try:
            sol = mpc.solve_lbmpc(problem, x, warm_c=c_shift)
        except mpc.MpcError as exc:
            if t == 0:
                raise InfeasibleAtStart(
                    "no feasible solution at x0 = %s: %s" % (x, exc))
            raise RuntimeFailure(
                "solver failed at step %d despite fallback: %s" % (t, exc))

        u = sol.u
        x_next = plant.step_truth(x + x_eq, u + u_eq, params,
                                  substeps=substeps) - x_eq
        # A x and B u serve both h (plant.truth_residual's sum, in its
        # order) and the one-step prediction error x_tilde
        Ax, Bu = A @ x, B @ u
        h = x_next - Ax - Bu
        # the trace logs the oracle as it was when u was chosen
        k_fro, generation = oracle.k_fro, oracle.generation
        try:
            h_hat = oracle.observe(t, x, u, x_next, h)
        except om.TrainerFailed as exc:
            raise RuntimeFailure(str(exc)) from exc.__cause__
        x_tilde = (Ax + Bu + h_hat) - x_next

        c_shift = mpc.shift_solution(sol, m)
        rows.append(dict(
            x=x, u=u, h_hat=h_hat, h=h, x_tilde=x_tilde, k_fro=k_fro,
            generation=generation, status=sol.status,
            sqp_iters=sol.sqp_iters, solver_time=sol.wall_time,
            state_margin=float((X.h - X.F @ x).min()),
            input_margin=float((U.h - U.F @ u).min()),
            shift_feasible=problem.feasible(x_next, c_shift),
            h_in_w=W.contains(h)))
        x = x_next

    return ClosedLoopTrace.from_rows(
        rows, swap_steps=list(oracle.swap_steps),
        deterministic=scenario.schedule.deterministic)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricsReport:
    overshoot_z: float
    overshoot_y: float
    settling_steps: int
    rise_steps: int
    cost: float
    solver_median: float
    solver_p95: float
    solver_max: float


def format_value(value) -> str:
    """One metric value as metrics.txt and metrics.csv write it."""
    return "%.17g" % value if isinstance(value, float) else "%d" % value


def metrics(trace: ClosedLoopTrace, Q, R, band: float = 0.02) -> MetricsReport:
    """Transient-response and solver-time summary of one trace.

    The trace is in deviation coordinates, so the target is the origin.
    Overshoot is the largest excursion of mass flow / pressure rise past it
    on the far side of the approach direction.  Settling is the
    first step after which the state stays within ``band`` of the initial
    error (infinity norm); a trace that never settles reports its length.
    Rise is the first step at which 90 percent of the initial error is gone.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    if not (0.0 < band < 1.0):
        raise ValueError("band must be in (0, 1)")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    x, u = trace.x, trace.u
    err = np.max(np.abs(x), axis=1)
    e0 = err[0]

    def overshoot(i):
        direction = -np.sign(x[0, i])
        if direction == 0.0:
            return float(np.max(np.abs(x[:, i])))
        return float(max(0.0, np.max(direction * x[:, i])))

    if e0 == 0.0:
        settling = 0
        rise = 0
    else:
        # a NaN error counts as outside the band
        outside = np.flatnonzero(~(err <= band * e0))
        settling = outside[-1] + 1 if outside.size else 0
        risen = np.where(err <= 0.1 * e0)[0]
        rise = int(risen[0]) if risen.size else len(trace)

    cost = float(np.einsum("ti,ij,tj->", x, Q, x)
                 + np.einsum("ti,ij,tj->", u, R, u))
    st = np.sort(trace.solver_time)
    return MetricsReport(
        overshoot_z=overshoot(0), overshoot_y=overshoot(1),
        settling_steps=int(settling), rise_steps=int(rise), cost=cost,
        solver_median=float(np.median(st)),
        solver_p95=float(st[min(len(st) - 1, int(np.ceil(0.95 * len(st))) - 1)]),
        solver_max=float(st[-1]))
