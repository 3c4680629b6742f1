"""Dual-timescale closed loop: real-time control with a slow trainer.

The fast loop runs measure -> feedback -> apply -> observe -> prepare ->
log every sampling period through one oracle adapter, whose kind it never
asks: the feedback solves one QP at the measured state, the loop calls the
adapter's ``observe`` once after the truth step, and the preparation for
the next step calls its ``predict_and_jacobian`` once, at the nominal
stages from the predicted next state (mpc's real-time iteration; the
first step is prepared at x0 before the loop).  A network adapter retrains
its hidden stack every ``copy_period`` steps and installs the result at
that same step, on the loop's own thread, so the next preparation sees it.

The loop keeps only what control needs.  The trace's certificate columns
(both constraint margins, the shifted candidate's feasibility and h in W)
and its in-region flag are logged, never acted on, so they are computed
after the last step, in one vectorized pass over the logged trajectory.

The offline design (the linearization, W, the tube gain K, P, the
terminal set Omega and the tightening margins) comes from six pure stages:
plant.linearize_discretize, plant.estimate_W, mpc.synthesize_tube_gain,
mpc.solve_lyapunov_P, polytope.max_invariant_set and mpc.build_margins.
Each is memoized by its arguments' content (arrays by shape, dtype and
bytes, dataclasses by their fields, scalars by type and value; see
lbmpc._memo), so a setup whose plant and controller sections repeat
recomputes none of them and keeps every bit.  Their results are shared
between setups and read-only.  build_setup still calls each stage through
its module on every call; the LbmpcProblem and the oracle adapter, which
holds the run's state, are built fresh each time.
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
    ("solver_time", ("solver_time",), "%.17g", float),
    ("state_margin", ("state_margin",), "%.17g", float),
    ("input_margin", ("input_margin",), "%.17g", float),
    ("shift_feasible", ("shift_feasible",), "%d", bool),
    ("h_in_w", ("h_in_w",), "%d", bool),
    ("prepare_time", ("prepare_time",), "%.17g", float),
    ("in_w_region", ("in_w_region",), "%d", bool),
)

# wall times, written as zero by deterministic-mode runs
TIMING = ("solver_time", "prepare_time")

TRACE_COLUMNS = ["t"] + [col for _, cols, _, _ in TRACE_SPEC for col in cols]


@dataclass
class ClosedLoopTrace:
    """Per-step log of a closed-loop run, one row per control step.

    Column order is fixed (see TRACE_SPEC): time index, deviation state,
    applied input, oracle prediction h_hat, realized residual h, one-step
    prediction error x_tilde, output-layer Frobenius norm, live oracle
    generation, solver status, feedback wall time (from the measurement
    to the input), worst-case state and input constraint margins
    (positive = satisfied), the two certificate flags (shifted candidate
    feasible, realized h inside W), the wall time of the preparation the
    step's feedback used, and whether (x, u) lies in the region W was
    swept over (``plant.w_region``).  The margins, both certificate flags
    and the region flag are computed from the logged trajectory after the
    last step (see run_closed_loop).
    """

    x: np.ndarray
    u: np.ndarray
    h_hat: np.ndarray
    h: np.ndarray
    x_tilde: np.ndarray
    k_fro: np.ndarray
    generation: np.ndarray
    status: List[str]
    solver_time: np.ndarray
    state_margin: np.ndarray
    input_margin: np.ndarray
    shift_feasible: np.ndarray
    h_in_w: np.ndarray
    prepare_time: np.ndarray
    in_w_region: np.ndarray
    swap_steps: List[int] = field(default_factory=list)
    # deterministic-mode runs promise byte-identical CSVs, so the (inherently
    # nonreproducible) wall-time columns are written as zero; the measured
    # times stay available in memory for metrics and benchmarks
    deterministic: bool = False

    def __post_init__(self):
        n = len(self.x)
        if any(len(getattr(self, name)) != n for name, _, _, _ in TRACE_SPEC):
            raise ValueError("trace fields must share the row count")

    def __len__(self):
        return len(self.x)

    def to_csv(self) -> str:
        n = len(self)
        blocks = []
        for name, cols, _, _ in TRACE_SPEC:
            values = getattr(self, name)
            if name in TIMING and self.deterministic:
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
    """Everything run_closed_loop needs, assembled once from a scenario.
    The model, controller config, terminal set, margins and oracle adapter
    are the problem's."""

    params: plant.MooreGreitzerParams
    problem: mpc.LbmpcProblem
    # the network's replay buffer and the kernel estimator, as in the adapter
    buffer: Optional[om.ReplayBuffer]
    l2nw: Optional[om.L2nwEstimator]


def _w_halfwidths(W: Polytope) -> np.ndarray:
    """Largest |w_i| over W, from its bounding box."""
    lo, hi = bounding_box(W)
    return np.maximum(-lo, hi)


def build_setup(scenario) -> LoopSetup:
    """Instantiate plant, sets, gains and oracle from a validated scenario.

    The six design stages are called through their modules on every call
    and return shared, read-only results, memoized by their arguments'
    content: byte-identical plant and controller sections give the same
    model, W, K, P, Omega and margins objects (see the module docstring).
    The LbmpcProblem, with its emptiness tests, and the oracle adapter are
    new on every call, so two setups never share a run's state.
    """
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
    return LoopSetup(params=params, problem=problem, buffer=buf, l2nw=l2nw)


# ---------------------------------------------------------------------------
# the loop


# steps per block of the bulk shift-feasibility check, which keeps its
# products with Gc (about 200 rows) small
_SHIFT_BLOCK = 32


def _certificates(problem, x, u, h, x_last, c_shift, w_region):
    """The certificate columns and the in-region flag of a finished run.

    ``x``, ``u`` and ``h`` are the logged rows, ``x_last`` the state after
    the last step and ``c_shift`` the stacked shifted perturbations of the
    steps; each row gets the checks its step would make.  (x, u)
    is in the region when it lies in the box estimate_W swept.
    """
    model = problem.model
    X, U = model.X, model.U
    x_next = np.concatenate((x[1:], x_last[None]))
    shift = np.empty(len(x), dtype=bool)
    for a in range(0, len(x), _SHIFT_BLOCK):
        b = a + _SHIFT_BLOCK
        shift[a:b] = problem.feasible(x_next[a:b], c_shift[a:b])
    region = np.asarray(w_region, dtype=float) * plant.HALF_WIDTHS
    return dict(
        state_margin=(X.h - x @ X.F.T).min(axis=1),
        input_margin=(U.h - u @ U.F.T).min(axis=1),
        shift_feasible=shift, h_in_w=model.W.contains(h),
        in_w_region=((np.abs(x) <= region[:4]).all(axis=1)
                     & (np.abs(u) <= region[4:]).all(axis=1)))


def run_closed_loop(scenario, setup: Optional[LoopSetup] = None
                    ) -> ClosedLoopTrace:
    """Run the scenario's closed loop and return the per-step trace.

    Each step's feedback uses the preparation made at the state the
    previous step predicted, A x + B u + h_hat, after its ``observe``; the
    first step's is made at x0.  Raises InfeasibleAtStart if the first
    solve has no feasible solution;
    later steps always produce an input because the shifted previous solution
    is a feasible fallback (a failure there is a RuntimeFailure).  A failed
    trainer job raises RuntimeFailure at its step, with the trainer's
    exception as the cause.  The certificate columns are computed after
    the last step, from the logged x, u and h and the shifted candidates.

    ``setup`` is run as given, its oracle adapter included, so a caller can
    build one and swap its adapter; the loop updates that adapter in place.
    Without one, the loop builds its own with build_setup.
    """
    if setup is None:
        setup = build_setup(scenario)
    problem = setup.problem
    model, oracle = problem.model, problem.oracle
    A, B = model.A, model.B
    x_eq, u_eq, m = model.x_eq, model.u_eq, model.m
    params, substeps = setup.params, scenario.plant.substeps
    steps = scenario.run.steps
    rows, shifts = [], np.empty((steps, problem.n_dec))
    x = np.array(scenario.run.x0, dtype=float)
    c_shift = None
    prep = mpc.prepare(problem, x)
    for t in range(steps):
        try:
            sol = mpc.solve_lbmpc(problem, x, warm_c=c_shift, prep=prep)
        except mpc.MpcError as exc:
            if t == 0:
                raise InfeasibleAtStart(
                    "no feasible solution at x0 = %s: %s" % (x, exc))
            raise RuntimeFailure(
                "solver failed at step %d despite fallback: %s" % (t, exc))

        u = sol.u
        x_next = plant.step_truth(x + x_eq, u + u_eq, params,
                                  substeps=substeps) - x_eq
        # A x and B u serve h (plant.truth_residual's sum, in its order),
        # the adapter's update and the prediction x_pred of x_next
        Ax, Bu = A @ x, B @ u
        h = x_next - Ax - Bu
        # the trace logs the oracle as it was when u was chosen
        k_fro, generation = oracle.k_fro, oracle.generation
        Axu = Ax + Bu
        try:
            h_hat = oracle.observe(t, x, u, x_next, h, Axu)
        except om.TrainerFailed as exc:
            raise RuntimeFailure(str(exc)) from exc.__cause__
        x_pred = Axu + h_hat

        c_shift = mpc.shift_solution(sol, m)
        shifts[t] = c_shift
        rows.append(dict(
            x=x, u=u, h_hat=h_hat, h=h, x_tilde=x_pred - x_next, k_fro=k_fro,
            generation=generation, status=sol.status,
            solver_time=sol.wall_time, prepare_time=prep.wall_time))
        if t + 1 < steps:
            prep = mpc.prepare(problem, x_pred, c_shift)
        x = x_next

    columns = {name: ([r[name] for r in rows] if dtype is str else
                      np.array([r[name] for r in rows], dtype=dtype))
               for name, _, _, dtype in TRACE_SPEC if name in rows[0]}
    columns.update(_certificates(problem, columns["x"], columns["u"],
                                 columns["h"], x, shifts,
                                 scenario.plant.w_region))
    return ClosedLoopTrace(**columns, swap_steps=list(oracle.swap_steps),
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
