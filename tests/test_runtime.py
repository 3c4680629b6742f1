"""Closed-loop runtime tests: short deterministic runs of each oracle kind,
byte-identical repeatability, trace invariants and hand-checked metrics.
Runs are kept short; the long-horizon behavior is covered by the acceptance
suite.
"""

import os
from dataclasses import fields, replace

import numpy as np
import pytest

from lbmpc import mpc, oracle as om, plant, qp as qpmod, runtime
from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import (OracleSection, Scenario, load_scenario,
                          parse_scenario)
from lbmpc.polytope import Polytope, bounding_box
from lbmpc.runtime import (TRACE_SPEC, ClosedLoopTrace, InfeasibleAtStart,
                           RuntimeFailure, build_setup, metrics,
                           run_closed_loop)


EMPTY_ENV = {}

BASE = """
[plant]
w_samples = 1024
[controller]
N = 10
[oracle]
kind = %s
hidden = 8 6
buffer_capacity = 400
train_batch = 64
train_epochs = 4
[schedule]
copy_period = 25
min_new_samples = 16
deterministic = true
seed = 0
[run]
steps = %d
x0 = -0.12 0.06 0 0
"""


def scenario(kind, steps=60):
    return parse_scenario(BASE % (kind, steps), name=kind, environ=EMPTY_ENV)


@pytest.fixture(scope="module")
def dnn_trace():
    return run_closed_loop(scenario("dnn"))


class TestClosedLoop:
    def test_zero_oracle_runs_and_regulates(self):
        tr = run_closed_loop(scenario("zero"))
        assert len(tr) == 60
        assert set(tr.status) == {"optimal"}
        assert np.all(tr.h_hat == 0.0)
        assert np.linalg.norm(tr.x[-1]) < np.linalg.norm(tr.x[0])

    def test_dnn_trace_invariants(self, dnn_trace):
        tr = dnn_trace
        assert len(tr) == 60
        # constraints respected and certificates hold at every step
        assert np.all(tr.state_margin > 0)
        assert np.all(tr.input_margin > 0)
        assert np.all(tr.shift_feasible)
        assert np.all(tr.h_in_w)
        # the adapted output layer moved away from zero
        assert tr.k_fro[-1] > 0.0
        # with copy_period 25 at least one hidden swap happened
        assert len(tr.swap_steps) >= 1
        assert tr.generation[-1] >= 1

    def test_dnn_prediction_beats_zero_late(self, dnn_trace):
        tr = dnn_trace
        # after adaptation the one-step error should be below the raw
        # residual it is trying to learn (averaged over the tail)
        tail = slice(40, 60)
        err_pred = np.linalg.norm(tr.x_tilde[tail], axis=1).mean()
        err_zero = np.linalg.norm(tr.h[tail], axis=1).mean()
        assert err_pred < err_zero

    def test_l2nw_runs(self):
        tr = run_closed_loop(scenario("l2nw"))
        assert len(tr) == 60
        assert np.all(tr.state_margin > 0)
        # the kernel estimate is nonzero once data has arrived
        assert np.any(np.abs(tr.h_hat[10:]) > 0)

    def test_deterministic_repeat_bitwise(self):
        a = run_closed_loop(scenario("dnn", steps=40))
        b = run_closed_loop(scenario("dnn", steps=40))
        assert a.to_csv() == b.to_csv()

    def test_infeasible_start_raises(self):
        s = scenario("zero", steps=5)
        s = replace(s, run=replace(s.run, x0=(0.49, 0.49, 0.9, 15.0)))
        with pytest.raises(InfeasibleAtStart):
            run_closed_loop(s)

    def test_wrapped_names_called_once_per_step(self, monkeypatch):
        # loopbench times the step's layers by wrapping these module
        # attributes, so the loop must reach each through its module, once
        # per step; the counting starts when build_setup returns, as
        # loopbench's per-step spans do
        names = ((plant, "step_truth"), (om, "features"),
                 (om, "predict_from_features"), (om, "adapt"),
                 (om, "buffer_push"), (om, "predict_and_jacobian"))
        log = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in names:
            monkeypatch.setattr(module, name,
                                logged(name, getattr(module, name)))
        setup_fn = runtime.build_setup

        def setup_then_count(s):
            setup = setup_fn(s)
            log.clear()
            return setup

        monkeypatch.setattr(runtime, "build_setup", setup_then_count)
        tr = run_closed_loop(scenario("dnn", steps=30))
        assert set(tr.status) == {"optimal"}
        # each step opens with the one oracle linearization of the
        # preparation its feedback uses, made after the previous step's
        # observe (the first at x0)
        starts = [i for i, n in enumerate(log) if n == "predict_and_jacobian"]
        assert len(starts) == 30 and starts[0] == 0
        for a, b in zip(starts, starts[1:] + [len(log)]):
            assert sorted(log[a:b]) == sorted(n for _, n in names)

    def test_h_and_x_tilde_from_shared_products(self, dnn_trace):
        # the loop forms A x and B u once for both; the bits must be those
        # of plant.truth_residual and of the prediction error's own sum
        tr = dnn_trace
        model = build_setup(scenario("dnn")).problem.model
        for t in range(len(tr) - 1):
            x, u, x_next = tr.x[t], tr.u[t], tr.x[t + 1]
            assert np.array_equal(
                tr.h[t], plant.truth_residual(x, u, x_next, model))
            assert np.array_equal(
                tr.x_tilde[t],
                (model.A @ x + model.B @ u + tr.h_hat[t]) - x_next)

    def test_trace_csv_shape(self, dnn_trace):
        from lbmpc.runtime import TRACE_COLUMNS
        lines = dnn_trace.to_csv().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 61
        assert all(len(l.split(",")) == len(TRACE_COLUMNS) for l in lines)


class TestTwoPhaseLoop:
    """The loop prepares each step's cost at the predicted state and feeds
    back at the measured one."""

    @pytest.mark.parametrize("name", ["linear", "dnn", "l2nw"])
    def test_first_row_is_a_one_phase_step(self, name):
        # step 0 is prepared at the measured x0 itself
        s = load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                          environ=EMPTY_ENV)
        tr = run_closed_loop(replace(s, run=replace(s.run, steps=3)))
        setup = build_setup(s)
        sol = mpc.solve_lbmpc(setup.problem, np.asarray(s.run.x0))
        assert tr.status[0] == sol.status == "optimal"
        assert np.array_equal(tr.u[0], sol.u)

    def test_timing_columns(self, dnn_trace):
        # deterministic mode writes both wall times as zero; in memory they
        # are measured
        header, *rows = dnn_trace.to_csv().strip().split("\n")
        for col in ("solver_time", "prepare_time"):
            j = header.split(",").index(col)
            assert {row.split(",")[j] for row in rows} == {"0"}, col
            times = getattr(dnn_trace, col)
            assert np.all(np.isfinite(times)) and np.all(times > 0.0), col

    def test_one_jacobian_per_step(self, monkeypatch):
        # no preparation after the last step
        calls = []
        jacobian = om.predict_and_jacobian

        def counted(*args):
            calls.append(1)
            return jacobian(*args)

        monkeypatch.setattr(om, "predict_and_jacobian", counted)
        tr = run_closed_loop(scenario("dnn", steps=60))
        assert len(tr) == 60
        assert len(calls) == 60


def bundled(name, steps, x0=None):
    """A bundled scenario cut to ``steps``, from its own x0 or ``x0``."""
    s = load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                      environ=EMPTY_ENV)
    run = replace(s.run, steps=steps)
    return replace(s, run=run if x0 is None else replace(run, x0=x0))


def recorded_run(s, monkeypatch):
    """The trace of a run and the solution each of its steps applied."""
    sols = []
    solve = mpc.solve_lbmpc

    def recording(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(mpc, "solve_lbmpc", recording)
    return run_closed_loop(s), sols


def assert_per_step_certificates(s, tr, sols):
    """Each certificate column equals the checks made step by step: both
    margins at (x_t, u_t), the shifted solution of step t at x_{t+1} and h_t
    in W."""
    setup = build_setup(s)
    problem = setup.problem
    model = problem.model
    X, U = model.X, model.U
    x_last = plant.step_truth(tr.x[-1] + model.x_eq, tr.u[-1] + model.u_eq,
                              setup.params,
                              substeps=s.plant.substeps) - model.x_eq
    x_next = list(tr.x[1:]) + [x_last]
    assert len(sols) == len(tr)
    expect = {name: [] for name in ("state_margin", "input_margin",
                                    "shift_feasible", "h_in_w")}
    for t, sol in enumerate(sols):
        x, u = tr.x[t], tr.u[t]
        assert np.array_equal(u, sol.u)
        expect["state_margin"].append(float((X.h - X.F @ x).min()))
        expect["input_margin"].append(float((U.h - U.F @ u).min()))
        expect["shift_feasible"].append(
            problem.feasible(x_next[t], mpc.shift_solution(sol, model.m)))
        expect["h_in_w"].append(model.W.contains(tr.h[t]))
    for name, values in expect.items():
        assert np.array_equal(getattr(tr, name), values), name


class TestBulkCertificates:
    """The loop logs x, u, h and the shifted candidates; the certificate
    columns are checked after the last step, in one pass."""

    @pytest.mark.parametrize("name", ["linear", "dnn", "l2nw"])
    def test_columns_equal_the_per_step_checks(self, name, monkeypatch):
        s = bundled(name, 60)
        tr, sols = recorded_run(s, monkeypatch)
        assert_per_step_certificates(s, tr, sols)

    @pytest.mark.parametrize("name", ["linear", "dnn", "l2nw"])
    def test_outside_the_swept_region_only_in_the_transient(self, name):
        s = bundled(name, 500)
        tr = run_closed_loop(s)
        # deviation (x, u) against the box estimate_W swept
        half = (np.broadcast_to(np.asarray(s.plant.w_region, dtype=float),
                                (5,)) * plant.HALF_WIDTHS)
        inside = np.all(np.abs(np.hstack([tr.x, tr.u])) <= half, axis=1)
        assert np.array_equal(tr.in_w_region, inside)
        out = np.flatnonzero(~tr.in_w_region)
        assert out.tolist() == [2, 3, 4]
        # there r or u exceeds its half-width of 0.5
        assert np.all((np.abs(tr.x[out, 2]) > 0.5)
                      | (np.abs(tr.u[out, 0]) > 0.5))
        assert np.all(tr.h_in_w)

    # an inf entry of x meets zeros of Gx, whose products are NaN
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batch_predicates(self):
        s = bundled("linear", 1)
        p = build_setup(s).problem
        W = p.model.W
        x = np.asarray(s.run.x0, dtype=float)
        ok = mpc.solve_lbmpc(p, x).c
        too_big = np.full(p.n_dec, 10.0)          # |v_0| > 1
        nan_c = ok.copy()
        nan_c[3] = np.nan
        xs = np.array([x, x, x, x, x, x])
        xs[3, 1] = np.nan
        xs[4, 0] = np.inf
        xs[5, 3] = -np.inf
        cs = np.array([ok, too_big, nan_c, ok, ok, ok])
        got = p.feasible(xs, cs)
        assert got.dtype == bool and got.tolist() == [True] + [False] * 5
        for row_x, row_c, flag in zip(xs, cs, got):
            single = p.feasible(row_x, row_c)
            assert single is bool(flag)
            assert p.feasible(row_x[None], row_c[None]).tolist() == [single]

        _, hi = bounding_box(W)
        hs = np.array([np.zeros(4), hi + 1e-3, [0.0, np.nan, 0.0, 0.0]])
        got = W.contains(hs)
        assert got.dtype == bool and got.tolist() == [True, False, False]
        for h, flag in zip(hs, got):
            single = W.contains(h)
            assert single is bool(flag)
            assert W.contains(h[None]).tolist() == [single]
        with pytest.raises(ValueError):
            W.contains(np.zeros((2, 3)))


def edge_steps(t, count):
    """``count`` floats on each side of t, a few ulps apart, and t."""
    out = [t]
    for toward in (-np.inf, np.inf):
        s = t
        for _ in range(count):
            s = np.nextafter(np.nextafter(s, toward), toward)
            out.append(s)
    return out


def first_edge(slack, rate):
    """The least t >= 0 at which slack - t rate reaches zero in some row."""
    up = rate > 0
    return float(np.min(slack[up] / rate[up]))


class TestEdgeVerdicts:
    """A stacked product can round differently from the product of one row,
    so a point within an ulp of the tolerance edge could read differently
    in a stack; each row of a stacked call takes the verdict of its own
    call, on the edge by construction and in random stacks."""

    @staticmethod
    def assert_rows_alone(stacked, single, *stacks):
        got = stacked(*stacks)
        alone = [single(*row) for row in zip(*stacks)]
        assert got.dtype == bool and got.tolist() == alone
        return alone

    def test_feasible(self):
        s = bundled("linear", 1)
        p = build_setup(s).problem
        rng = np.random.default_rng(41)
        x = 0.2 * np.asarray(s.run.x0, dtype=float)
        assert p.feasible(x, np.zeros(p.n_dec))
        xs, cs = [], []
        for _ in range(40):
            # from c = 0 along d to the first row's tolerance edge
            d = rng.normal(size=p.n_dec)
            t = first_edge(p.rhs0 - p.Gx @ x + 1e-7, p.Gc @ d)
            for s in edge_steps(t, 3):
                xs.append(x)
                cs.append(s * d)
        xs, cs = np.array(xs), np.array(cs)
        alone = self.assert_rows_alone(p.feasible, p.feasible, xs, cs)
        assert 0 < sum(alone) < len(alone)
        # random stacks mixing edge rows and draws around them
        for k in range(20):
            n = int(rng.integers(1, 65))
            pick = rng.integers(0, len(cs), n)
            jitter = (rng.random(n) < 0.5)[:, None] * rng.normal(
                scale=1e-3, size=(n, p.n_dec))
            self.assert_rows_alone(p.feasible, p.feasible, xs[pick],
                                   cs[pick] + jitter)

    def test_contains(self):
        rng = np.random.default_rng(42)
        F = rng.normal(size=(12, 4))
        P = Polytope(F, rng.uniform(0.5, 1.0, 12))
        hs = []
        for _ in range(60):
            d = rng.normal(size=4)
            t = first_edge(P.h + 1e-9, F @ d)
            hs += [s * d for s in edge_steps(t, 3)]
        hs = np.array(hs)
        alone = self.assert_rows_alone(P.contains, P.contains, hs)
        assert 0 < sum(alone) < len(alone)
        for k in range(20):
            n = int(rng.integers(1, 65))
            self.assert_rows_alone(
                P.contains, P.contains,
                hs[rng.integers(0, len(hs), n)]
                + rng.normal(scale=1e-3, size=(n, 4)) * (k % 2))


class TestSustainedQpFault:
    """Every QP from the 4th on ends 'iteration_limit', for six horizons:
    the shifted candidate is applied from step 3 on, runs down to zero
    after N steps, and K alone then steers inside the terminal set."""

    @pytest.mark.parametrize("x0", [None, (-0.15, 0.07, 0.0, 0.0)],
                             ids=["bundled-x0", "corner"])
    @pytest.mark.parametrize("name", ["linear", "dnn"])
    def test_fallback_keeps_every_guarantee(self, name, x0, monkeypatch):
        calls = []
        solve = mpc.feedback_qp

        def failing_from_the_fourth(*args):
            calls.append(1)
            sol = solve(*args)
            return sol if len(calls) <= 3 else replace(
                sol, status="iteration_limit")

        # every feedback's QP, the affine step's and qp_solve's alike
        monkeypatch.setattr(mpc, "feedback_qp", failing_from_the_fourth)
        s = bundled(name, 60, x0)
        tr, sols = recorded_run(s, monkeypatch)
        assert len(calls) == 60
        assert tr.status == ["optimal"] * 3 + ["fallback"] * 57
        assert np.all(tr.state_margin >= 0.0)
        assert np.all(tr.input_margin >= 0.0)
        assert np.all(tr.shift_feasible) and np.all(tr.h_in_w)
        # after N fallbacks the applied perturbations are all zero
        assert not np.any(sols[-1].c)
        assert_per_step_certificates(s, tr, sols)


class AdversarialOracle:
    """A test double: an adapter whose h and Jacobians are drawn uniform in
    [-1, 1] at every call, far outside any W, so the Hessians it makes are
    ill-conditioned and rounding can push a QP's active rows past the
    tolerance; its observe predicts no residual."""

    k_fro = 0.0
    generation = 0
    swap_steps = ()

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def predict_and_jacobian(self, z, v):
        (N, d), m = z.shape, v.shape[-1]
        draw = self.rng.uniform
        return (draw(-1.0, 1.0, (N, d)), draw(-1.0, 1.0, (N, d, d)),
                draw(-1.0, 1.0, (N, d, m)))

    def observe(self, t, x, u, x_next, h, ax_bu=None):
        return np.zeros(x.size)


class TestAdversarialOracle:
    """With the adversarial double in the bundled dnn run, every QP that
    qp_solve ends 'optimal' meets every row, the active ones too, within
    qp.VIOLATION_TOL; a QP whose active rows drifted past it ends
    'inaccurate', and the preparation keeps its unconstrained maps or the
    step falls back.  Each run finishes or ends in a typed RuntimeFailure."""

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_qps_meet_every_row(self, seed, monkeypatch):
        qp_solve = qpmod.qp_solve
        worst, statuses = [], []

        def checked(H, g, G, h, L=None):
            sol = qp_solve(H, g, G, h, L)
            statuses.append(sol.status)
            if sol.status == "optimal" and h.size:
                # qp_solve's own test, (G x - h) / max(1, |h|)
                worst.append(((G @ sol.x - h)
                              / np.maximum(1.0, np.abs(h))).max())
            return sol

        def adversarial_setup(s, build=build_setup):
            setup = build(s)
            setup.problem.oracle = AdversarialOracle(seed)
            return setup

        monkeypatch.setattr(qpmod, "qp_solve", checked)
        monkeypatch.setattr(runtime, "build_setup", adversarial_setup)
        s = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"),
                          environ=EMPTY_ENV)
        try:
            tr = run_closed_loop(s)
        except RuntimeFailure:
            pass
        else:
            assert len(tr) == s.run.steps
            assert set(tr.status) <= {"optimal", "fallback"}
        assert worst and max(worst) <= qpmod.VIOLATION_TOL
        # the double reaches the QPs this guards against
        assert "inaccurate" in statuses


class TestTrainer:
    def test_failing_trainer_job_surfaces(self, monkeypatch):
        # the bundled dnn scenario trains first at step 100, once its ring
        # holds 5 percent of 2000 samples
        def failing_train(*args, **kwargs):
            raise FloatingPointError("injected trainer failure")

        monkeypatch.setattr(om, "train_hidden", failing_train)
        s = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"),
                          environ=EMPTY_ENV)
        s = replace(s, run=replace(s.run, steps=150))
        with pytest.raises(RuntimeFailure,
                           match="trainer job failed at step 100") as info:
            run_closed_loop(s)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_diversity_buffer_closed_loop(self):
        # 120 steps into a 40-sample ring: the diversity policy evicts from
        # step 40 on, and the swaps train on what it kept
        s = scenario("dnn", steps=120)
        s = replace(s, oracle=replace(s.oracle, buffer_capacity=40,
                                      buffer_policy="diversity"))
        tr = run_closed_loop(s)
        assert len(tr) == 120
        assert np.all(tr.h_in_w)
        assert np.all(tr.shift_feasible)
        assert np.all(tr.state_margin > 0)
        assert np.all(tr.input_margin > 0)
        assert set(tr.status) <= {"optimal", "fallback"}
        assert len(tr.swap_steps) >= 2


class TestMetrics:
    def synthetic_trace(self, x_path):
        n = len(x_path)
        x = np.array(x_path, dtype=float)
        zeros = np.zeros((n, 4))
        return ClosedLoopTrace(
            x=x, u=np.zeros((n, 1)), h_hat=zeros, h=zeros, x_tilde=zeros,
            k_fro=np.zeros(n), generation=np.zeros(n, dtype=int),
            status=["optimal"] * n,
            solver_time=np.linspace(0.001, 0.002, n),
            state_margin=np.ones(n), input_margin=np.ones(n),
            shift_feasible=np.ones(n, dtype=bool),
            h_in_w=np.ones(n, dtype=bool), prepare_time=np.zeros(n),
            in_w_region=np.ones(n, dtype=bool))

    def test_hand_checked_overshoot_and_settling(self):
        # x1 starts at -1, crosses to +0.3, decays inside the band at t=4
        path = [[-1.0, 0.0, 0.0, 0.0],
                [0.3, -0.05, 0.0, 0.0],
                [0.1, 0.02, 0.0, 0.0],
                [-0.05, 0.0, 0.0, 0.0],
                [0.01, 0.0, 0.0, 0.0],
                [0.005, 0.0, 0.0, 0.0]]
        rep = metrics(self.synthetic_trace(path), np.eye(4),
                      np.array([[1.0]]), band=0.02)
        assert rep.overshoot_z == pytest.approx(0.3)
        # y starts exactly at the reference: largest |excursion| counts
        assert rep.overshoot_y == pytest.approx(0.05)
        assert rep.settling_steps == 4                  # band is 0.02 * 1.0
        assert rep.rise_steps == 2                      # err <= 0.1 at t=2

    def test_geometric_decay_settling_closed_form(self):
        # err_t = rate^t: settles at the first t with rate^t <= band,
        # i.e. ceil(ln(band) / ln(rate))
        rate, band = 0.8, 0.02
        path = [[rate ** t, 0.0, 0.0, 0.0] for t in range(60)]
        rep = metrics(self.synthetic_trace(path), np.eye(4), np.eye(1),
                      band=band)
        expected = int(np.ceil(np.log(band) / np.log(rate)))
        assert rep.settling_steps == expected
        assert rep.overshoot_z == 0.0   # monotone approach, no crossing

    def test_constant_trace_at_reference(self):
        path = [[0.0, 0.0, 0.0, 0.0]] * 5
        rep = metrics(self.synthetic_trace(path), np.eye(4), np.eye(1))
        assert rep.overshoot_z == 0.0
        assert rep.settling_steps == 0

    def test_never_settles_reports_length(self):
        path = [[1.0, 0, 0, 0]] * 5
        rep = metrics(self.synthetic_trace(path), np.eye(4), np.eye(1))
        assert rep.settling_steps == 5
        assert rep.rise_steps == 5

    def test_cost_is_quadratic_sum(self):
        path = [[1.0, 0, 0, 0], [0.5, 0, 0, 0]]
        rep = metrics(self.synthetic_trace(path), 2.0 * np.eye(4), np.eye(1))
        assert rep.cost == pytest.approx(2.0 * (1.0 + 0.25))

    def test_solver_stats_sorted(self):
        path = [[1.0, 0, 0, 0]] * 10
        rep = metrics(self.synthetic_trace(path), np.eye(4), np.eye(1))
        assert rep.solver_median <= rep.solver_p95 <= rep.solver_max

    def test_band_validation(self):
        path = [[1.0, 0, 0, 0]] * 3
        with pytest.raises(ValueError):
            metrics(self.synthetic_trace(path), np.eye(4), np.eye(1), band=0.0)


class TestTrace:
    synthetic_trace = TestMetrics.synthetic_trace

    @pytest.mark.parametrize("name", [spec[0] for spec in TRACE_SPEC])
    def test_row_count_mismatch_rejected(self, name):
        tr = self.synthetic_trace([[1.0, 0.0, 0.0, 0.0]] * 3)
        with pytest.raises(ValueError):
            replace(tr, **{name: getattr(tr, name)[:2]})


class TestBuildSetup:
    def test_setup_consistency(self):
        s = scenario("dnn", steps=5)
        setup = build_setup(s)
        # no x0: the loop reads it from the scenario
        assert [f.name for f in fields(runtime.LoopSetup)] == [
            "params", "problem", "buffer", "l2nw"]
        assert setup.problem.cfg.N == 10
        adapter = setup.problem.oracle
        assert isinstance(adapter.state, om.OracleState)
        assert adapter.state.arch.hidden == (8, 6)
        assert adapter.state.generation == 0 and adapter.swap_steps == []
        assert adapter.buffer is setup.buffer and len(setup.buffer) == 0
        # tube gain must leave slack for the estimated disturbance
        from lbmpc.mpc import margin_ratio
        assert margin_ratio(setup.problem.model, setup.problem.cfg.K) < 1.0

    def test_unknown_oracle_kind_is_rejected(self):
        # parse_scenario checks the kind; a Scenario built in code does not
        s = Scenario(oracle=OracleSection(kind="bogus"))
        with pytest.raises(ValueError, match="unknown oracle kind 'bogus'"):
            build_setup(s)
