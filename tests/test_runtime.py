"""Closed-loop runtime tests: short deterministic runs of each oracle kind,
byte-identical repeatability, trace invariants and hand-checked metrics.
Runs are kept short; the long-horizon behavior is covered by the acceptance
suite.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from lbmpc import mpc, oracle as om, plant, runtime
from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import (OracleSection, Scenario, load_scenario,
                          parse_scenario)
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
        model = build_setup(scenario("dnn")).model
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
        sol = mpc.solve_lbmpc(setup.problem, setup.x0)
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
            status=["optimal"] * n, sqp_iters=np.zeros(n, dtype=int),
            solver_time=np.linspace(0.001, 0.002, n),
            state_margin=np.ones(n), input_margin=np.ones(n),
            shift_feasible=np.ones(n, dtype=bool),
            h_in_w=np.ones(n, dtype=bool), prepare_time=np.zeros(n))

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
        assert setup.problem.cfg.N == 10
        adapter = setup.oracle_adapter
        assert setup.problem.oracle is adapter
        assert isinstance(adapter.state, om.OracleState)
        assert adapter.state.arch.hidden == (8, 6)
        assert adapter.state.generation == 0 and adapter.swap_steps == []
        assert adapter.buffer is setup.buffer and len(setup.buffer) == 0
        # tube gain must leave slack for the estimated disturbance
        from lbmpc.mpc import margin_ratio
        assert margin_ratio(setup.model, setup.cfg.K) < 1.0

    def test_unknown_oracle_kind_is_rejected(self):
        # parse_scenario checks the kind; a Scenario built in code does not
        s = Scenario(oracle=OracleSection(kind="bogus"))
        with pytest.raises(ValueError, match="unknown oracle kind 'bogus'"):
            build_setup(s)
