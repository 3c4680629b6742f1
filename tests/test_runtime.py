"""Closed-loop runtime tests: short deterministic runs of each oracle kind,
byte-identical repeatability, trace invariants, hand-checked metrics, and the
comparison guardrails.  Runs are kept short; the long-horizon behavior is
covered by the acceptance suite.
"""

import copy
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from lbmpc import oracle as om
from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import load_scenario, parse_scenario
from lbmpc.runtime import (TRACE_SPEC, ClosedLoopTrace, InfeasibleAtStart,
                           Mailbox, MetricsReport, RuntimeFailure, build_setup,
                           compare, metrics, run_closed_loop, _trainer_worker)


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


def concurrent_dnn():
    """300 steps of the bundled dnn scenario, trainer in its own thread."""
    s = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"), environ=EMPTY_ENV)
    return replace(s, run=replace(s.run, steps=300),
                   schedule=replace(s.schedule, deterministic=False))


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

    def test_trace_csv_shape(self, dnn_trace):
        from lbmpc.runtime import TRACE_COLUMNS
        lines = dnn_trace.to_csv().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 61
        assert all(len(l.split(",")) == len(TRACE_COLUMNS) for l in lines)


class TestTrainer:
    def test_worker_on_snapshot_matches_inline(self):
        # the concurrent trainer's job (a copy of the ring, trained in the
        # worker thread) gives what inline training on the live ring gives
        rng = np.random.default_rng(4)
        arch = om.NetworkArch(n_in=5, hidden=(8, 6), n_out=4)
        state = om.new_oracle(arch, W_bar=np.full(4, 0.5), gamma=0.3, seed=2)
        state = om.OracleState(arch=arch, hidden=state.hidden,
                               K=0.1 * rng.normal(size=state.K.shape),
                               W_bar=state.W_bar, gamma=state.gamma)
        buf = om.ReplayBuffer(capacity=400, n_in=5, n_out=4)
        for _ in range(100):
            xu = rng.normal(size=5)
            buf.push(xu, np.sin(xu[:4]))
        job = (state, copy.deepcopy(buf), 7)
        inline = om.train_hidden(state, buf, 64, 4, lr=0.01, seed=7)
        buf.push(np.ones(5), np.ones(4))    # the live ring moves on

        inbox, outbox, stop = Mailbox(), Mailbox(), threading.Event()
        worker = threading.Thread(target=_trainer_worker,
                                  args=(inbox, outbox, stop, 64, 4, 0.01),
                                  daemon=True)
        inbox.put(job)
        worker.start()
        try:
            done = None
            deadline = time.monotonic() + 60.0
            while done is None and time.monotonic() < deadline:
                done = outbox.take()
                stop.wait(1e-3)
        finally:
            stop.set()
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert done is not None, "trainer returned nothing within 60 s"
        hidden, loss = done
        assert loss == inline[1]
        for (W, b), (W_in, b_in) in zip(hidden, inline[0]):
            assert np.array_equal(W, W_in)
            assert np.array_equal(b, b_in)

    def test_concurrent_dnn_smoke(self):
        # timing-free: swaps land whenever the trainer finishes, so only the
        # guarantees and the generation bookkeeping are checked
        tr = run_closed_loop(concurrent_dnn())
        assert len(tr) == 300
        assert np.all(tr.h_in_w)
        assert np.all(tr.shift_feasible)
        assert np.all(tr.state_margin > 0)
        assert np.all(tr.input_margin > 0)
        assert set(tr.status) <= {"optimal", "fallback"}
        # a generation is installed at the top of each listed step, and the
        # generation moves nowhere else
        rises = np.diff(tr.generation)
        assert tr.generation[0] == 0
        assert set(rises) <= {0, 1}
        assert list(np.flatnonzero(rises) + 1) == tr.swap_steps

    def test_failing_trainer_job_surfaces(self, monkeypatch):
        def failing_train(*args, **kwargs):
            raise FloatingPointError("injected trainer failure")

        monkeypatch.setattr(om, "train_hidden", failing_train)
        with pytest.raises(RuntimeFailure, match="trainer job failed"):
            run_closed_loop(concurrent_dnn())


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
            h_in_w=np.ones(n, dtype=bool))

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


class TestCompare:
    def test_mismatched_x0_rejected(self):
        a = scenario("zero", steps=5)
        b = replace(a, run=replace(a.run, x0=(-0.1, 0.05, 0.0, 0.0)))
        with pytest.raises(ValueError):
            compare([a, b])

    def test_reports_and_errors_aligned(self):
        a = scenario("zero", steps=30)
        b = scenario("l2nw", steps=30)
        rep = compare([a, b], names=["zero", "l2nw"])
        assert rep.errors == [None, None]
        assert all(r is not None for r in rep.reports)
        csv = rep.table_csv()
        assert csv.startswith("name,")
        assert "zero," in csv and "l2nw," in csv
        aligned = rep.aligned_csv()
        header = aligned.split("\n", 1)[0].split(",")
        assert header[0] == "t"
        assert "zero_z" in header and "l2nw_solver" in header


class TestBuildSetup:
    def test_setup_consistency(self):
        s = scenario("dnn", steps=5)
        setup = build_setup(s)
        assert setup.problem.cfg.N == 10
        assert setup.dnn_state is not None
        assert setup.buffer is not None
        # tube gain must leave slack for the estimated disturbance
        from lbmpc.mpc import margin_ratio
        assert margin_ratio(setup.model, setup.cfg.K) < 1.0
