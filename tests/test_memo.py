"""The offline design's memo: a repeated build_setup skips every pure stage
and keeps every bit, a changed input misses and gives the uncached bits,
shared results are read-only, a call that raised is not stored, and each
memo stays within its bound.  tests/conftest.py empties the memos before
every test.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from lbmpc import _memo, cli, mpc, plant, polytope
from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import load_scenario, parse_scenario
from lbmpc.runtime import build_setup, run_closed_loop

SMALL = """
[plant]
w_samples = 1024
%s
[oracle]
kind = dnn
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
steps = 40
x0 = -0.12 0.06 0 0
"""


def small(plant_lines=""):
    return parse_scenario(SMALL % plant_lines, name="dnn", environ={})


def design(setup):
    """Every array of a setup's offline design."""
    p = setup.problem
    return [p.model.A, p.model.B, p.model.W.F, p.model.W.h, p.cfg.K, p.cfg.P,
            p.omega.F, p.omega.h, p.margins.state, p.margins.inputs,
            p.margins.terminal]


def same_bits(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(design(a), design(b)))


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls in a list,
    by the number of dimensions of its first argument."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(np.ndim(args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestRepeat:
    def test_second_setup_runs_no_stage_and_keeps_the_trace(self,
                                                            monkeypatch):
        s = small()
        first = run_closed_loop(s).to_csv()
        walks = counting(monkeypatch, polytope, "_walk")
        rows = counting(monkeypatch, polytope, "_nonredundant_rows")
        truth = counting(monkeypatch, plant, "step_truth")
        setup = build_setup(s)
        assert rows == [] and truth == []
        # the one LP left is the fresh problem's terminal emptiness test
        on_hit = len(walks)
        mpc.LbmpcProblem(setup.problem.model, setup.problem.cfg,
                         setup.problem.omega, setup.problem.margins,
                         setup.problem.oracle)
        assert len(walks) == 2 * on_hit
        assert run_closed_loop(s).to_csv() == first
        assert 2 not in truth  # the loop's truth steps, none batched

    def test_hit_returns_the_shared_results(self):
        a, b = build_setup(small()), build_setup(small())
        assert a.problem is not b.problem
        assert a.problem.oracle is not b.problem.oracle
        assert a.problem.omega is b.problem.omega
        assert a.problem.margins is b.problem.margins
        assert a.problem.cfg.K is b.problem.cfg.K

    def test_compare_runs_the_fixpoint_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LBMPC_RUN_STEPS", "20")
        points = counting(monkeypatch, polytope, "_point_of")
        paths = [os.path.join(SCENARIO_DIR, n + ".ini")
                 for n in ("linear", "dnn", "l2nw")]
        assert cli.main(["compare", *paths, "--out", str(tmp_path)]) == 0
        assert len(points) == 1


class TestMiss:
    @pytest.mark.parametrize("env", [{"LBMPC_PLANT_BETA": "0.5"},
                                     {"LBMPC_PLANT_W_REGION": "0.6"}])
    def test_changed_input_gives_the_uncached_bits(self, env):
        path = os.path.join(SCENARIO_DIR, "linear.ini")
        base = build_setup(load_scenario(path, environ={}))
        changed = load_scenario(path, environ=env)
        warm = build_setup(changed)
        _memo.clear()
        cold = build_setup(changed)
        assert same_bits(warm, cold)
        assert not same_bits(warm, base)
        assert warm.problem.model.W is not base.problem.model.W

    def test_negative_zero_is_another_key(self):
        p = build_setup(small()).problem
        Q = np.eye(4)
        signed = np.where(Q == 0.0, -0.0, Q)
        a = mpc.solve_lyapunov_P(p.model, p.cfg.K, Q, np.eye(1))
        b = mpc.solve_lyapunov_P(p.model, p.cfg.K, signed, np.eye(1))
        assert a is not b
        assert a.tobytes() == b.tobytes()


class TestSharedResults:
    def test_cached_arrays_are_read_only(self):
        setup = build_setup(small())
        for a in design(setup) + [setup.problem.model.x_eq]:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        x_e = plant.X_EQ.copy()
        model = plant.linearize_discretize(plant.MooreGreitzerParams(), x_e)
        assert x_e.flags.writeable and plant.X_EQ.flags.writeable
        assert not model.x_eq.flags.writeable


class TestRaised:
    def test_a_call_that_raised_is_recomputed(self, monkeypatch):
        # at beta = 3 no rung of the gain ladder fits its tube
        s = load_scenario(os.path.join(SCENARIO_DIR, "linear.ini"),
                          environ={"LBMPC_PLANT_BETA": "3"})
        gains = counting(monkeypatch, mpc, "synthesize_gain")
        for _ in range(2):
            with pytest.raises(mpc.MpcError, match="no gain found"):
                build_setup(s)
        assert len(gains) == 2 * 5

    def test_a_stage_that_raised_once_runs_again(self, monkeypatch):
        params = plant.MooreGreitzerParams()
        model = plant.linearize_discretize(params)
        step_truth = plant.step_truth
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise plant.DomainError("injected")
            return step_truth(*args, **kwargs)

        monkeypatch.setattr(plant, "step_truth", fails_once)
        with pytest.raises(plant.DomainError):
            plant.estimate_W(model, params, samples=1024)
        W = plant.estimate_W(model, params, samples=1024)
        assert len(calls) == 2
        assert plant.estimate_W(model, params, samples=1024) is W
        assert len(calls) == 2


class TestBound:
    def test_each_memo_keeps_its_size(self):
        p = build_setup(small()).problem

        def lyapunov(i):
            return mpc.solve_lyapunov_P(p.model, p.cfg.K,
                                        (1.0 + i) * np.eye(4), np.eye(1))

        first = [lyapunov(i) for i in range(_memo.SIZE + 3)]
        assert max(map(len, _memo._memos)) == _memo.SIZE
        # the oldest three were dropped, the newest are shared
        assert lyapunov(0) is not first[0]
        assert lyapunov(_memo.SIZE + 2) is first[-1]
        assert max(map(len, _memo._memos)) == _memo.SIZE

    def test_a_hit_is_the_most_recent(self):
        p = build_setup(small()).problem

        def lyapunov(i):
            return mpc.solve_lyapunov_P(p.model, p.cfg.K,
                                        (1.0 + i) * np.eye(4), np.eye(1))

        oldest = lyapunov(0)
        for i in range(1, _memo.SIZE):
            lyapunov(i)
        assert lyapunov(0) is oldest  # a hit, now the most recent
        lyapunov(_memo.SIZE)          # drops 1, not 0
        assert lyapunov(0) is oldest

    def test_unkeyed_argument_bypasses_the_memo(self):
        p = build_setup(small()).problem
        model = SimpleNamespace(A=p.model.A, B=p.model.B)
        _memo.clear()
        a, b = (mpc.solve_lyapunov_P(model, p.cfg.K, np.eye(4), np.eye(1))
                for _ in range(2))
        assert a is not b and a.flags.writeable
        assert a.tobytes() == b.tobytes()
        assert max(map(len, _memo._memos)) == 0
