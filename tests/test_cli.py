"""Command-line tests: exit codes, artifacts on disk and determinism of the
trace checksum.  Scenarios are trimmed-down copies of the bundled ones so
each invocation stays fast.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from lbmpc.cli import (EXIT_CONFIG, EXIT_EMPTY_SET, EXIT_INFEASIBLE,
                       EXIT_NUMERICAL, EXIT_OK, SCENARIO_DIR, main)
from lbmpc.config import ConfigError
from lbmpc.mpc import EmptyTightenedSet, MpcError
from lbmpc.plant import NotEquilibrium
from lbmpc.polytope import max_invariant_set
from lbmpc.runtime import InfeasibleAtStart


FAST = """
[plant]
w_samples = 1024
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
[run]
steps = 40
x0 = -0.12 0.06 0 0
"""


@pytest.fixture()
def fast_ini(tmp_path):
    def write(kind, extra="", name=None):
        p = tmp_path / ("%s.ini" % (name or kind))
        p.write_text(FAST % kind + extra)
        return str(p)
    return write


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestSimulate:
    def test_artifacts_and_exit_code(self, fast_ini, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["simulate", fast_ini("zero"), "--out", out])
        assert rc == EXIT_OK
        for name in ("config.ini", "trace.csv", "metrics.txt"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "trace.csv")) as fh:
            assert len(fh.read().strip().split("\n")) == 41

    def test_deterministic_checksum_stable(self, fast_ini, tmp_path):
        ini = fast_ini("dnn")
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["simulate", ini, "--deterministic", "--seed", "7",
                     "--out", out1]) == EXIT_OK
        assert main(["simulate", ini, "--deterministic", "--seed", "7",
                     "--out", out2]) == EXIT_OK
        assert sha(os.path.join(out1, "trace.csv")) \
            == sha(os.path.join(out2, "trace.csv"))

    def test_config_error_exit(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nsteps = -3\n")
        rc = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_env_override_validated(self, tmp_path, monkeypatch, capsys):
        # the environment override goes through the same validation as the
        # file, so a bad value is a config error, not a traceback; a solve
        # takes one Gauss-Newton step, so there is no iteration cap or
        # tolerance to set, and naming either is an unknown key
        for name, value, message in (
                ("SCHEDULE_MIN_NEW_SAMPLES", "0", "min_new_samples"),
                ("CONTROLLER_SQP_TOL", "1e-8",
                 "unknown key controller.sqp_tol"),
                ("CONTROLLER_SQP_MAX_ITER", "0",
                 "unknown key controller.sqp_max_iter"),
                ("ORACLE_TRAIN_EPOCHS", "-5", "train_epochs"),
                ("ORACLE_TRAIN_LR", "nan", "train_lr")):
            with monkeypatch.context() as env:
                env.setenv("LBMPC_" + name, value)
                rc = main(["simulate", os.path.join(SCENARIO_DIR, "dnn.ini"),
                           "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG, name
            assert message in capsys.readouterr().err, name

    @pytest.mark.parametrize("route", ["file", "environment", "flag"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys,
                                    route):
        # numpy's generators take no negative seed; each route that sets
        # schedule.seed goes through the scenario validation and exits 2
        ini, flags = os.path.join(SCENARIO_DIR, "dnn.ini"), []
        if route == "file":
            ini = tmp_path / "seed.ini"
            ini.write_text("[schedule]\nseed = -1\n")
        elif route == "environment":
            monkeypatch.setenv("LBMPC_SCHEDULE_SEED", "-1")
        else:
            flags = ["--seed", "-1"]
        rc = main(["simulate", str(ini), "--out", str(tmp_path / "o")]
                  + flags)
        assert rc == EXIT_CONFIG
        assert "schedule.seed must be >= 0" in capsys.readouterr().err

    def test_substeps_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LBMPC_PLANT_SUBSTEPS", "0")
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("name,value", [("BETA", "-1"),
                                            ("W_SAMPLES", "500")])
    def test_plant_constant_validated(self, tmp_path, monkeypatch, name,
                                      value):
        monkeypatch.setenv("LBMPC_PLANT_" + name, value)
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_w_bar_factor_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LBMPC_ORACLE_W_BAR_FACTOR", "-1")
        monkeypatch.setenv("LBMPC_RUN_STEPS", "60")
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "dnn.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    # SQP_MAX_ITER is no longer a key: a solve takes one Gauss-Newton step,
    # so setting it is rejected as an unknown key, still a config error
    @pytest.mark.parametrize("name,value", [
        ("R", "-1"), ("R", "0"), ("R", "nan"),
        ("Q_DIAG", "-1 1 1 1"), ("TUBE_MARGIN_TARGET", "nan"),
        ("TUBE_MARGIN_TARGET", "-1"), ("SQP_MAX_ITER", "0")])
    def test_controller_setting_validated(self, tmp_path, monkeypatch, name,
                                          value):
        monkeypatch.setenv("LBMPC_CONTROLLER_" + name, value)
        monkeypatch.setenv("LBMPC_RUN_STEPS", "20")
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "dnn.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_zero_state_weight_no_gain_exit(self, tmp_path, monkeypatch):
        # q_diag = 0 is a valid setting, but on the unstable plant no rung
        # of the gain ladder converges: "no gain found", a numerical failure
        monkeypatch.setenv("LBMPC_CONTROLLER_Q_DIAG", "0 0 0 0")
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("value", ["-1", "nan", "0", "0.5"])
    def test_w_inflation_validated(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("LBMPC_PLANT_W_INFLATION", value)
        monkeypatch.setenv("LBMPC_RUN_STEPS", "20")
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["simulate", "sets"])
    def test_beta_half_runs(self, command, tmp_path, monkeypatch):
        # the surge equilibrium does not depend on beta; while U_EQ was
        # rounded, its residual at beta = 0.5 was 2.8e-6, above
        # linearize_discretize's 1e-6 limit, and this exited 4
        monkeypatch.setenv("LBMPC_PLANT_BETA", "0.5")
        monkeypatch.setenv("LBMPC_RUN_STEPS", "20")
        rc = main([command, os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK

    def test_beta_three_no_gain_exit(self, tmp_path, monkeypatch, capsys):
        # the equilibrium and linearization hold at beta = 3, but no rung
        # of the tube-gain ladder has a tube that fits: a numerical failure
        # with a message, not a traceback
        monkeypatch.setenv("LBMPC_PLANT_BETA", "3")
        rc = main(["sets", os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERICAL
        assert "no gain found with a feasible disturbance tube" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,value,code,message", [
        ("T", "inf", EXIT_CONFIG, "plant.T must be finite and positive"),
        ("OMEGA_N", "inf", EXIT_CONFIG,
         "plant.omega_n must be finite and positive"),
        ("ZETA", "inf", EXIT_CONFIG, "plant.zeta must be finite and positive"),
        ("T", "1e300", EXIT_NUMERICAL, "ZOH exponential not finite"),
        ("ZETA", "1e300", EXIT_NUMERICAL, "ZOH exponential not finite"),
        ("BETA", "1e300", EXIT_NUMERICAL,
         "plant constants overflow the vector field")])
    def test_extreme_plant_constant_exit(self, tmp_path, monkeypatch, capsys,
                                         name, value, code, message):
        # each of these ended in a LinAlgError or OverflowError traceback
        monkeypatch.setenv("LBMPC_PLANT_" + name, value)
        rc = main(["sets", os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == code
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "sets"])
    def test_unconverged_invariant_set_exit(self, command, tmp_path,
                                            monkeypatch):
        # an iteration-capped fixpoint is not invariant: no run on it
        import lbmpc.runtime as rt

        def capped(*args):
            return dataclasses.replace(max_invariant_set(*args),
                                       converged=False)

        monkeypatch.setattr(rt, "max_invariant_set", capped)
        rc = main([command, os.path.join(SCENARIO_DIR, "linear.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL

    def test_truth_domain_error_exit(self, fast_ini, tmp_path, monkeypatch):
        # the loop's truth step leaving the vector field's domain is a
        # numerical failure; the setup's batched sweep runs unchanged
        import lbmpc.plant as pl
        from lbmpc.plant import DomainError

        step_truth = pl.step_truth

        def one_state_fails(state, u, params, **kw):
            if np.ndim(state) == 1:
                raise DomainError("state outside numerical domain guard")
            return step_truth(state, u, params, **kw)

        monkeypatch.setattr(pl, "step_truth", one_state_fails)
        rc = main(["simulate", fast_ini("zero"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("value", ["0", "nan", "1e300", "1e-300"])
    def test_l2nw_bandwidth_validated(self, tmp_path, monkeypatch, capsys,
                                      value):
        # 0 ended in a traceback, NaN in a run of fallback steps that
        # exited 0, 1e300, a bandwidth with no finite square, in an
        # OverflowError traceback from the estimator, and 1e-300, whose
        # square underflows to 0, in a RuntimeWarning and exit 3
        monkeypatch.setenv("LBMPC_ORACLE_L2NW_BANDWIDTH_FACTOR", value)
        monkeypatch.setenv("LBMPC_RUN_STEPS", "20")
        rc = main(["simulate", os.path.join(SCENARIO_DIR, "l2nw.ini"),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "oracle.l2nw_bandwidth_factor" in err
        assert "Traceback" not in err

    def test_missing_scenario_file(self, tmp_path):
        rc = main(["simulate", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_infeasible_start_exit(self, tmp_path):
        ini = tmp_path / "far.ini"
        ini.write_text("[plant]\nw_samples = 1024\n[oracle]\nkind = zero\n"
                       "[run]\nsteps = 10\nx0 = 0.49 0.49 0.9 15\n")
        rc = main(["simulate", str(ini), "--out", str(tmp_path / "o")])
        assert rc == EXIT_INFEASIBLE

    def test_oversized_disturbance_fails_loudly(self, tmp_path):
        # the tube-gain synthesis rejects a W this big; either failure
        # mode (no gain, or an emptied tightened set) must be nonzero
        ini = tmp_path / "wide.ini"
        ini.write_text("[plant]\nw_samples = 1024\nw_inflation = 60\n"
                       "[oracle]\nkind = zero\n[run]\nsteps = 10\n")
        rc = main(["simulate", str(ini), "--out", str(tmp_path / "o")])
        assert rc in (EXIT_EMPTY_SET, 4)

    def test_empty_tightened_set_exit(self, fast_ini, tmp_path, monkeypatch):
        # the gain gate keeps this plant away from empty sets, so the
        # exit-code mapping is exercised by forcing the exception
        import lbmpc.runtime as rt
        from lbmpc.mpc import EmptyTightenedSet

        def boom(scenario):
            raise EmptyTightenedSet(3, "state")

        monkeypatch.setattr(rt, "run_closed_loop", boom)
        rc = main(["simulate", fast_ini("zero"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_EMPTY_SET


class TestFailureTable:
    # every command maps a failure to the same exit code; build_setup is the
    # first step of each, so one injection point covers all three

    @staticmethod
    def argv(command, fast_ini, tmp_path):
        inis = [fast_ini("zero")]
        if command == "compare":
            inis.append(fast_ini("l2nw"))
        return [command, *inis, "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("command", ["simulate", "sets", "compare"])
    @pytest.mark.parametrize("exc,code", [
        (InfeasibleAtStart("no feasible solution at x0"), EXIT_INFEASIBLE),
        (EmptyTightenedSet(3, "state"), EXIT_EMPTY_SET),
        (MpcError("no gain found"), EXIT_NUMERICAL),
        (NotEquilibrium("equilibrium residual 2.8e-06"), EXIT_NUMERICAL),
        (ConfigError("bad setting"), EXIT_CONFIG)],
        ids=["infeasible", "empty_set", "mpc_error", "not_equilibrium",
             "config_error"])
    def test_exit_code(self, command, exc, code, fast_ini, tmp_path,
                       monkeypatch, capsys):
        import lbmpc.runtime as rt

        def boom(scenario):
            raise exc

        monkeypatch.setattr(rt, "build_setup", boom)
        assert main(self.argv(command, fast_ini, tmp_path)) == code
        assert str(exc) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sets", "compare"])
    def test_unexpected_error_propagates(self, command, fast_ini, tmp_path,
                                         monkeypatch):
        # a programming error is not a numerical failure: no exit code
        # hides it
        import lbmpc.runtime as rt

        def boom(scenario):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(rt, "build_setup", boom)
        with pytest.raises(ZeroDivisionError, match="injected"):
            main(self.argv(command, fast_ini, tmp_path))

    def test_compare_exits_for_first_failure(self, fast_ini, tmp_path,
                                             monkeypatch):
        # the first failed scenario decides the exit code, and the run still
        # writes the table with every scenario's error
        import lbmpc.runtime as rt
        build_setup = rt.build_setup

        def fails_for_dnn(scenario):
            if scenario.oracle.kind == "dnn":
                raise EmptyTightenedSet(2, "input")
            if scenario.oracle.kind == "l2nw":
                raise MpcError("no gain found")
            return build_setup(scenario)

        monkeypatch.setattr(rt, "build_setup", fails_for_dnn)
        out = tmp_path / "o"
        rc = main(["compare", fast_ini("zero"), fast_ini("dnn"),
                   fast_ini("l2nw"), "--out", str(out)])
        assert rc == EXIT_EMPTY_SET
        table = (out / "metrics.csv").read_text().split("\n")
        assert table[1].startswith("zero,") and table[1].endswith(",")
        assert table[2] == ("dnn,,,,,,,,,EmptyTightenedSet: tightened "
                            "input set empty at stage 2")
        assert table[3] == "l2nw,,,,,,,,,MpcError: no gain found"


class TestCompare:
    def test_artifacts(self, fast_ini, tmp_path, monkeypatch):
        # with the scenarios' own setting off, --deterministic alone makes
        # the traces repeat; each is the trace simulate writes
        monkeypatch.setenv("LBMPC_SCHEDULE_DETERMINISTIC", "false")
        names = ("zero", "l2nw")
        inis = [fast_ini(kind) for kind in names]
        outs = [tmp_path / "cmp1", tmp_path / "cmp2"]
        for out in outs:
            assert main(["compare", *inis, "--deterministic",
                         "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(outs[0])) == ["l2nw", "metrics.csv", "zero"]
        for ini, name in zip(inis, names):
            assert sorted(os.listdir(outs[0] / name)) == [
                "config.ini", "metrics.txt", "trace.csv"]
            sim = tmp_path / ("sim_" + name)
            assert main(["simulate", ini, "--deterministic",
                         "--out", str(sim)]) == EXIT_OK
            want = (sim / "trace.csv").read_bytes()
            for out in outs:
                assert (out / name / "trace.csv").read_bytes() == want

    @staticmethod
    def _compare_bands(tmp_path):
        # 60 steps, long enough for the wide band to settle first
        inis = []
        for kind, band in (("l2nw", 0.9), ("zero", 0.02)):
            text = (FAST % kind).replace("steps = 40", "steps = 60")
            inis.append(tmp_path / ("%s.ini" % kind))
            inis[-1].write_text(text + "band = %s\n" % band)
        out = tmp_path / "o"
        assert main(["compare", *map(str, inis),
                     "--out", str(out)]) == EXIT_OK
        header, *lines = (out / "metrics.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(",")))
                for line in lines]
        return out, rows

    def test_rows_in_argument_order_match_metrics_txt(self, tmp_path):
        out, rows = self._compare_bands(tmp_path)
        assert [r.pop("name") for r in rows] == ["l2nw", "zero"]
        for name, row in zip(("l2nw", "zero"), rows):
            assert row.pop("error") == ""
            text = (out / name / "metrics.txt").read_text().splitlines()
            assert row == dict(line.split(" = ") for line in text)

    def test_each_scenario_uses_its_own_band(self, tmp_path):
        _, rows = self._compare_bands(tmp_path)
        assert [r["name"] for r in rows] == ["l2nw", "zero"]
        assert int(rows[0]["settling_steps"]) < int(rows[1]["settling_steps"])

    def test_failed_scenario_keeps_its_config_and_row(self, fast_ini,
                                                      tmp_path, monkeypatch):
        import lbmpc.runtime as rt
        run = rt.run_closed_loop

        def fails_for_l2nw(scenario):
            if scenario.oracle.kind == "l2nw":
                raise MpcError("no gain found")
            return run(scenario)

        monkeypatch.setattr(rt, "run_closed_loop", fails_for_l2nw)
        out = tmp_path / "o"
        rc = main(["compare", fast_ini("l2nw"), fast_ini("zero"),
                   "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert os.listdir(out / "l2nw") == ["config.ini"]
        assert sorted(os.listdir(out / "zero")) == [
            "config.ini", "metrics.txt", "trace.csv"]
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[1] == "l2nw,,,,,,,,,MpcError: no gain found"
        assert lines[2].startswith("zero,") and lines[2].endswith(",")

    @pytest.mark.parametrize("old,new", [
        ("x0 = -0.12 0.06 0 0", "x0 = -0.1 0.05 0 0"),
        ("[schedule]\n", "[schedule]\nseed = 5\n"),
    ], ids=["x0", "seed"])
    def test_mismatched_x0_or_seed_rejected(self, old, new, fast_ini,
                                            tmp_path):
        other = tmp_path / "other.ini"
        other.write_text((FAST % "l2nw").replace(old, new))
        out = tmp_path / "o"
        rc = main(["compare", fast_ini("zero"), str(other),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_duplicate_file_stems_rejected(self, tmp_path):
        # both would write into <out>/a/
        inis = []
        for kind, d in (("zero", "x"), ("l2nw", "y")):
            (tmp_path / d).mkdir()
            inis.append(tmp_path / d / "a.ini")
            inis[-1].write_text(FAST % kind)
        out = tmp_path / "o"
        rc = main(["compare", *map(str, inis), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_single_scenario_rejected(self, fast_ini, tmp_path):
        rc = main(["compare", fast_ini("zero"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG


class TestBlasThreads:
    # the package pins one BLAS thread when it is imported before numpy;
    # each case needs a fresh interpreter
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("preset,imports,want", [
        (None, "lbmpc", ["1", "1", "1"]),
        ("2", "lbmpc", ["2", "1", "1"]),
        (None, "numpy, lbmpc", [None, None, None]),
    ], ids=["unset", "preset", "numpy-first"])
    def test_pin(self, preset, imports, want):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        src = os.path.dirname(os.path.dirname(SCENARIO_DIR))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        if preset is not None:
            env[self.VARS[0]] = preset
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os; import %s; print([os.environ.get(v) for v in %r])"
             % (imports, self.VARS)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(want)


class TestSets:
    def test_artifacts_and_invariance(self, fast_ini, tmp_path):
        out = str(tmp_path / "sets")
        rc = main(["sets", fast_ini("zero"), "--out", out])
        assert rc == EXIT_OK
        with open(os.path.join(out, "margins.csv")) as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 12   # header + stages 0..N for N = 10
        with open(os.path.join(out, "report.txt")) as fh:
            report = fh.read()
        assert "invariance_violations = 0" in report
        assert "tightened_sets_empty = none" in report
        assert os.path.exists(os.path.join(out, "omega.csv"))
