"""Scenario parsing tests: defaults, typed overrides, strict unknown-key
errors, environment variables, and the echo round trip.
"""

import pytest

from lbmpc.config import (ConfigError, Scenario, echo_scenario, load_scenario,
                          parse_scenario)


EMPTY_ENV = {}


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        s = parse_scenario("", environ=EMPTY_ENV)
        assert s.controller.N == 10
        assert s.oracle.kind == "dnn"
        assert s.run.steps == 500
        assert s.run.x0 == (-0.12, 0.06, 0.0, 0.0)
        assert s.plant.w_region == (0.7, 0.8, 0.5, 0.25, 0.5)

    def test_partial_section_keeps_other_defaults(self):
        s = parse_scenario("[run]\nsteps = 7\n", environ=EMPTY_ENV)
        assert s.run.steps == 7
        assert s.run.band == 0.02


class TestParsing:
    def test_typed_values(self):
        text = """
[oracle]
kind = l2nw
hidden = 8 4
gamma = 0.25
[schedule]
deterministic = false
seed = 3
[run]
x0 = -0.1, 0.05, 0, 0
"""
        s = parse_scenario(text, environ=EMPTY_ENV)
        assert s.oracle.kind == "l2nw"
        assert s.oracle.hidden == (8, 4)
        assert s.oracle.gamma == 0.25
        assert s.schedule.deterministic is False
        assert s.schedule.seed == 3
        assert s.run.x0 == (-0.1, 0.05, 0.0, 0.0)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("[solver]\nrho = 0.1\n", environ=EMPTY_ENV)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("[run]\nstep_count = 10\n", environ=EMPTY_ENV)
        # the absolute kernel bandwidth is gone; the factor covers it
        with pytest.raises(ConfigError):
            parse_scenario("", environ={"LBMPC_ORACLE_L2NW_BANDWIDTH": "0.1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("[run]\nsteps = many\n", environ=EMPTY_ENV)

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("[schedule]\ndeterministic = maybe\n",
                           environ=EMPTY_ENV)


class TestValidation:
    def test_bad_oracle_kind(self):
        with pytest.raises(ConfigError):
            parse_scenario("[oracle]\nkind = gp\n", environ=EMPTY_ENV)

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_scenario("[oracle]\ngamma = 1.5\n", environ=EMPTY_ENV)

    def test_w_bar_factor_finite_and_positive(self):
        # a factor <= 0 gave column bounds W_bar <= 0 that the projection
        # applied anyway
        for value in ("0", "-1", "nan", "inf"):
            with pytest.raises(ConfigError):
                parse_scenario("[oracle]\nw_bar_factor = %s\n" % value,
                               environ=EMPTY_ENV)
        s = parse_scenario("[oracle]\nw_bar_factor = 0.5\n",
                           environ=EMPTY_ENV)
        assert s.oracle.w_bar_factor == 0.5

    def test_w_inflation_finite_and_at_least_one(self):
        # below 1 the box is narrower than the sweep's own residuals, so
        # h in W fails by construction; -1 gave an untyped Infeasible
        for value in ("-1", "0", "0.5", "nan", "inf"):
            with pytest.raises(ConfigError):
                parse_scenario("[plant]\nw_inflation = %s\n" % value,
                               environ=EMPTY_ENV)
        s = parse_scenario("[plant]\nw_inflation = 1\n", environ=EMPTY_ENV)
        assert s.plant.w_inflation == 1.0

    def test_controller_settings(self):
        # r <= 0 and a target outside (0, 1] ran, and a NaN weight ended as
        # "no gain found"
        for line in ("r = -1", "r = 0", "r = nan",
                     "r = inf", "q_diag = -1 1 1 1", "q_diag = 1 nan 1 1",
                     "q_diag = 1 1 inf 1", "tube_margin_target = nan",
                     "tube_margin_target = -1", "tube_margin_target = 0",
                     "tube_margin_target = 1.01"):
            with pytest.raises(ConfigError):
                parse_scenario("[controller]\n%s\n" % line,
                               environ=EMPTY_ENV)
        s = parse_scenario("[controller]\nr = 0.01\n"
                           "q_diag = 0 1 1 1\ntube_margin_target = 1\n",
                           environ=EMPTY_ENV)
        assert (s.controller.r, s.controller.q_diag,
                s.controller.tube_margin_target) \
            == (0.01, (0.0, 1.0, 1.0, 1.0), 1.0)
        # a solve takes one Gauss-Newton step, so there is no iteration cap
        # or tolerance to set: a scenario or override naming either fails
        for key, value in (("sqp_max_iter", "1"), ("sqp_tol", "1e-12")):
            with pytest.raises(ConfigError,
                               match="unknown key controller.%s" % key):
                parse_scenario("[controller]\n%s = %s\n" % (key, value),
                               environ=EMPTY_ENV)
            with pytest.raises(ConfigError,
                               match="unknown key controller.%s" % key):
                parse_scenario("", environ={
                    "LBMPC_CONTROLLER_" + key.upper(): value})

    @pytest.mark.parametrize("name", ["l2nw_bandwidth_factor",
                                      "l2nw_lambda", "train_lr"])
    def test_l2nw_settings_finite_and_positive(self, name):
        # 0 ended in a traceback; a NaN bandwidth made nearly every step a
        # fallback and still exited 0; a NaN learning rate parsed
        for value in ("0", "-1", "nan", "inf"):
            with pytest.raises(ConfigError):
                parse_scenario("[oracle]\n%s = %s\n" % (name, value),
                               environ=EMPTY_ENV)
        s = parse_scenario("[oracle]\n%s = 0.5\n" % name, environ=EMPTY_ENV)
        assert getattr(s.oracle, name) == 0.5

    def test_buffer_capacity_at_least_one(self):
        with pytest.raises(ConfigError):
            parse_scenario("[oracle]\nbuffer_capacity = 0\n",
                           environ=EMPTY_ENV)
        s = parse_scenario("[oracle]\nbuffer_capacity = 1\n",
                           environ=EMPTY_ENV)
        assert s.oracle.buffer_capacity == 1

    def test_hidden_widths(self):
        # "8.5 4" ran as (8, 4) while config.ini echoed 8.5
        for value in ("", "0", "8 0", "-4 8", "1e999", "8.5 4", "8.0"):
            with pytest.raises(ConfigError):
                parse_scenario("[oracle]\nhidden = %s\n" % value,
                               environ=EMPTY_ENV)
        with pytest.raises(ConfigError):
            parse_scenario("", environ={"LBMPC_ORACLE_HIDDEN": "8.5 4"})
        s = parse_scenario("[oracle]\nhidden = 1\n", environ=EMPTY_ENV)
        assert s.oracle.hidden == (1,)

    def test_train_batch_at_least_one(self):
        # a batch of 0 failed at the first trainer event with "float
        # division by zero"; a negative epoch count parsed
        for line in ("train_batch = 0", "train_epochs = 0",
                     "train_epochs = -5"):
            with pytest.raises(ConfigError):
                parse_scenario("[oracle]\n%s\n" % line, environ=EMPTY_ENV)
        s = parse_scenario("[oracle]\ntrain_batch = 1\ntrain_epochs = 1\n",
                           environ=EMPTY_ENV)
        assert (s.oracle.train_batch, s.oracle.train_epochs) == (1, 1)

    def test_x0_finite(self):
        for value in ("nan 0 0 0", "-0.12 inf 0 0"):
            with pytest.raises(ConfigError):
                parse_scenario("[run]\nx0 = %s\n" % value, environ=EMPTY_ENV)

    def test_x0_needs_four_entries(self):
        with pytest.raises(ConfigError):
            parse_scenario("[run]\nx0 = 1 2 3\n", environ=EMPTY_ENV)

    def test_band_range(self):
        with pytest.raises(ConfigError):
            parse_scenario("[run]\nband = 0\n", environ=EMPTY_ENV)

    def test_schedule_bounds(self):
        for line in ("copy_period = 0", "train_fill = 0", "train_fill = 1.5",
                     "min_new_samples = 0"):
            with pytest.raises(ConfigError):
                parse_scenario("[schedule]\n%s\n" % line, environ=EMPTY_ENV)

    def test_plant_constants(self):
        # each of these reached the plant, which raised a ValueError (for
        # an inf, a LinAlgError)
        for line in ("beta = -1", "zeta = 0", "omega_n = -3", "T = 0",
                     "beta = nan", "w_samples = 999", "T = inf",
                     "omega_n = inf", "zeta = inf", "beta = inf"):
            with pytest.raises(ConfigError):
                parse_scenario("[plant]\n%s\n" % line, environ=EMPTY_ENV)
        s = parse_scenario("[plant]\nw_samples = 1000\n", environ=EMPTY_ENV)
        assert s.plant.w_samples == 1000

    def test_w_region_entries(self):
        with pytest.raises(ConfigError):
            parse_scenario("[plant]\nw_region = 0.5 0.5\n", environ=EMPTY_ENV)

    def test_w_region_nan_rejected(self):
        # NaN passed the range test and ended as "no gain found"
        for value in ("nan", "0.7 0.8 nan 0.25 0.5"):
            with pytest.raises(ConfigError):
                parse_scenario("[plant]\nw_region = %s\n" % value,
                               environ=EMPTY_ENV)


class TestEnvironment:
    def test_override_applies_last(self):
        env = {"LBMPC_RUN_STEPS": "123"}
        s = parse_scenario("[run]\nsteps = 7\n", environ=env)
        assert s.run.steps == 123

    def test_unknown_env_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("", environ={"LBMPC_SOLVER_RHO": "1"})

    def test_unrelated_env_ignored(self):
        s = parse_scenario("", environ={"PATH": "/usr/bin"})
        assert s == Scenario()


class TestEcho:
    def test_round_trip_equality(self):
        text = """
[oracle]
kind = dnn
hidden = 16 8
[controller]
N = 6
[run]
steps = 50
x0 = -0.1 0.05 0 0
"""
        s = parse_scenario(text, environ=EMPTY_ENV)
        s2 = parse_scenario(echo_scenario(s), environ=EMPTY_ENV)
        assert s2 == s

    def test_defaults_round_trip(self):
        s = Scenario()
        assert parse_scenario(echo_scenario(s), environ=EMPTY_ENV) == s


class TestFiles:
    def test_load_names_after_basename(self, tmp_path):
        p = tmp_path / "myrun.ini"
        p.write_text("[run]\nsteps = 5\n")
        s = load_scenario(str(p), environ=EMPTY_ENV)
        assert s.name == "myrun"
        assert s.run.steps == 5

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(str(tmp_path / "nope.ini"), environ=EMPTY_ENV)

    def test_bundled_scenarios_parse(self):
        import os
        import lbmpc.cli as cli
        for name in ("linear", "dnn", "l2nw"):
            s = load_scenario(os.path.join(cli.SCENARIO_DIR, "%s.ini" % name),
                              environ=EMPTY_ENV)
            assert s.run.steps == 500
