"""Plant model tests: vector field against hand-derived values, Jacobians
against central differences, exact discretization against the matrix
exponential, the residual-bound estimator against fresh random sweeps, and
its Halton points against scipy's.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import qmc

from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import load_scenario
from lbmpc.polytope import bounding_box
from lbmpc.plant import (DomainError, HALF_WIDTHS, MooreGreitzerParams,
                         NotEquilibrium, PlantError, PlantModel, U_EQ, X_EQ,
                         _field, _halton, deviation_constraint_sets,
                         estimate_W, linearize_discretize, mg_jacobians,
                         mg_rhs, residual_sweep, step_truth, truth_residual)
from lbmpc.runtime import build_setup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_step_one(x, u, params, substeps=10):
    """The numpy RK4 on one state, as step_truth ran it before its float path."""
    h = params.T / substeps
    x = np.asarray(x, dtype=float)

    def f(s):
        return mg_rhs(s, u, params)

    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.fixture(scope="module")
def params():
    return MooreGreitzerParams()


@pytest.fixture(scope="module")
def model(params):
    return linearize_discretize(params)


class TestVectorField:
    def test_equilibrium_residual_tiny(self, params):
        r = mg_rhs(X_EQ, U_EQ, params)
        assert np.linalg.norm(r, np.inf) < 1e-6

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.836, 1.0, 3.0])
    def test_equilibrium_for_every_beta(self, beta):
        # the point is derived from the field's relations at full
        # precision, and beta only scales the pressure-rise row's residual
        params = MooreGreitzerParams(beta=beta)
        assert np.linalg.norm(mg_rhs(X_EQ, U_EQ, params), np.inf) < 1e-12
        linearize_discretize(params)

    @pytest.mark.parametrize("name", ["beta", "zeta", "omega_n", "T"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_constants_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match="finite and positive"):
            MooreGreitzerParams(**{name: value})

    @pytest.mark.parametrize("kwargs", [dict(T=1e300), dict(zeta=1e300),
                                        dict(beta=1e300),
                                        dict(omega_n=1e300)])
    def test_overflowing_constants_raise_plant_error(self, kwargs):
        # finite constants whose squares or ZOH exponential overflow
        with pytest.raises(PlantError):
            linearize_discretize(MooreGreitzerParams(**kwargs))

    def test_hand_computed_point(self, params):
        # z=0.25, y=1.0, r=1.0, rdot=0, u=1.0 with beta=1
        x = np.array([0.25, 1.0, 1.0, 0.0])
        f = mg_rhs(x, 1.0, params)
        assert f[0] == pytest.approx(-1.0 + 1.0 + 1.5 * 0.25
                                     - 0.5 * 0.25 ** 3, abs=1e-14)
        assert f[1] == pytest.approx(0.25 + 1.0 - 1.0, abs=1e-14)
        assert f[2] == 0.0
        assert f[3] == pytest.approx(params.omega_n ** 2 * (1.0 - 1.0), abs=1e-12)

    def test_batched_evaluation_matches_loop(self, params):
        rng = np.random.default_rng(0)
        xs = rng.uniform([0.0, 1.2, 0.2, -5.0], [1.0, 2.1, 2.1, 5.0], (20, 4))
        us = rng.uniform(0.2, 2.1, 20)
        batch = mg_rhs(xs, us[0], params)
        for i in range(20):
            assert np.allclose(mg_rhs(xs[i], us[0], params), batch[i])

    def test_negative_pressure_raises(self, params):
        with pytest.raises(DomainError):
            mg_rhs([0.5, -0.1, 1.0, 0.0], 1.0, params)


class TestJacobians:
    def test_matches_central_differences(self, params):
        rng = np.random.default_rng(1)
        eps = 1e-6
        for _ in range(5):
            x = X_EQ + rng.uniform(-0.05, 0.05, 4)
            u = U_EQ + rng.uniform(-0.05, 0.05)
            A, B = mg_jacobians(params, x, u)
            for j in range(4):
                dx = np.zeros(4)
                dx[j] = eps
                fd = (mg_rhs(x + dx, u, params) - mg_rhs(x - dx, u, params)) / (2 * eps)
                assert np.allclose(A[:, j], fd, atol=1e-6)
            fd = (mg_rhs(x, u + eps, params) - mg_rhs(x, u - eps, params)) / (2 * eps)
            assert np.allclose(B[:, 0], fd, atol=1e-6)


class TestDiscretization:
    def test_zoh_equals_matrix_exponential(self, params, model):
        A_c, B_c = mg_jacobians(params, X_EQ, U_EQ)
        aug = np.zeros((5, 5))
        aug[:4, :4] = A_c
        aug[:4, 4:] = B_c
        M = expm(aug * params.T)
        assert np.allclose(model.A, M[:4, :4], atol=1e-12)
        assert np.allclose(model.B, M[:4, 4:], atol=1e-12)

    def test_linear_response_on_small_deviation(self, params, model):
        # near the equilibrium one ZOH step of the truth is A x + B u + O(2nd)
        x_dev = np.array([1e-4, -1e-4, 0.0, 0.0])
        nxt = step_truth(X_EQ + x_dev, U_EQ, params) - X_EQ
        pred = model.A @ x_dev
        # floor set by the integrator drift at the stiff actuator states
        assert np.linalg.norm(nxt - pred, np.inf) < 1e-7

    def test_bad_equilibrium_rejected(self, params):
        with pytest.raises(NotEquilibrium):
            linearize_discretize(params, x_e=X_EQ + 0.1, u_e=U_EQ)

    def test_deviation_sets_centered(self):
        X, U = deviation_constraint_sets()
        assert X.contains(np.zeros(4))
        assert U.contains([0.0])
        assert X.contains([0.5, 0.5, 1.0, 20.0])
        assert not X.contains([0.51, 0.0, 0.0, 0.0])
        # exactly the operating box's half-widths about the origin
        for P, half in ((X, HALF_WIDTHS[:4]), (U, HALF_WIDTHS[4:])):
            lo, hi = bounding_box(P)
            assert np.array_equal(lo, -half) and np.array_equal(hi, half)


class TestIntegrator:
    def test_rk4_order(self, params):
        x0 = np.array([0.45, 1.6, 1.2, 0.5])
        coarse = step_truth(x0, 1.1, params, substeps=5)
        fine = step_truth(x0, 1.1, params, substeps=10)
        finest = step_truth(x0, 1.1, params, substeps=40)
        e_coarse = np.linalg.norm(coarse - finest)
        e_fine = np.linalg.norm(fine - finest)
        # halving the step must shrink the error clearly (the stiff
        # actuator keeps the observed order below the asymptotic 2^4)
        assert e_fine < e_coarse / 4.0

    def test_one_state_matches_batched_rows(self, params):
        # one state runs on Python floats, a batch on numpy rows; the cube is
        # the product z*z*z in both, correctly rounded, so they agree bit for
        # bit with each other and with the numpy RK4 on one state
        rng = np.random.default_rng(31)
        center = np.append(X_EQ, U_EQ)
        lo, hi = center - HALF_WIDTHS, center + HALF_WIDTHS
        pts = lo + rng.random((1000, 5)) * (hi - lo)
        special = np.array([
            [0.5, 1.6875, 1.1547, 2e6, 1.0],          # past the guard
            [1e-4, 1.6875, 1.1547, 0.0, 1.0],         # z < 0 at stage 2
            [-2.0, 0.0, 1.0, 0.0, 1.0],               # y < 0 at stage 2
            [np.nan, 2e6, 1.0, 0.0, 1.0],             # NaN beside the guard
            [0.5, 2e6, np.nan, 0.0, 1.0],
            [np.nan, 1.6, 1.2, 0.0, 1.0],             # NaN alone passes
        ])
        # states whose step moved by an ulp when the cube went through a
        # power routine (Python's C pow against numpy's SIMD power), found by
        # search on an AVX-512 host
        rounding = np.array([
            [0.6650228902938203, 1.9176298177544697, 0.4625050844146365,
             -0.8964993726914372, 0.330648140395511],
            [0.500677606663284, 2.0843469919969784, 1.223214350119519,
             -6.22172043981271, 0.7414109118275574],
            [0.7885863702641233, 2.0415745912506846, 2.0895782582676508,
             -15.345831768658908, 0.4668118054632106],
            [0.962691676823123, 2.0600474964051085, 0.96726551664716,
             -16.596686794379487, 0.9143308577234204],
        ])
        pts = np.vstack([pts, special, rounding])
        one, ok = [], np.ones(len(pts), dtype=bool)
        for i, p in enumerate(pts):
            try:
                one.append(step_truth(p[:4], p[4:], params))
                ref = reference_step_one(p[:4], p[4:], params)
                assert np.array_equal(one[-1], ref, equal_nan=True)
            except DomainError:
                ok[i] = False
                with pytest.raises(DomainError):
                    step_truth(p[None, :4], p[4:], params)
        # the guard cases, and the stage-2 root case, whose first stage passes
        assert not ok[[1000, 1002, 1003, 1004]].any() and ok[1005]
        mg_rhs(pts[1002, :4], pts[1002, 4], params)
        batch = step_truth(pts[ok, :4], pts[ok, 4], params)
        assert np.array_equal(np.array(one), batch, equal_nan=True)

    def test_substeps_validated(self, params):
        with pytest.raises(ValueError):
            step_truth(X_EQ, U_EQ, params, substeps=0)



OUTSIDE = "state outside numerical domain guard"
NEGATIVE = "negative square-root argument in throttle flow"
PAST_GUARD = np.nextafter(1e6, np.inf)

# batches of (z, y, r, rdot) and the field's verdict on them: the message
# it raises, or None where every row passes
GUARD_CASES = {
    "nan": ([[np.nan, 1.6875, 1.1547, 0.0], [0.5, 1.6875, 1.1547, np.nan]],
            None),
    "inf": ([[0.5, 1.6875, np.inf, 0.0]], OUTSIDE),
    "minus_inf": ([[0.5, 1.6875, 1.1547, -np.inf]], OUTSIDE),
    "at_guard": ([[0.5, 1.6875, 1.1547, 1e6]], None),
    "at_minus_guard": ([[0.5, 1.6875, -1e6, 0.0]], None),
    "past_guard": ([[0.5, 1.6875, 1.1547, PAST_GUARD]], OUTSIDE),
    "past_minus_guard": ([[-PAST_GUARD, 1.6875, 1.1547, 0.0]], OUTSIDE),
    "negative_y": ([[0.5, -1e-3, 1.1547, 0.0]], NEGATIVE),
    "nan_beside_huge": ([[np.nan, 1.6875, 1.1547, 0.0],
                         [2e6, 1.6875, 1.1547, 0.0]], OUTSIDE),
    "all_nan_column": ([[0.5, np.nan, 1.1547, 0.0],
                        [0.4, np.nan, 1.2, 0.0]], None),
    "empty": (np.empty((0, 4)), None),
}


class TestDomainGuard:
    """A batch's guard reduces each column once; it must give the verdict
    of the one-state path, which compares Python floats, row by row."""

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_batch_matches_one_state(self, params, case):
        rows, verdict = GUARD_CASES[case]
        X = np.array(rows, dtype=float).reshape(-1, 4)
        u = np.full(len(X), U_EQ)
        field_one = _field(params, U_EQ, rows=False)
        paths = (
            ("field", lambda: mg_rhs(X, u, params),
             lambda x: np.array(field_one(*x.tolist()))),
            ("step", lambda: step_truth(X, u, params),
             lambda x: step_truth(x, U_EQ, params)),
        )
        for path, batch, one in paths:
            outcomes = []
            for x in X:
                try:
                    outcomes.append(one(x))
                except DomainError as exc:
                    outcomes.append(str(exc))
            messages = {o for o in outcomes if isinstance(o, str)}
            if path == "field":
                assert messages == {verdict} - {None}
            if messages:
                # each case's raising rows agree on the message
                message, = messages
                with pytest.raises(DomainError) as info:
                    batch()
                assert str(info.value) == message
            else:
                out = batch()
                assert out.shape == X.shape
                assert np.array_equal(out, np.reshape(outcomes, X.shape),
                                      equal_nan=True)

class TestGoldenBits:
    """step_truth and mg_rhs pinned to recorded bits, one state at a time and
    as one batch.  reference_step_one calls mg_rhs, so it cannot catch a
    change to the vector field itself; these literals can.  Only IEEE
    arithmetic and a correctly rounded sqrt are involved, so the bits do not
    depend on the platform.  The inputs are literals too: the first two are
    near the surge equilibrium with r = u = 1.1547, as recorded, not the
    full-precision X_EQ and U_EQ."""

    OLD_EQ = np.array([0.5, 1.6875, 1.1547, 0.0])
    STATES = np.array([OLD_EQ, OLD_EQ + [-0.12, 0.06, 0.0, 0.0],
                       [0.3, 1.4, 0.8, -3.0], [0.75, 2.0, 1.9, 7.5]])
    INPUTS = np.array([1.1547, 1.1547, 0.6, 1.8])
    STEP = [
        ("0x1.fffffff0cf910p-2", "0x1.b0000094786e2p+0",
         "0x1.279a6b50b0f28p+0", "0x0.0p+0"),
        ("0x1.7a7a11420d764p-2", "0x1.bd70b5046ed65p+0",
         "0x1.279a6b50b0f28p+0", "0x0.0p+0"),
        ("0x1.3496db40bfd7cp-2", "0x1.6c1d1884b2f37p+0",
         "0x1.4bc0f1e58c6e1p-1", "-0x1.1698a20f6d517p+1"),
        ("0x1.7e6a392b92e23p-1", "0x1.f31a49f0105d4p+0",
         "0x1.f13acb65f0cc6p+0", "-0x1.3937b1a68c656p+1"),
    ]
    RHS = [
        ("0x0.0p+0", "0x1.777963f600000p-21", "0x0.0p+0", "0x0.0p+0"),
        ("-0x1.a3b57c4e2f380p-3", "-0x1.2be51601a4528p-3",
         "0x0.0p+0", "0x0.0p+0"),
        ("0x1.2b020c49ba5eap-5", "0x1.69e8d43a47550p-2",
         "-0x1.8000000000000p+1", "-0x1.0757fbc43154cp+6"),
        ("-0x1.6000000000000p-4", "-0x1.dfbf3857d1670p-1",
         "0x1.e000000000000p+2", "-0x1.b36902a5612b3p+8"),
    ]

    @staticmethod
    def bits(rows):
        return np.array([[float.fromhex(v) for v in row] for row in rows])

    @pytest.mark.parametrize("fn, table", [(step_truth, "STEP"),
                                           (mg_rhs, "RHS")])
    def test_recorded_bits(self, params, fn, table):
        want = self.bits(getattr(self, table))
        for x, u, row in zip(self.STATES, self.INPUTS, want):
            assert np.array_equal(fn(x, u, params), row)
        assert np.array_equal(fn(self.STATES, self.INPUTS, params), want)


class TestResiduals:
    def test_truth_residual_definition(self, model):
        rng = np.random.default_rng(2)
        x = rng.normal(size=4)
        u = rng.normal(size=1)
        x_next = rng.normal(size=4)
        h = truth_residual(x, u, x_next, model)
        assert np.allclose(h, x_next - model.A @ x - model.B @ u)

    def test_residual_zero_at_equilibrium(self, params, model):
        nxt = step_truth(X_EQ, U_EQ, params)
        h = truth_residual(np.zeros(4), np.zeros(1), nxt - X_EQ, model)
        assert np.linalg.norm(h, np.inf) < 1e-7

    def test_estimate_W_covers_fresh_residuals(self, params, model):
        scale = (0.7, 0.8, 0.5, 0.25, 0.5)
        W = estimate_W(model, params, samples=2048, region_scale=scale)
        fresh = residual_sweep(model, params, 256, seed=123,
                               region_scale=scale)
        for h in fresh:
            assert W.contains(h, tol=1e-9)

    def test_estimate_W_contains_origin(self, params, model):
        W = estimate_W(model, params, samples=1024,
                       region_scale=(0.7, 0.8, 0.5, 0.25, 0.5))
        assert W.contains(np.zeros(4))

    def test_sample_floor_enforced(self, params, model):
        with pytest.raises(ValueError):
            estimate_W(model, params, samples=10)

    def test_region_scale_validated(self, params, model):
        with pytest.raises(ValueError):
            residual_sweep(model, params, 1000, region_scale=0.0)


class TestHaltonSweep:
    """The W sweep's points are scipy's unscrambled Halton points, bit for
    bit, without the package loading scipy.stats."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 4096, 10007])
    def test_matches_scipy_bits(self, n):
        want = qmc.Halton(d=5, scramble=False).random(n)
        assert np.array_equal(_halton(n, (2, 3, 5, 7, 11)), want)

    def test_bundled_W_bits(self):
        # the ends of the linear scenario's W as recorded when the sweep
        # still called scipy's Halton sampler
        scenario = load_scenario(os.path.join(SCENARIO_DIR, "linear.ini"),
                                 environ={})
        lo, hi = bounding_box(build_setup(scenario).model.W)
        want_lo = ["-0x1.cc4f2d973df3bp-8", "-0x1.19efea3fa985ap-8",
                   "-0x1.05a237f703334p-18", "-0x1.6d3022520999ap-15"]
        want_hi = ["0x1.150a34bb9bf5cp-14", "0x1.39a4218829b3ep-8",
                   "0x1.0307d37243334p-18", "0x1.6dd718bb43334p-15"]
        assert [float(v).hex() for v in lo] == want_lo
        assert [float(v).hex() for v in hi] == want_hi

    def test_package_does_not_import_scipy_stats(self):
        # a fresh interpreter: this test process has loaded scipy.stats
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
            if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import lbmpc, lbmpc.cli, sys; "
             "print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_package_does_not_import_scipy_optimize(self):
        # a fresh interpreter, checked after the imports and again after a
        # setup and the bounding box of its terminal set, which is no box
        # and takes the LP, so that a lazy import on an LP path would show
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
            if p)
        script = (
            "import os, sys\n"
            "import lbmpc, lbmpc.cli\n"
            "from lbmpc.config import load_scenario\n"
            "from lbmpc.polytope import bounding_box\n"
            "from lbmpc.runtime import build_setup\n"
            "print('scipy.optimize' in sys.modules)\n"
            "path = os.path.join(lbmpc.cli.SCENARIO_DIR, 'linear.ini')\n"
            "s = build_setup(load_scenario(path, environ={}))\n"
            "assert not s.omega.is_box\n"
            "bounding_box(s.omega)\n"
            "print('scipy.optimize' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]
