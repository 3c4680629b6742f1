"""Controller-layer tests on a double-integrator toy plant: Riccati gain
against scipy's DARE, Lyapunov terminal cost by direct residual, prediction
matrices against a brute-force rollout, and the tube QP against an SLSQP
reference.  The scalar Lyapunov case has the closed form P = 4/3.
"""

import collections
import copy
import dataclasses
import functools
import math
import os
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import event, given, settings, strategies as st
from scipy.linalg import lapack
from scipy.optimize import linprog, minimize

from lbmpc import mpc, oracle as om, qp as qpmod
from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import OracleSection, ScheduleSection, load_scenario
from lbmpc.mpc import (ControllerConfig, EmptyTightenedSet, LbmpcProblem,
                       MpcError, MpcInfeasible, MpcSolution, build_margins,
                       margin_ratio, shift_solution, solve_lbmpc,
                       solve_lyapunov_P, synthesize_gain,
                       synthesize_tube_gain, _learned_rollout)
from lbmpc.oracle import (DnnOracle, L2nwEstimator, NetworkArch, OracleState,
                          ReplayBuffer, ZeroOracle, l2nw_predict_and_jacobian,
                          new_oracle, predict_and_jacobian)
from lbmpc.plant import MooreGreitzerParams, PlantModel, linearize_discretize
from lbmpc.polytope import (NotSchurStable, Polytope, TighteningData,
                            max_invariant_set, tube_margins)
from lbmpc.runtime import InfeasibleAtStart, build_setup, run_closed_loop


def toy_model(w=0.02):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])
    X = Polytope.box([-5.0, -5.0], [5.0, 5.0])
    U = Polytope.box([-2.0], [2.0])
    W = Polytope.box([-w, -w], [w, w])
    return PlantModel(A=A, B=B, X=X, U=U, W=W,
                      x_eq=np.zeros(2), u_eq=0.0)


@pytest.fixture(scope="module")
def model():
    return toy_model()


def controller(model, N):
    """LQR gain plus Lyapunov terminal cost for regulation to the origin."""
    Q, R = np.eye(2), np.array([[1.0]])
    K = synthesize_gain(model, Q, R)
    P = solve_lyapunov_P(model, K, Q, R)
    return ControllerConfig(N=N, Q=Q, R=R, K=K, P=P)


def network_adapter(state, model):
    """Network adapter for solver tests; its small ring is never filled."""
    d, m = model.B.shape
    return DnnOracle(state, model, ReplayBuffer(8, d + m, d),
                     ScheduleSection(), OracleSection())


def dnn_oracle():
    arch = NetworkArch(3, (6, 4), 2)
    state = new_oracle(arch, W_bar=[0.2, 0.2], gamma=0.3, seed=4)
    # give K nonzero entries so the oracle actually bends trajectories
    rng = np.random.default_rng(8)
    K = 0.05 * rng.normal(size=state.K.shape)
    state = state.__class__(arch=arch, hidden=state.hidden, K=K,
                            W_bar=state.W_bar, gamma=state.gamma)
    return network_adapter(state, toy_model())


@pytest.fixture(scope="module")
def setup(model):
    cfg = controller(model, N=6)
    A_cl = model.A + model.B @ cfg.K
    omega = max_invariant_set(A_cl, model.X, model.U, cfg.K, model.W).omega
    margins = build_margins(model, cfg, omega)
    return cfg, omega, margins


def problem(model, setup, oracle=None):
    cfg, omega, margins = setup
    return LbmpcProblem(model, cfg, omega, margins, oracle or ZeroOracle())


def nominal_traj(p, x, c):
    """Nominal trajectory zbar and inputs v of the perturbations c at x."""
    return p.Sz @ x + p.Tz @ c, p.Sv @ x + p.Tv @ c


def input_weight(p):
    """Rbar: the input weight R stacked over the horizon."""
    return np.kron(np.eye(p.cfg.N), p.cfg.R)


def nominal_cost(p, x, c):
    zbar, v = nominal_traj(p, x, c)
    return zbar @ p.Qbar @ zbar + v @ input_weight(p) @ v


def learned_cost(p, x, c):
    v, z, _ = _learned_rollout(p, x, c)
    return z @ p.Qbar @ z + v @ input_weight(p) @ v


class TestGainSynthesis:
    def test_matches_scipy_dare(self, model):
        Q = np.eye(2)
        R = np.array([[1.0]])
        K = synthesize_gain(model, Q, R)
        P_ref = sla.solve_discrete_are(model.A, model.B, Q, R)
        K_ref = -np.linalg.solve(R + model.B.T @ P_ref @ model.B,
                                 model.B.T @ P_ref @ model.A)
        assert np.allclose(K, K_ref, atol=1e-8)

    def test_closed_loop_schur(self, model):
        K = synthesize_gain(model, np.diag([1.0, 0.1]), np.array([[2.0]]))
        eig = np.linalg.eigvals(model.A + model.B @ K)
        assert np.max(np.abs(eig)) < 1.0

    def test_tube_gain_fits_disturbance(self, model):
        K = synthesize_tube_gain(model, np.eye(2), np.array([[1.0]]))
        assert margin_ratio(model, K) < 1.0

    @pytest.mark.parametrize("a, stable", [(1.0 - 2e-8, True),
                                           (1.0 - 5e-9, False),
                                           (1.0, False)])
    def test_one_schur_verdict(self, a, stable):
        # the gain, the Lyapunov cost and the margin ratio share polytope's
        # test: spectral radius below 1 - SCHUR_TOL
        m = PlantModel(A=np.array([[a]]), B=np.array([[1.0]]),
                       X=Polytope.box([-1.0], [1.0]),
                       U=Polytope.box([-1.0], [1.0]),
                       W=Polytope.box([-1e-9], [1e-9]),
                       x_eq=np.zeros(1), u_eq=0.0)
        K, one = np.zeros((1, 1)), np.eye(1)
        if stable:
            assert np.isfinite(margin_ratio(m, K))
            assert np.isfinite(solve_lyapunov_P(m, K, one, one)).all()
        else:
            assert margin_ratio(m, K) == np.inf
            with pytest.raises(NotSchurStable):
                solve_lyapunov_P(m, K, one, one)

    @pytest.mark.parametrize("horizon", [1, 10, 80])
    @pytest.mark.parametrize("plant", ["toy", "bundled"])
    def test_margin_ratio_is_max_of_separate_margins(self, model, plant,
                                                     horizon,
                                                     bundled_problem):
        # one support call on the stacked rows, bit for bit the ratio of
        # the X and U K margins computed apart
        if plant == "bundled":
            model, K = bundled_problem.model, bundled_problem.cfg.K
        else:
            K = controller(model, N=6).K
        A_cl = model.A + model.B @ K
        mx = tube_margins(A_cl, model.W, model.X.F, horizon)[horizon]
        mu = tube_margins(A_cl, model.W, model.U.F @ K, horizon)[horizon]
        expected = max(np.max(mx / model.X.h), np.max(mu / model.U.h))
        assert margin_ratio(model, K, horizon) == expected

    def test_weight_scale_invariant(self):
        # the doubling stops on the iterates of A, which do not change when
        # Q and R are scaled together, so neither does the gain
        plant = linearize_discretize(MooreGreitzerParams())
        Q, R = np.diag([1.0, 1.0, 0.1, 0.1]), np.array([[1.0]])
        K = synthesize_gain(plant, Q, R)
        for c in (1e-6, 1e6):
            np.testing.assert_allclose(synthesize_gain(plant, c * Q, c * R),
                                       K, rtol=1e-9, atol=0.0)
        # no state weight on the unstable plant: a typed error, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MpcError):
                synthesize_gain(plant, np.zeros((4, 4)), R)
            # a rotation never decays: no convergence within the cap
            with pytest.raises(mpc.RiccatiDiverged):
                mpc._doubling(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.zeros((2, 2)), np.eye(2))

    def test_tube_gain_skips_non_schur_rung(self, model, monkeypatch):
        def not_schur(*args):
            raise NotSchurStable("forced")

        monkeypatch.setattr(mpc, "synthesize_gain", not_schur)
        with pytest.raises(MpcError, match="no gain found"):
            synthesize_tube_gain(model, np.eye(2), np.array([[1.0]]))


class TestLyapunov:
    def test_residual_tiny(self, model):
        Q = np.eye(2)
        R = np.array([[1.0]])
        K = synthesize_gain(model, Q, R)
        P = solve_lyapunov_P(model, K, Q, R)
        A_cl = model.A + model.B @ K
        resid = A_cl.T @ P @ A_cl - P + Q + K.T @ R @ K
        assert np.max(np.abs(resid)) < 1e-10

    def test_scalar_closed_form_four_thirds(self):
        # a_cl = 1/2, S = Q + K'RK = 1  =>  P = 1 / (1 - 1/4) = 4/3
        m = PlantModel(A=np.array([[0.5]]), B=np.array([[1.0]]),
                       X=Polytope.box([-1.0], [1.0]),
                       U=Polytope.box([-1.0], [1.0]),
                       x_eq=np.zeros(1), u_eq=0.0)
        P = solve_lyapunov_P(m, np.zeros((1, 1)), np.array([[1.0]]),
                             np.array([[1.0]]))
        assert abs(P[0, 0] - 4.0 / 3.0) < 1e-12


class TestPredictionMatrices:
    def test_against_brute_force_rollout(self, model, setup):
        p = problem(model, setup)
        cfg = setup[0]
        rng = np.random.default_rng(0)
        K, A, B = cfg.K, model.A, model.B
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            c = rng.uniform(-0.5, 0.5, p.n_dec)
            zbar, v = nominal_traj(p, x, c)
            z_i = x.copy()
            for i in range(cfg.N):
                v_i = K @ z_i + c[i:i + 1]
                assert np.allclose(v[i:i + 1], v_i, atol=1e-12)
                assert np.allclose(zbar[i * 2:(i + 1) * 2], z_i, atol=1e-12)
                z_i = A @ z_i + B @ v_i
            assert np.allclose(zbar[cfg.N * 2:], z_i, atol=1e-12)

    def test_feasible_flag_matches_rollout(self, model, setup):
        p = problem(model, setup)
        cfg, omega, margins = setup
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            c = rng.uniform(-1, 1, p.n_dec)
            zbar, v = nominal_traj(p, x, c)
            ok = True
            for i in range(cfg.N):
                zi = zbar[i * 2:(i + 1) * 2]
                vi = v[i:i + 1]
                ok &= bool(np.all(model.X.F @ zi
                                  <= model.X.h - margins.state[i] + 1e-9))
                ok &= bool(np.all(model.U.F @ vi
                                  <= model.U.h - margins.inputs[i] + 1e-9))
            zN = zbar[cfg.N * 2:]
            ok &= bool(np.all(omega.F @ zN
                              <= omega.h - margins.terminal + 1e-9))
            assert p.feasible(x, c) == ok
            hits += ok
        assert hits > 0


class TestLinearMpc:
    def test_matches_slsqp(self, model, setup):
        p = problem(model, setup)
        rng = np.random.default_rng(2)
        for _ in range(4):
            x = rng.uniform(-0.6, 0.6, 2)
            sol = solve_lbmpc(p, x)
            rhs = p.rhs0 - p.Gx @ x
            cons = {"type": "ineq", "fun": lambda c: rhs - p.Gc @ c}
            ref = minimize(lambda c: nominal_cost(p, x, c), np.zeros(p.n_dec),
                           method="SLSQP", constraints=[cons],
                           options={"maxiter": 400, "ftol": 1e-12})
            assert ref.success
            assert nominal_cost(p, x, sol.c) == pytest.approx(ref.fun, abs=1e-6)

    def test_zero_oracle_routes_to_linear(self, model, setup,
                                          bundled_problem):
        # the zero oracle's one Gauss-Newton step, cold or warm, ends at the
        # minimizer of the nominal cost: one QP built here from the
        # prediction maps (no active row at the first x, two at the others)
        toy = problem(model, setup)
        bundled = with_oracle(bundled_problem, "zero", None)
        for p, x in ((toy, np.array([0.4, -0.3])),
                     (toy, np.array([2.0, 2.5])),
                     (bundled, np.array([-0.12, 0.06, 0.0, 0.0]))):
            Rbar = input_weight(p)
            H = 2.0 * (p.Tz.T @ p.Qbar @ p.Tz + p.Tv.T @ Rbar @ p.Tv)
            g = 2.0 * (p.Tz.T @ p.Qbar @ p.Sz @ x + p.Tv.T @ Rbar @ p.Sv @ x)
            ref = qpmod.qp_solve(H, g, p.Gc, p.rhs0 - p.Gx @ x)
            assert ref.status == "optimal"
            for warm in (None, np.full(p.n_dec, 0.05)):
                sol = solve_lbmpc(p, x, warm_c=warm)
                assert (sol.status, sol.sqp_iters) == ("optimal", 1)
                np.testing.assert_allclose(sol.c, ref.x, rtol=0.0, atol=1e-9)
            # zero oracle: the learned trajectory is the nominal one, and
            # dz/dc is Tz up to rounding (the solve forms it through A, B
            # and Tv, Tz through A + BK)
            _, z, Jz = _learned_rollout(p, x, sol.c)
            assert np.array_equal(z, nominal_traj(p, x, sol.c)[0])
            np.testing.assert_allclose(Jz, p.Tz, rtol=1e-12,
                                       atol=1e-15 * np.abs(p.Tz).max())

    def test_infeasible_initial_state(self, model, setup):
        p = problem(model, setup)
        with pytest.raises(MpcInfeasible):
            solve_lbmpc(p, np.array([4.99, 4.99]))

    def test_shifted_solution_stays_feasible(self, model, setup):
        p = problem(model, setup)
        cfg = setup[0]
        x = np.array([0.8, -0.5])
        sol = solve_lbmpc(p, x)
        for _ in range(10):
            x = model.A @ x + model.B @ sol.u     # no disturbance
            c_shift = shift_solution(sol, model.m)
            assert p.feasible(x, c_shift)
            sol = solve_lbmpc(p, x, warm_c=c_shift)
        assert np.linalg.norm(x) < 0.8


class TestTightening:
    def test_huge_disturbance_empties_a_stage(self):
        m = toy_model(w=1.2)
        with pytest.raises((EmptyTightenedSet, Exception)):
            cfg = controller(m, N=8)
            A_cl = m.A + m.B @ cfg.K
            omega = max_invariant_set(A_cl, m.X, m.U, cfg.K, m.W).omega
            margins = build_margins(m, cfg, omega)
            LbmpcProblem(m, cfg, omega, margins, ZeroOracle())

    @pytest.mark.parametrize("cut, empty", [(5.0, False), (5.25, True)])
    def test_box_stage_check_agrees_with_lp(self, model, setup, cut, empty):
        # from stage 3 on, x1's margins leave [cut - 5, 5 - cut]: one point
        # at cut = 5, nothing beyond
        cfg, omega, margins = setup
        state = margins.state.copy()
        state[3:, [0, 2]] = cut
        rhs = model.X.h - state[3]
        lp = linprog(np.zeros(2), A_ub=model.X.F, b_ub=rhs,
                     bounds=(None, None), method="highs")
        assert (lp.status == 2) == empty
        tight = TighteningData(state=state, inputs=margins.inputs,
                               terminal=margins.terminal)
        if not empty:
            LbmpcProblem(model, cfg, omega, tight, ZeroOracle())
            return
        with pytest.raises(EmptyTightenedSet) as err:
            LbmpcProblem(model, cfg, omega, tight, ZeroOracle())
        assert (err.value.stage, err.value.kind) == (3, "state")

    @pytest.mark.parametrize("part", ["state", "inputs", "terminal", "omega"])
    def test_non_finite_constraint_data_rejected(self, model, setup, part):
        # a NaN margin or a NaN in a row of omega's F is refused when the
        # problem is assembled, before an emptiness test could misread it
        cfg, omega, margins = setup
        parts = {"state": margins.state.copy(),
                 "inputs": margins.inputs.copy(),
                 "terminal": margins.terminal.copy()}
        if part == "omega":
            F = omega.F.copy()
            F[-1, 0] = np.nan
            omega = Polytope(F, omega.h)
        else:
            parts[part].flat[0] = np.nan
        tight = TighteningData(**parts)
        with pytest.raises(MpcError) as err:
            LbmpcProblem(model, cfg, omega, tight, ZeroOracle())
        assert not isinstance(err.value, EmptyTightenedSet)


class TestLearnedRollout:
    def dnn_problem(self, model, setup):
        oracle = dnn_oracle()
        return problem(model, setup, oracle), oracle.state

    def test_batched_rollout_matches_generic(self, model, setup):
        p, state = self.dnn_problem(model, setup)

        class Generic:
            # same network evaluated stage by stage, one point per call
            def predict_and_jacobian(self, z, v):
                rows = [predict_and_jacobian(state, zi, vi)
                        for zi, vi in zip(z, v)]
                return tuple(np.array(part) for part in zip(*rows))

        q = problem(model, setup, Generic())
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, 2)
            c = rng.uniform(-0.2, 0.2, p.n_dec)
            _, zla, Ja = _learned_rollout(p, x, c)
            _, zlb, Jb = _learned_rollout(q, x, c)
            assert np.allclose(zla, zlb, atol=1e-13)
            assert np.allclose(Ja, Jb, atol=1e-13)

    def test_rollout_jacobian_matches_fd(self, model, setup):
        # dz/dc is the Gauss-Newton derivative of z = zbar + e: h moves with
        # the nominal stages, the stage Jacobians stay at their values at c
        p, state = self.dnn_problem(model, setup)
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.3, 0.3, 2)
        c = rng.uniform(-0.1, 0.1, p.n_dec)
        _, z0, Jz = _learned_rollout(p, x, c)
        zbar, v = nominal_traj(p, x, c)
        N = p.cfg.N
        _, Jx, Ju = predict_and_jacobian(state, zbar[:2 * N].reshape(N, 2),
                                         v.reshape(N, 1))

        class Frozen:
            def predict_and_jacobian(self, z, v):
                return predict_and_jacobian(state, z, v)[0], Jx, Ju

        q = problem(model, setup, Frozen())
        eps = 1e-6
        for j in range(p.n_dec):
            dc = np.zeros(p.n_dec)
            dc[j] = eps
            _, zp, _ = _learned_rollout(q, x, c + dc)
            _, zm, _ = _learned_rollout(q, x, c - dc)
            fd = (zp - zm) / (2 * eps)
            assert np.max(np.abs(Jz[:, j] - fd)) < 1e-4

    def test_sqp_converges_and_stays_feasible(self, model, setup):
        p, _ = self.dnn_problem(model, setup)
        x = np.array([0.6, -0.4])
        sol = solve_lbmpc(p, x)
        assert sol.status == "optimal"
        assert p.feasible(x, sol.c)
        # learned objective should not exceed the zero-oracle warm start cost
        lin = solve_lbmpc(problem(model, setup), x)
        assert learned_cost(p, x, sol.c) <= learned_cost(p, x, lin.c) + 1e-9


def reference_dnn_stages(state, Z, V):
    """The network's h and stage Jacobians, one stage after the other, the
    Jacobian a product of layer Jacobians from the input side."""
    K0, K1 = state.K[0], state.K[1:]
    d = Z.shape[1]
    h, J = [], []
    for zi, vi in zip(Z, V):
        a = np.concatenate([zi, vi])
        Ji = np.eye(a.size)
        for Wl, bl in state.hidden:
            a = np.tanh(a @ Wl + bl)
            Ji = ((1.0 - a ** 2)[:, None] * Wl.T) @ Ji
        h.append(K0 + a @ K1)
        J.append(K1.T @ Ji)
    J = np.array(J)
    return np.array(h), J[:, :, :d], J[:, :, d:]


def one_point_stage(oracle):
    """(h, dh/dz, dh/dv) of ``oracle`` at one stage (z_i, v_i)."""
    if isinstance(oracle, DnnOracle):
        return partial(predict_and_jacobian, oracle.state)
    if isinstance(oracle, L2nwEstimator):
        return partial(l2nw_predict_and_jacobian, oracle)
    return lambda z, v: (np.zeros(z.size), np.zeros((z.size, z.size)),
                         np.zeros((z.size, v.size)))


def reference_learned_rollout(p, x, c):
    """The first-order expansion z = zbar + e around the nominal trajectory
    and dz/dc, one stage after the other, each stage's matrices formed
    inside the recursion."""
    A, B = p.model.A, p.model.B
    d, m = B.shape
    stage = one_point_stage(p.oracle)
    zbar, v = nominal_traj(p, x, c)
    e = np.zeros_like(zbar)
    Jz = np.zeros((zbar.size, p.n_dec))
    for i in range(p.cfg.N):
        h, Jx, Ju = stage(zbar[i * d:(i + 1) * d], v[i * m:(i + 1) * m])
        e[(i + 1) * d:(i + 2) * d] = (A + Jx) @ e[i * d:(i + 1) * d] + h
        Jz[(i + 1) * d:(i + 2) * d] = (
            (A + Jx) @ Jz[i * d:(i + 1) * d]
            + (B + Ju) @ p.Tv[i * m:(i + 1) * m])
    return zbar, v, zbar + e, Jz


def with_oracle(p, kind, rng, hidden=(8, 6)):
    """Copy of problem p whose oracle is a nonzero network (of the given
    hidden widths), a filled kernel estimator or zero."""
    d, m = p.model.B.shape
    q = copy.copy(p)
    if kind == "dnn":
        arch = NetworkArch(d + m, hidden, d)
        st = new_oracle(arch, W_bar=np.full(d, 0.2), gamma=0.3, seed=5)
        q.oracle = network_adapter(OracleState(
            arch=arch, hidden=st.hidden, K=0.05 * rng.normal(size=st.K.shape),
            W_bar=st.W_bar, gamma=st.gamma), p.model)
    elif kind == "l2nw":
        est = L2nwEstimator(capacity=200, n_in=d + m, n_out=d, bandwidth=0.1)
        for _ in range(150):
            est.push(rng.uniform(-0.2, 0.2, d + m), 0.01 * rng.normal(size=d))
        q.oracle = est
    else:
        q.oracle = ZeroOracle()
    return q


@pytest.fixture(scope="module")
def bundled_problem():
    """The bundled plant (d = 4, m = 1) and its controller, from dnn.ini."""
    return build_setup(load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"),
                                     environ={})).problem


class TestRolloutBitEquality:
    """The learned rollout's batched oracle call and its one triangular
    solve for [e | dz/dc] reorder sums: z and dz/dc match the stage-by-stage
    expansion at the reference traces' tolerance, and the network's batched
    h and Jacobians match a stage-by-stage network.  What kept its
    arithmetic matches bit for bit: v, the zero-oracle z, and a solve's
    applied input."""

    @staticmethod
    def assert_close(a, b):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.fixture(params=["toy", "bundled"])
    def plant_problem(self, request, model, setup, bundled_problem):
        if request.param == "toy":
            return problem(model, setup)
        return bundled_problem

    @pytest.mark.parametrize("kind", ["dnn", "l2nw", "zero"])
    def test_learned_rollout(self, plant_problem, kind):
        rng = np.random.default_rng(21)
        p = with_oracle(plant_problem, kind, rng)
        d = p.model.d
        for _ in range(5):
            x = rng.uniform(-0.1, 0.1, d)
            c = rng.uniform(-0.05, 0.05, p.n_dec)
            v, z, Jz = _learned_rollout(p, x, c)
            zbar, v_ref, z_ref, Jz_ref = reference_learned_rollout(p, x, c)
            assert np.array_equal(v, v_ref)
            if kind == "zero":
                # e is exactly zero, so z is the nominal trajectory
                assert np.array_equal(z, zbar)
            else:
                self.assert_close(z, z_ref)
            self.assert_close(Jz, Jz_ref)

    @pytest.mark.parametrize("kind", ["dnn", "l2nw", "zero"])
    def test_solution_trajectories(self, plant_problem, kind):
        # the applied input of a solve is v_0 of the nominal map at its c,
        # formed from the map's first m rows alone
        p = with_oracle(plant_problem, kind, np.random.default_rng(23))
        x = 0.01 * np.ones(p.model.d)
        sol = solve_lbmpc(p, x)
        m = p.model.m
        assert np.array_equal(sol.u, p.Sv[:m] @ x + p.Tv[:m] @ sol.c)
        self.assert_close(sol.u, (p.Sv @ x + p.Tv @ sol.c)[:m])

    def assert_rollout_matches(self, p, rng):
        # the network adapter's one call at N stages, as the rollout makes it
        d, m = p.model.B.shape
        Z = rng.uniform(-0.3, 0.3, (p.cfg.N, d))
        V = rng.uniform(-0.3, 0.3, (p.cfg.N, m))
        got = p.oracle.predict_and_jacobian(Z, V)
        for a, b in zip(got, reference_dnn_stages(p.oracle.state, Z, V)):
            self.assert_close(a, b)

    def test_dnn_rollout(self, plant_problem):
        rng = np.random.default_rng(22)
        p = with_oracle(plant_problem, "dnn", rng)
        for _ in range(5):
            self.assert_rollout_matches(p, rng)

    @pytest.mark.parametrize("hidden", [(7,), (5, 9, 4)], ids=["1", "3"])
    def test_dnn_rollout_depths(self, plant_problem, hidden):
        rng = np.random.default_rng(25)
        p = with_oracle(plant_problem, "dnn", rng, hidden)
        for _ in range(5):
            self.assert_rollout_matches(p, rng)

    def test_no_stale_state(self, plant_problem):
        # the adapter's Jacobians follow the hidden stack through a swap
        # inside observe and through an assigned state, and K through adapt
        rng = np.random.default_rng(24)
        p = with_oracle(plant_problem, "dnn", rng)
        d, m = p.model.B.shape
        A, B = p.model.A, p.model.B
        p.oracle = DnnOracle(
            p.oracle.state, p.model, ReplayBuffer(16, d + m, d),
            ScheduleSection(copy_period=3, train_fill=0.1, min_new_samples=2,
                            seed=7),
            OracleSection(train_batch=4, train_epochs=3, train_lr=0.01))
        before = p.oracle.state
        self.assert_rollout_matches(p, rng)
        for t in range(4):
            x, u = rng.uniform(-0.1, 0.1, d), rng.uniform(-0.1, 0.1, m)
            h = 0.01 * rng.normal(size=d)
            p.oracle.observe(t, x, u, A @ x + B @ u + h, h)
            self.assert_rollout_matches(p, rng)
        assert p.oracle.swap_steps == [3]
        assert not np.array_equal(p.oracle.state.hidden[0][0],
                                  before.hidden[0][0])
        assert not np.array_equal(p.oracle.state.K, before.K)
        fresh = new_oracle(before.arch, W_bar=before.W_bar,
                           gamma=before.gamma, seed=9)
        p.oracle.state = replace(fresh, K=before.K)
        self.assert_rollout_matches(p, rng)


@pytest.mark.parametrize("kind", ["zero", "dnn", "l2nw"])
def test_one_rollout_and_one_qp_per_solve(bundled_problem, monkeypatch, kind):
    # the real-time iteration: each solve, cold or warm, linearizes once and
    # solves one QP, feedback_qp's, and qp_solve runs at most once: in the
    # preparation at x where rows bind there (from the first start), after
    # which the feedback returns the prepared step, and not at all from the
    # second start, where no row binds; the oracle is
    # called once, at all N nominal stages, through the adapter and (dnn,
    # l2nw) the module-level function that loopbench wraps; dnn is the
    # scenario's own network, l2nw a filled ring
    p = bundled_problem
    if kind != "dnn":
        p = with_oracle(p, kind, np.random.default_rng(26))
    N, (d, m) = p.cfg.N, p.model.B.shape
    calls = {"rollout": 0, "qp": 0, "qp_solve": 0, "jac": [], "module": 0}
    rollout, feedback_qp = mpc._learned_rollout, mpc.feedback_qp
    qp_solve = qpmod.qp_solve
    adapter_jac = p.oracle.predict_and_jacobian

    def counted_rollout(*args):
        calls["rollout"] += 1
        return rollout(*args)

    def counted_feedback_qp(*args):
        calls["qp"] += 1
        return feedback_qp(*args)

    def counted_qp_solve(*args):
        calls["qp_solve"] += 1
        return qp_solve(*args)

    def counted_jac(z, v):
        calls["jac"].append((z.shape, v.shape))
        return adapter_jac(z, v)

    monkeypatch.setattr(mpc, "_learned_rollout", counted_rollout)
    monkeypatch.setattr(mpc, "feedback_qp", counted_feedback_qp)
    monkeypatch.setattr(qpmod, "qp_solve", counted_qp_solve)
    monkeypatch.setattr(p.oracle, "predict_and_jacobian", counted_jac)
    module_name = {"dnn": "predict_and_jacobian",
                   "l2nw": "l2nw_predict_and_jacobian"}.get(kind)
    if module_name:
        module_jac = getattr(om, module_name)

        def counted_module(*args):
            calls["module"] += 1
            return module_jac(*args)

        monkeypatch.setattr(om, module_name, counted_module)
    for x0 in ((-0.12, 0.06, 0.0, 0.0), (-0.02, 0.01, 0.0, 0.0)):
        x = np.array(x0)
        warm = None
        for start in ("cold", "warm"):
            sol = solve_lbmpc(p, x, warm_c=warm)
            where = (x0, start)
            assert (sol.status, sol.sqp_iters) == ("optimal", 1), where
            assert calls.pop("qp_solve") <= 1, where
            assert calls == {"rollout": 1, "qp": 1,
                             "jac": [((N, d), (N, m))],
                             "module": int(module_name is not None)}, where
            assert p.feasible(x, sol.c)
            calls.update(rollout=0, qp=0, qp_solve=0, jac=[], module=0)
            warm = sol.c


class TestTwoPhase:
    """The real-time iteration's two phases: a solve without a preparation
    prepares at x itself, and a preparation made at a predicted state moves
    only the point the cost is linearized at."""

    X0 = np.array([-0.12, 0.06, 0.0, 0.0])

    def next_step(self, p):
        """The warm start and the state after a cold solve at X0."""
        first = solve_lbmpc(p, self.X0)
        return (shift_solution(first, p.model.m),
                p.model.A @ self.X0 + p.model.B @ first.u)

    @pytest.mark.parametrize("kind", ["dnn", "l2nw", "zero"])
    def test_one_phase_is_prepare_then_feedback(self, bundled_problem, kind):
        p = with_oracle(bundled_problem, kind, np.random.default_rng(27))
        warm, x1 = self.next_step(p)
        for x, c in ((self.X0, None), (x1, warm)):
            a = solve_lbmpc(p, x, c)
            b = solve_lbmpc(p, x, c, prep=mpc.prepare(p, x, c))
            assert a.status == b.status == "optimal"
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a.u, b.u)

    def test_zero_oracle_feedback_exact_at_any_prediction(self,
                                                          bundled_problem):
        # with h = 0 the gradient is affine in x, so the shift from x_pred
        # to x is exact; a network's is not, which shows the check bites
        rng = np.random.default_rng(28)
        for kind in ("zero", "dnn"):
            p = with_oracle(bundled_problem, kind, rng)
            warm, x1 = self.next_step(p)
            one = solve_lbmpc(p, x1, warm)
            for _ in range(5):
                x_pred = x1 + 0.01 * rng.normal(size=x1.size)
                two = solve_lbmpc(p, x1, warm,
                                  prep=mpc.prepare(p, x_pred, warm))
                assert two.status == "optimal"
                gap = max(np.max(np.abs(two.c - one.c)),
                          np.max(np.abs(two.u - one.u)))
                if kind == "zero":
                    assert gap <= 1e-12
                else:
                    assert gap > 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_prepared_error_is_held_for_the_feedback(self, bundled_problem,
                                                     bad):
        # a preparation whose oracle output is not finite raises nothing;
        # the feedback that uses it falls back to the warm start, or, with
        # none to fall back to, raises
        p = with_oracle(bundled_problem, "dnn", np.random.default_rng(29))
        warm, x1 = self.next_step(p)
        jacobian = p.oracle.predict_and_jacobian

        def poisoned(z, v):
            h, dz, dv = jacobian(z, v)
            h[-1, 0] = bad
            return h, dz, dv

        p.oracle.predict_and_jacobian = poisoned
        prep = mpc.prepare(p, x1, warm)
        assert isinstance(prep.error, MpcError)
        sol = solve_lbmpc(p, x1, warm, prep=prep)
        assert sol.status == "fallback"
        assert np.array_equal(sol.c, warm)
        with pytest.raises(MpcInfeasible):
            solve_lbmpc(p, self.X0, prep=mpc.prepare(p, self.X0))


def poisoned_hessian(p, bad):
    """Copy of problem p whose QP Hessians hold a NaN or an inf (in the
    lower triangle, which the factor reads) or are indefinite."""
    q = copy.copy(p)
    q.H_v = p.H_v.copy()
    if bad == "indefinite":
        q.H_v[0, 0] -= 1e3
    else:
        q.H_v[-1, 0] = bad
    return q


class TestPreparedFactor:
    """The preparation checks and factors the QP's Hessian once; the
    feedback hands the factor to qp_solve."""

    X0 = TestTwoPhase.X0

    def test_one_factor_per_preparation_none_in_the_feedback(self,
                                                              monkeypatch):
        scenario = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"),
                                 environ={})
        scenario = replace(scenario, run=replace(scenario.run, steps=60))
        phase, calls = ["loop"], []
        dpotrf = lapack.dpotrf

        def counted_dpotrf(*args, **kwargs):
            calls.append(phase[0])
            return dpotrf(*args, **kwargs)

        def in_phase(name, fn):
            def wrapped(*args, **kwargs):
                outer, phase[0] = phase[0], name
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = outer
            return wrapped

        monkeypatch.setattr(lapack, "dpotrf", counted_dpotrf)
        monkeypatch.setattr(mpc, "prepare", in_phase("prepare", mpc.prepare))
        monkeypatch.setattr(mpc, "solve_lbmpc",
                            in_phase("feedback", mpc.solve_lbmpc))
        tr = run_closed_loop(scenario)
        assert list(tr.status) == ["optimal"] * 60
        # step 0's preparation is made at x0, each later one after the
        # step before it
        assert calls == ["prepare"] * 60

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "indefinite"])
    def test_bad_hessian_is_held_for_the_feedback(self, bundled_problem,
                                                  bad):
        p = bundled_problem
        first = solve_lbmpc(p, self.X0)
        warm = shift_solution(first, p.model.m)
        x1 = p.model.A @ self.X0 + p.model.B @ first.u
        q = poisoned_hessian(p, bad)
        prep = mpc.prepare(q, x1, warm)
        assert type(prep.error) is MpcError
        assert str(prep.error) == "QP ended 'invalid'"
        assert prep.L is None
        sol = solve_lbmpc(q, x1, warm, prep=prep)
        assert sol.status == "fallback"
        assert np.array_equal(sol.c, warm)
        with pytest.raises(MpcInfeasible):
            solve_lbmpc(q, self.X0, prep=mpc.prepare(q, self.X0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "indefinite"])
    @pytest.mark.parametrize("step", [0, 40])
    def test_bad_hessian_in_the_loop(self, monkeypatch, bad, step):
        # step s's preparation is the (s+1)-th call
        scenario = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"),
                                 environ={})
        scenario = replace(scenario, run=replace(scenario.run, steps=60))
        prepare, calls = mpc.prepare, []

        def poisoned_prepare(p, *args):
            calls.append(1)
            if len(calls) == step + 1:
                p = poisoned_hessian(p, bad)
            return prepare(p, *args)

        monkeypatch.setattr(mpc, "prepare", poisoned_prepare)
        if step == 0:
            with pytest.raises(InfeasibleAtStart):
                run_closed_loop(scenario)
            return
        tr = run_closed_loop(scenario)
        assert tr.status[step] == "fallback"
        assert list(tr.status).count("fallback") == 1
        assert np.min(tr.state_margin) >= 0.0
        assert np.all(tr.shift_feasible) and np.all(tr.h_in_w)

    def test_one_preparation_serves_two_feedbacks(self, bundled_problem):
        rng = np.random.default_rng(30)
        p = with_oracle(bundled_problem, "dnn", rng)
        first = solve_lbmpc(p, self.X0)
        warm = shift_solution(first, p.model.m)
        x1 = p.model.A @ self.X0 + p.model.B @ first.u
        x_pred = x1 + 1e-4
        prep = mpc.prepare(p, x_pred, warm)
        H, L = prep.H.copy(), prep.L.copy()
        assert np.array_equal(L, lapack.dpotrf(H, lower=1, clean=1)[0])
        for x in (x1, x1 + 1e-3 * rng.normal(size=x1.size)):
            a = solve_lbmpc(p, x, warm, prep=prep)
            b = solve_lbmpc(p, x, warm, prep=mpc.prepare(p, x_pred, warm))
            assert a.status == b.status == "optimal"
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a.u, b.u)
        assert np.array_equal(prep.L, L) and np.array_equal(prep.H, H)


def parent_feedback(p, x, warm_c, prep):
    """solve_lbmpc's feedback with every QP handed to qp_solve, as it was
    before the prepared affine step: ('optimal', c) or ('fallback', c), or
    the exception's (type, message)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    try:
        if prep.error is not None:
            raise prep.error
        sol = qpmod.qp_solve(prep.H, prep.g0 + prep.M @ (x - prep.x_pred),
                             p.Gc, p.rhs0 - p.Gc @ prep.c - p.Gx @ x,
                             prep.L)
        if sol.status != "optimal":
            raise MpcError("QP ended '%s'" % sol.status)
        return "optimal", prep.c + sol.x
    except MpcError as exc:
        if warm_c is not None and p.feasible(x, warm_c):
            return "fallback", np.array(warm_c, dtype=float)
        return MpcInfeasible, "%s; no feasible fallback" % exc


def feedback_outcome(p, x, warm_c, prep):
    """solve_lbmpc's (status, c) or its exception's (type, message), and
    whether it entered qp_solve."""
    entered, solve = [], qpmod.qp_solve

    def counted(*args):
        entered.append(1)
        return solve(*args)

    qpmod.qp_solve = counted
    try:
        sol = solve_lbmpc(p, x, warm_c, prep=prep)
        return (sol.status, sol.c), bool(entered)
    except MpcError as exc:
        return (type(exc), str(exc)), bool(entered)
    finally:
        qpmod.qp_solve = solve


def assert_same_outcome(a, b):
    """Equal statuses and perturbations, or exception types and messages."""
    assert a[0] == b[0]
    if isinstance(a[1], str):
        assert a[1] == b[1]
    else:
        assert np.array_equal(a[1], b[1])


@functools.lru_cache(maxsize=None)
def oracle_problem(kind):
    """The bundled problem with its own network, a filled kernel ring or
    the zero oracle (see with_oracle)."""
    p = build_setup(load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"),
                                  environ={})).problem
    return p if kind == "dnn" else with_oracle(p, kind,
                                               np.random.default_rng(33))


def prepared_maps(prep):
    """A preparation's maps [offset; slope] as one array."""
    return np.vstack((prep.offset, prep.slope))


def unconstrained_affine(p, prep):
    """The unconstrained maps [c + a | s0]' and [B | S1]' of a preparation,
    made as prepare makes them where no row binds at x_pred."""
    n = prep.c.size
    R = lapack.dpotrs(prep.L, np.concatenate((prep.g0[:, None], prep.M),
                                             axis=1), lower=1)[0]
    Y = p.affine_seed.copy()
    np.subtract(prep.c, R[:, 0], out=Y[0, :n])
    np.negative(R[:, 1:].T, out=Y[1:, :n])
    Y[0, n:-1] = prep.x_pred
    return Y @ p.step_slack.T


class TestAffineFeedback:
    """The feedback returns the prepared step, without entering qp_solve,
    only where it is qp_solve's solution: with no change where no row binds
    at x_pred, and on the preparation's active set where rows do.  It
    enters qp_solve wherever a prepared slack is above 1e-9 or a prepared
    multiplier negative, and keeps the outcome of a feedback that hands
    every QP to qp_solve.

    Each example starts at x0 = (z, y, 0, 0) in loopbench's start box, or
    at its corner (-0.15, 0.07), runs k nominal steps (x <- A x + B u,
    each prepared at x), prepares at the next state x_pred with the
    shifted warm start (k = -1: at x0 with none, step 0's preparation) and
    feeds back x = x_pred + delta, with delta from 0 to 0.1, sizes that
    make rows bind.  The two hypothesis tests draw 150 and 50 examples per
    oracle, 600 in all, in about 3 s."""

    @staticmethod
    def prepared_step(p, z, y, k):
        """(x_pred, warm start, preparation) after k nominal steps."""
        A, B, m = p.model.A, p.model.B, p.model.m
        x, warm = np.array([z, y, 0.0, 0.0]), None
        for _ in range(k + 1):
            sol = solve_lbmpc(p, x, warm)
            assert sol.status == "optimal"
            x, warm = A @ x + B @ sol.u, shift_solution(sol, m)
        return x, warm, mpc.prepare(p, x, warm)

    step_draws = dict(
        z=st.one_of(st.just(-0.15), st.floats(-0.15, -0.09)),
        y=st.one_of(st.just(0.07), st.floats(-0.05, 0.07)),
        k=st.integers(-1, 30),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        size=st.one_of(st.just(0.0), st.floats(1e-9, 0.1)))

    @pytest.mark.parametrize("kind", ["zero", "dnn", "l2nw"])
    @settings(max_examples=150, deadline=None)
    @given(**step_draws)
    def test_prepared_step_only_where_it_is_qp_solves_solution(
            self, kind, z, y, k, direction, size):
        p = oracle_problem(kind)
        x_pred, warm, prep = self.prepared_step(p, z, y, k)
        x = x_pred + size * np.array(direction)
        dx = x - prep.x_pred
        ref = qpmod.qp_solve(prep.H, prep.g0 + prep.M @ dx, p.Gc,
                             p.rhs0 - p.Gc @ prep.c - p.Gx @ x, prep.L)
        outcome, entered = feedback_outcome(p, x, warm, prep)
        bound = prep.active is not None
        event(("entered qp_solve" if entered else "prepared step")
              + (", rows bound at x_pred" if bound else ""))
        if not bound:
            # no row binds at x_pred: the unconstrained maps, bit for bit
            assert prep.lam is None
            assert np.array_equal(prepared_maps(prep),
                                  unconstrained_affine(p, prep))
        # the feedback's test on the prepared maps
        n = prep.c.size
        y = prep.offset + dx @ prep.slope
        lam = prep.lam[0] + dx @ prep.lam[1:] if bound else np.zeros(0)
        passes = bool(y[n:].max() <= 1e-9 and np.all(lam >= 0.0)
                      and np.isfinite(y).all() and np.isfinite(lam).all())
        assert entered is not passes
        active = (ref.lam > 0.0).nonzero()[0]
        if entered:
            # the QP that reaches the loop keeps its bits, and so does the
            # outcome, a fallback or an exception included
            assert_same_outcome(outcome, parent_feedback(p, x, warm, prep))
        else:
            assert ref.status == "optimal"
            if bound:
                assert np.array_equal(active, prep.active)
            else:
                assert ref.iterations == 0 and not active.size
            assert outcome[0] == "optimal"
            step = outcome[1] - prep.c
            assert np.all(np.abs(step - ref.x)
                          <= 1e-12 * np.maximum(1.0, np.abs(ref.x)))
        if ref.status != "optimal" or not (
                np.array_equal(active, prep.active) if bound
                else ref.iterations == 0):
            assert entered

    @pytest.mark.parametrize("kind", ["zero", "dnn"])
    @pytest.mark.parametrize("fault", ["iteration_limit", "infeasible",
                                       "singular"])
    def test_failed_binding_keeps_the_unconstrained_maps(
            self, monkeypatch, kind, fault):
        # rows bind at the corner x0, where step 0 is prepared; a QP there
        # that ends 'iteration_limit' or 'infeasible', or an active set
        # with a zero normal (a state row of stage 0, which no c moves), so
        # a singular S, keeps the unconstrained maps; the feedback then
        # enters qp_solve with the parent's outcome
        p = oracle_problem(kind)
        x0 = np.array([-0.15, 0.07, 0.0, 0.0])
        assert mpc.prepare(p, x0).active is not None
        zero_row = int((~p.Gc.any(axis=1)).nonzero()[0][0])
        solve, calls = qpmod.qp_solve, []

        def failing(*args):
            calls.append(1)
            sol = solve(*args)
            if fault != "singular":
                return replace(sol, status=fault)
            lam = sol.lam.copy()
            lam[zero_row] = 1.0
            return replace(sol, lam=lam)

        monkeypatch.setattr(qpmod, "qp_solve", failing)
        prep = mpc.prepare(p, x0)
        monkeypatch.undo()
        assert len(calls) == 1
        assert prep.error is None
        assert prep.active is None and prep.lam is None
        assert np.array_equal(prepared_maps(prep),
                              unconstrained_affine(p, prep))
        rng = np.random.default_rng(34)
        for x in (x0, x0 + 1e-3 * rng.normal(size=x0.size)):
            outcome, entered = feedback_outcome(p, x, None, prep)
            assert entered
            assert outcome[0] == "optimal"
            assert_same_outcome(outcome, parent_feedback(p, x, None, prep))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["zero", "dnn", "l2nw"])
    @settings(max_examples=50, deadline=None)
    @given(where=st.sampled_from(["x", "g0", "M"]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           index=st.integers(0, 3), warm_start=st.booleans(),
           **step_draws)
    def test_non_finite_state_or_map_keeps_the_outcome(
            self, kind, where, bad, index, warm_start, z, y, k, direction,
            size):
        # a non-finite entry of x, or of the gradient or its slope (so of
        # the affine step and the slack), gives the status, or the
        # exception's type and message, that qp_solve's path gives
        p = oracle_problem(kind)
        x_pred, warm, _ = self.prepared_step(p, z, y, k)
        q = copy.copy(p)
        x = x_pred + size * np.array(direction)
        if where == "x":
            x[index] = bad
        elif where == "g0":
            q.TvR = p.TvR.copy()
            q.TvR[index] = bad
        else:
            q.TvRSv = p.TvRSv.copy()
            q.TvRSv[index, index % p.model.d] = bad
        warm = warm if warm_start else None
        prep = mpc.prepare(q, x_pred, warm)
        assert prep.error is None
        assert not (np.isfinite(prepared_maps(prep)).all() and where != "x")
        outcome, entered = feedback_outcome(q, x, warm, prep)
        assert_same_outcome(outcome, parent_feedback(q, x, warm, prep))
        assert entered


def reference_feedback_qp(p, prep, x):
    """feedback_qp as it was before the prepared views and the shared zero
    multipliers, kept as the reference for the feedback's bits."""
    dx = x - prep.x_pred
    y = prep.offset + dx @ prep.slope
    n = prep.c.size
    lam = np.zeros(y.size - n)
    if prep.active is not None:
        lam[prep.active] = prep.lam[0] + dx @ prep.lam[1:]
    # a NaN or an inf entry leaves the sum not finite, and a NaN the min
    if (y[n:].max() <= 1e-9 and math.isfinite(y.sum())
            and (prep.active is None
                 or lam.min() >= 0.0 and math.isfinite(lam.sum()))):
        return qpmod.QpSolution(y[:n], lam, "optimal", 0)
    sol = qpmod.qp_solve(prep.H, prep.g0 + prep.M @ dx, p.Gc,
                         p.rhs0 - p.Gc @ prep.c - p.Gx @ x, prep.L)
    return qpmod.QpSolution(prep.c + sol.x, sol.lam, sol.status,
                            sol.iterations)


def reference_make_solution(p, x, c, status, t0):
    """_make_solution as it was before the slotted records."""
    return MpcSolution(c=c, u=p.cfg.K @ x + c[:p.model.m],
                       status=status, sqp_iters=1,
                       wall_time=time.perf_counter() - t0)


def reference_solve(p, x, warm_c=None, prep=None):
    """solve_lbmpc's feedback with the reference feedback_qp and
    _make_solution."""
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float).reshape(-1)
    try:
        if prep.error is not None:
            raise prep.error
        sol = reference_feedback_qp(p, prep, x)
        if sol.status != "optimal":
            raise MpcError("QP ended '%s'" % sol.status)
        return reference_make_solution(p, x, sol.x, "optimal", t0)
    except MpcError as exc:
        if warm_c is not None and p.feasible(x, warm_c):
            return reference_make_solution(
                p, x, np.array(warm_c, dtype=float), "fallback", t0)
        raise MpcInfeasible("%s; no feasible fallback" % exc) from exc


def bits(a):
    """An array's dtype, shape and bytes: equal only bit for bit."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def qp_bits(sol):
    return (bits(sol.x), bits(sol.lam), sol.status, type(sol.iterations),
            sol.iterations)


def solve_bits(solve, *args):
    """A feedback's c, u, status and Gauss-Newton steps, bit for bit, or
    its exception's type and message."""
    try:
        sol = solve(*args)
    except MpcError as exc:
        return type(exc), str(exc)
    return bits(sol.c), bits(sol.u), sol.status, sol.sqp_iters


# loopbench's start box, z in [-0.15, -0.09] and y in [-0.05, 0.07]; rows
# bind at x_pred from (-0.15, 0.07)
BOX_CORNERS = [(-0.15, -0.05), (-0.15, 0.07), (-0.09, -0.05), (-0.09, 0.07)]


class TestFeedbackBits:
    """The feedback keeps the reference's bits: the multipliers, status and
    changes of feedback_qp's QP, and solve_lbmpc's c, u, status and steps
    or its exception, at every step of the bundled runs (200 steps) and of
    40-step runs from the corners of loopbench's start box.  Each step is
    checked twice, once as it runs and once with every QP that reaches
    qp_solve in the feedback ending 'iteration_limit', so that the fallback
    and the exception are checked where the feedback enters qp_solve."""

    @staticmethod
    def checked_run(name, x0, steps, monkeypatch):
        """The outcomes of one run's checked feedbacks, counted by kind."""
        scenario = load_scenario(os.path.join(SCENARIO_DIR, name + ".ini"),
                                 environ={})
        run = replace(scenario.run, steps=steps,
                      x0=scenario.run.x0 if x0 is None else (*x0, 0.0, 0.0))
        scenario = replace(scenario, run=run, schedule=replace(
            scenario.schedule, deterministic=True))
        solve, qp_solve = mpc.solve_lbmpc, qpmod.qp_solve
        entered, failing, kinds = [], [False], collections.Counter()

        def watched(*args):
            entered.append(1)
            sol = qp_solve(*args)
            if failing[0]:
                return replace(sol, status="iteration_limit")
            return sol

        def checked(p, x, warm_c=None, prep=None):
            for failing[0] in (False, True):
                if prep.error is None:
                    assert qp_bits(mpc.feedback_qp(p, prep, x)) == qp_bits(
                        reference_feedback_qp(p, prep, x))
                entered.clear()
                got = solve_bits(solve, p, x, warm_c, prep)
                assert got == solve_bits(reference_solve, p, x, warm_c, prep)
                if got[0] is MpcInfeasible or got[2] == "fallback":
                    kinds["fallback" if got[0] is not MpcInfeasible
                          else "exception"] += 1
                elif not failing[0]:
                    kinds["qp_solve" if entered
                          else "unconstrained" if prep.active is None
                          else "prepared active set"] += 1
            failing[0] = False
            return solve(p, x, warm_c, prep)

        monkeypatch.setattr(qpmod, "qp_solve", watched)
        monkeypatch.setattr(mpc, "solve_lbmpc", checked)
        tr = run_closed_loop(scenario)
        assert list(tr.status) == ["optimal"] * steps
        monkeypatch.undo()
        return kinds

    @pytest.mark.parametrize("name", ["linear", "dnn", "l2nw"])
    def test_bundled_and_box_corner_runs(self, monkeypatch, name):
        kinds = self.checked_run(name, None, 200, monkeypatch)
        assert sum(kinds.values()) == 200 + kinds["fallback"]
        for corner in BOX_CORNERS:
            kinds += self.checked_run(name, corner, 40, monkeypatch)
        # each outcome is seen: the unconstrained step, the prepared active
        # set's, qp_solve's and, with qp_solve failing, the fallback; step
        # 0's cold QP runs in the preparation, so none raises here
        assert sorted(kinds) == ["fallback", "prepared active set",
                                 "qp_solve", "unconstrained"], kinds
        assert kinds["fallback"] == kinds["qp_solve"]


class TestRecords:
    """QpSolution and MpcSolution are slotted records with their fields and
    keyword constructors; a preparation holds its maps once, as two views,
    and a problem's one zero multiplier vector is shared by the feedbacks
    of all its preparations."""

    def test_fields_and_keyword_constructors(self):
        assert [f.name for f in dataclasses.fields(qpmod.QpSolution)] == [
            "x", "lam", "status", "iterations"]
        assert [f.name for f in dataclasses.fields(MpcSolution)] == [
            "c", "u", "status", "sqp_iters", "wall_time"]
        x, lam = np.ones(3), np.zeros(2)
        qp = qpmod.QpSolution(x=x, lam=lam, status="optimal", iterations=0)
        sol = MpcSolution(c=x, u=x[:1], status="fallback", sqp_iters=1,
                          wall_time=0.5)
        assert qp.x is x and qp.lam is lam
        assert (qp.status, qp.iterations) == ("optimal", 0)
        assert sol.c is x and bits(sol.u) == bits(x[:1])
        assert (sol.status, sol.sqp_iters, sol.wall_time) == ("fallback", 1,
                                                              0.5)
        for record in (qp, sol):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1
        # dataclasses.replace keeps the other fields, the arrays themselves
        failed = replace(qp, status="infeasible")
        assert failed.status == "infeasible" and qp.status == "optimal"
        assert failed.x is x and failed.lam is lam
        later = replace(sol, wall_time=1.5)
        assert later.c is x and later.wall_time == 1.5

    def test_preparation_fields(self):
        # the maps once, as the two views the feedback multiplies, and no
        # multipliers of its own
        assert [f.name for f in dataclasses.fields(mpc.Preparation)] == [
            "x_pred", "c", "wall_time", "H", "L", "g0", "M", "offset",
            "slope", "active", "lam", "error"]

    def test_unconstrained_multipliers_are_shared_read_only_zeros(
            self, bundled_problem):
        # no row binds at the second start of the bundled problem, and
        # rows bind at the corner of loopbench's start box
        p = bundled_problem
        x = np.array([-0.02, 0.01, 0.0, 0.0])
        prep = mpc.prepare(p, x)
        assert prep.active is None
        rows = p.Gc.shape[0]
        assert p.zero_lam.shape == (rows,) and not p.zero_lam.any()
        assert not p.zero_lam.flags.writeable
        # offset and slope are the rows of one array
        assert prep.offset.base is not None
        assert prep.offset.base is prep.slope.base
        maps = prep.offset.base
        assert bits(prep.offset) == bits(maps[0])
        assert bits(prep.slope) == bits(maps[1:])
        sols = [mpc.feedback_qp(p, prep, x + dx) for dx in (0.0, 1e-4)]
        assert sols[0].iterations == sols[1].iterations == 0
        assert sols[0].lam is sols[1].lam is p.zero_lam
        with pytest.raises(ValueError):
            sols[0].lam[0] = 1.0
        assert not p.zero_lam.any()
        # every preparation of the problem returns the same vector, and
        # another problem has its own
        other = mpc.prepare(p, 0.5 * x)
        assert other.active is None
        assert mpc.feedback_qp(p, other, 0.5 * x).lam is p.zero_lam
        q = mpc.LbmpcProblem(p.model, p.cfg, p.omega, p.margins, p.oracle)
        assert q.zero_lam is not p.zero_lam
        assert not q.zero_lam.flags.writeable
        assert mpc.feedback_qp(q, mpc.prepare(q, x), x).lam is q.zero_lam
        corner = np.array([-0.15, 0.07, 0.0, 0.0])
        bound = mpc.prepare(p, corner)
        assert bound.active is not None
        a, b = (mpc.feedback_qp(p, bound, corner) for _ in range(2))
        assert a.iterations == 0 and a.lam is not b.lam
        assert a.lam is not p.zero_lam
        assert a.lam.flags.writeable and a.lam[bound.active].all()


class TestFallback:
    """Fault injection: a QP that fails after spending time."""

    @pytest.mark.parametrize("failure", ["iteration_limit", "infeasible",
                                         "invalid"])
    @pytest.mark.parametrize("kind", ["zero", "dnn"])
    def test_failed_qp_falls_back_to_warm_c(self, model, setup, monkeypatch,
                                            kind, failure):
        p = problem(model, setup, dnn_oracle() if kind == "dnn" else None)
        x = np.array([0.4, -0.3])
        first = solve_lbmpc(p, x)
        x = model.A @ x + model.B @ first.u
        # offset so the candidate differs from any c the solver could return
        warm = shift_solution(first, model.m) + 0.01
        assert p.feasible(x, warm)

        def failing_qp(p, prep, x):
            time.sleep(0.01)
            return qpmod.QpSolution(x=np.zeros(p.n_dec),
                                    lam=np.zeros(p.Gc.shape[0]),
                                    status=failure, iterations=40)

        # the feedback's QP, whether qp_solve or the prepared affine step
        # would solve it
        monkeypatch.setattr(mpc, "feedback_qp", failing_qp)
        sol = solve_lbmpc(p, x, warm_c=warm)
        assert sol.status == "fallback"
        assert np.array_equal(sol.c, warm)
        assert sol.wall_time >= 0.01
        # without a warm candidate there is nothing to fall back to
        with pytest.raises(MpcInfeasible):
            solve_lbmpc(p, x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [0, 40])
    def test_non_finite_oracle_output(self, monkeypatch, bad, step):
        # the network's one Jacobian call of the preparation that one step
        # of the bundled dnn run uses returns a non-finite entry in h, in
        # dh/dz or in dh/dv; the loop prepares once per step, step s's
        # preparation is the (s+1)-th call, and step 0's is made at x0
        scenario = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"))
        scenario = replace(scenario, run=replace(scenario.run, steps=60))
        jacobian = DnnOracle.predict_and_jacobian
        for part in range(3):
            seen = {"calls": 0, "poisoned": False}

            def poisoned_jacobian(self, z, v):
                out = jacobian(self, z, v)
                if seen["calls"] == step:
                    seen["poisoned"] = True
                    out[part][-1, 0] = bad
                seen["calls"] += 1
                return out

            monkeypatch.setattr(DnnOracle, "predict_and_jacobian",
                                poisoned_jacobian)
            if step == 0:
                # nothing to fall back to before the first solution
                with pytest.raises(InfeasibleAtStart):
                    run_closed_loop(scenario)
                assert seen["poisoned"], part
                continue
            tr = run_closed_loop(scenario)
            assert seen["poisoned"], part
            assert tr.status[step] == "fallback", part
            assert list(tr.status).count("fallback") == 1, part
            assert np.min(tr.state_margin) >= 0.0
            assert np.min(tr.input_margin) >= 0.0
            assert np.all(tr.shift_feasible)
