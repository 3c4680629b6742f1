"""Controller-layer tests on a double-integrator toy plant: Riccati gain
against scipy's DARE, Lyapunov terminal cost by direct residual, prediction
matrices against a brute-force rollout, and the tube QP against an SLSQP
reference.  The scalar Lyapunov case has the closed form P = 4/3.
"""

import copy
import os
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import minimize

from lbmpc import mpc, qp as qpmod
from lbmpc.cli import SCENARIO_DIR
from lbmpc.config import OracleSection, ScheduleSection, load_scenario
from lbmpc.mpc import (ControllerConfig, EmptyTightenedSet, LbmpcProblem,
                       MpcError, MpcInfeasible, build_margins, margin_ratio,
                       shift_solution, solve_linear_mpc, solve_lbmpc,
                       solve_lyapunov_P, synthesize_gain,
                       synthesize_tube_gain, _learned_rollout)
from lbmpc.oracle import (DnnOracle, L2nwEstimator, NetworkArch, OracleState,
                          ReplayBuffer, ZeroOracle, new_oracle,
                          predict_and_jacobian, _stagewise_rollout)
from lbmpc.plant import MooreGreitzerParams, PlantModel, linearize_discretize
from lbmpc.polytope import (NotSchurStable, Polytope, TighteningData,
                            _solve_lp, max_invariant_set, tube_margins)
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
            zbar, v = p.nominal_traj(x, c)
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
            zbar, v = p.nominal_traj(x, c)
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

        def obj(c, x):
            zbar, v = p.nominal_traj(x, c)
            return zbar @ p.Qbar @ zbar + v @ p.Rbar @ v

        for _ in range(4):
            x = rng.uniform(-0.6, 0.6, 2)
            sol = solve_lbmpc(p, x)
            rhs = p.rhs0 - p.Gx @ x
            cons = {"type": "ineq", "fun": lambda c: rhs - p.Gc @ c}
            ref = minimize(obj, np.zeros(p.n_dec), args=(x,), method="SLSQP",
                           constraints=[cons],
                           options={"maxiter": 400, "ftol": 1e-12})
            assert ref.success
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6)

    def test_zero_oracle_routes_to_linear(self, model, setup):
        p = problem(model, setup)
        x = np.array([0.4, -0.3])
        a = solve_lbmpc(p, x)
        b = solve_linear_mpc(p, x)
        assert np.allclose(a.c, b.c, atol=1e-9)
        assert np.allclose(a.z, a.zbar)   # zero oracle: learned == nominal

    def test_infeasible_initial_state(self, model, setup):
        p = problem(model, setup)
        with pytest.raises(MpcInfeasible):
            solve_linear_mpc(p, np.array([4.99, 4.99]))

    def test_shifted_solution_stays_feasible(self, model, setup):
        p = problem(model, setup)
        cfg = setup[0]
        x = np.array([0.8, -0.5])
        sol = solve_lbmpc(p, x)
        for _ in range(10):
            x = model.A @ x + model.B @ sol.u     # no disturbance
            c_shift = shift_solution(sol, model.m)
            assert p.feasible(x, c_shift)
            sol = solve_lbmpc(p, x, warm={"c": c_shift})
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
        assert (_solve_lp(np.zeros(2), model.X.F, rhs).status == 2) == empty
        tight = TighteningData(state=state, inputs=margins.inputs,
                               terminal=margins.terminal)
        if not empty:
            LbmpcProblem(model, cfg, omega, tight, ZeroOracle())
            return
        with pytest.raises(EmptyTightenedSet) as err:
            LbmpcProblem(model, cfg, omega, tight, ZeroOracle())
        assert (err.value.stage, err.value.kind) == (3, "state")


class TestLearnedRollout:
    def dnn_problem(self, model, setup):
        oracle = dnn_oracle()
        return problem(model, setup, oracle), oracle.state

    def test_batched_rollout_matches_generic(self, model, setup):
        p, state = self.dnn_problem(model, setup)

        class Generic:
            # same network rolled out stage by stage, as the kernel oracle is
            is_zero = False

            def rollout(self, A, B, x, v):
                return _stagewise_rollout(
                    A, B, x, v, partial(predict_and_jacobian, state))

        q = problem(model, setup, Generic())
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, 2)
            c = rng.uniform(-0.2, 0.2, p.n_dec)
            za, va, zla, Ja = _learned_rollout(p, x, c)
            zb, vb, zlb, Jb = _learned_rollout(q, x, c)
            assert np.allclose(zla, zlb, atol=1e-13)
            assert np.allclose(Ja, Jb, atol=1e-13)

    def test_rollout_jacobian_matches_fd(self, model, setup):
        p, _ = self.dnn_problem(model, setup)
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.3, 0.3, 2)
        c = rng.uniform(-0.1, 0.1, p.n_dec)
        _, _, z0, Jz = _learned_rollout(p, x, c)
        eps = 1e-6
        for j in range(p.n_dec):
            dc = np.zeros(p.n_dec)
            dc[j] = eps
            _, _, zp, _ = _learned_rollout(p, x, c + dc)
            _, _, zm, _ = _learned_rollout(p, x, c - dc)
            fd = (zp - zm) / (2 * eps)
            assert np.max(np.abs(Jz[:, j] - fd)) < 1e-4

    def test_sqp_converges_and_stays_feasible(self, model, setup):
        p, _ = self.dnn_problem(model, setup)
        x = np.array([0.6, -0.4])
        sol = solve_lbmpc(p, x)
        assert sol.status == "optimal"
        assert p.feasible(x, sol.c)
        # learned objective should not exceed the zero-oracle warm start cost
        lin = solve_linear_mpc(problem(model, setup), x)
        zbar, v = p.nominal_traj(x, lin.c)
        from lbmpc.mpc import _objective
        _, _, z_lin, _ = _learned_rollout(p, x, lin.c)
        assert sol.objective <= _objective(p, z_lin, v) + 1e-9


def reference_dnn_rollout(state, A, B, x, v):
    """The network rollout with its inputs concatenated stage by stage and
    B v_i formed inside the loop, the layout the row buffer replaced."""
    d, m = B.shape
    N = v.size // m
    K0, K1 = state.K[0], state.K[1:]
    z = np.zeros((N + 1) * d)
    z[:d] = x
    acts = [np.empty((N, Wl.shape[1])) for Wl, _ in state.hidden]
    for i in range(N):
        zi = z[i * d:(i + 1) * d]
        vi = v[i * m:(i + 1) * m]
        a = np.concatenate([zi, vi])
        for li, (Wl, bl) in enumerate(state.hidden):
            a = np.tanh(a @ Wl + bl)
            acts[li][i] = a
        z[(i + 1) * d:(i + 2) * d] = A @ zi + B @ vi + (K0 + a @ K1)
    J = None
    for (Wl, _), al in zip(state.hidden, acts):
        layer = (1.0 - al ** 2)[:, :, None] * Wl.T[None]
        J = layer if J is None else layer @ J
    return z, np.matmul(K1.T, J)


def reference_learned_rollout(p, x, c, rollout):
    """dz/dc with each stage's matrices formed inside the recursion."""
    A, B = p.model.A, p.model.B
    d, m = B.shape
    zbar, v = p.nominal_traj(x, c)
    z, Jh = rollout(A, B, x, v)
    Jz = np.zeros((z.size, p.n_dec))
    for i in range(p.cfg.N):
        dv_dc = p.Tv[i * m:(i + 1) * m]
        Jz[(i + 1) * d:(i + 2) * d] = (
            (A + Jh[i, :, :d]) @ Jz[i * d:(i + 1) * d]
            + (B + Jh[i, :, d:]) @ dv_dc)
    return zbar, v, z, Jz


def with_oracle(p, kind, rng):
    """Copy of problem p whose oracle is a nonzero network, a filled kernel
    estimator or zero."""
    d, m = p.model.B.shape
    q = copy.copy(p)
    if kind == "dnn":
        arch = NetworkArch(d + m, (8, 6), d)
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
    """The stage matrices built before the recursion and the network's row
    buffer reorder no sum (with m = 1, as on both plants here), so z and
    dz/dc match the stage-by-stage loops bit for bit."""

    @pytest.fixture(params=["toy", "bundled"])
    def plant_problem(self, request, model, setup, bundled_problem):
        if request.param == "toy":
            return problem(model, setup)
        return bundled_problem

    @pytest.mark.parametrize("kind", ["dnn", "l2nw", "zero"])
    def test_learned_rollout(self, plant_problem, kind):
        rng = np.random.default_rng(21)
        p = with_oracle(plant_problem, kind, rng)
        rollout = p.oracle.rollout
        if kind == "dnn":
            rollout = partial(reference_dnn_rollout, p.oracle.state)
        d = p.model.d
        for _ in range(5):
            x = rng.uniform(-0.1, 0.1, d)
            c = rng.uniform(-0.05, 0.05, p.n_dec)
            got = _learned_rollout(p, x, c)
            want = reference_learned_rollout(p, x, c, rollout)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    def test_dnn_rollout(self, plant_problem):
        rng = np.random.default_rng(22)
        p = with_oracle(plant_problem, "dnn", rng)
        A, B = p.model.A, p.model.B
        for _ in range(5):
            x = rng.uniform(-0.3, 0.3, p.model.d)
            v = rng.uniform(-0.3, 0.3, p.n_dec)
            z, Jh = p.oracle.rollout(A, B, x, v)
            z_ref, Jh_ref = reference_dnn_rollout(p.oracle.state, A, B, x, v)
            assert z.shape == z_ref.shape and Jh.shape == Jh_ref.shape
            assert np.array_equal(z, z_ref)
            assert np.array_equal(Jh, Jh_ref)


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
        warm = {"c": shift_solution(first, model.m) + 0.01}
        assert p.feasible(x, warm["c"])

        def failing_qp(prob):
            time.sleep(0.01)
            return qpmod.QpSolution(x=np.zeros(prob.n),
                                    lam=np.zeros(prob.h_in.size),
                                    status=failure, iterations=40)

        monkeypatch.setattr(qpmod, "qp_solve", failing_qp)
        sol = solve_lbmpc(p, x, warm=warm)
        assert sol.status == "fallback"
        assert np.array_equal(sol.c, warm["c"])
        assert sol.wall_time >= 0.01
        # without a warm candidate there is nothing to fall back to
        with pytest.raises(MpcInfeasible):
            solve_lbmpc(p, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [0, 40])
    def test_non_finite_oracle_output(self, monkeypatch, bad, step):
        # the first network rollout of one step of the bundled dnn run
        # returns a non-finite learned state
        scenario = load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"))
        scenario = replace(scenario, run=replace(scenario.run, steps=60))
        seen = {"step": -1, "poisoned": False}
        solve, rollout = mpc.solve_lbmpc, DnnOracle.rollout

        def counted_solve(p, x, warm=None):
            seen["step"] += 1
            return solve(p, x, warm=warm)

        def poisoned_rollout(self, A, B, x, v):
            z, Jh = rollout(self, A, B, x, v)
            if seen["step"] == step and not seen["poisoned"]:
                seen["poisoned"] = True
                z[-1] = bad
            return z, Jh

        monkeypatch.setattr(mpc, "solve_lbmpc", counted_solve)
        monkeypatch.setattr(DnnOracle, "rollout", poisoned_rollout)
        if step == 0:
            # nothing to fall back to before the first solution
            with pytest.raises(InfeasibleAtStart):
                run_closed_loop(scenario)
            return
        tr = run_closed_loop(scenario)
        assert seen["poisoned"]
        assert tr.status[step] == "fallback"
        assert list(tr.status).count("fallback") == 1
        assert np.min(tr.state_margin) >= 0.0
        assert np.min(tr.input_margin) >= 0.0
        assert np.all(tr.shift_feasible)
