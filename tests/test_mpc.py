"""Controller-layer tests on a double-integrator toy plant: Riccati gain
against scipy's DARE, Lyapunov terminal cost by direct residual, prediction
matrices against a brute-force rollout, and the tube QP against an SLSQP
reference.  The scalar Lyapunov case has the closed form P = 4/3.
"""

import time
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import minimize

from lbmpc import qp as qpmod
from lbmpc.mpc import (ControllerConfig, DnnOracle, EmptyTightenedSet,
                       LbmpcProblem, MpcInfeasible, ZeroOracle, build_margins,
                       margin_ratio, shift_solution, solve_linear_mpc,
                       solve_lbmpc, solve_lyapunov_P, synthesize_gain, synthesize_tube_gain,
                       _learned_rollout, _stagewise_rollout)
from lbmpc.oracle import NetworkArch, new_oracle, predict_and_jacobian
from lbmpc.plant import PlantModel
from lbmpc.polytope import (Polytope, TighteningData, _solve_lp,
                            max_invariant_set)


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
    return ControllerConfig(N=N, Q=Q, R=R, K=K, P=P, x_ref=np.zeros(2),
                            u_ref=np.zeros(1))


def dnn_oracle():
    arch = NetworkArch(3, (6, 4), 2)
    state = new_oracle(arch, W_bar=[0.2, 0.2], gamma=0.3, seed=4)
    # give K nonzero entries so the oracle actually bends trajectories
    rng = np.random.default_rng(8)
    K = 0.05 * rng.normal(size=state.K.shape)
    state = state.__class__(arch=arch, hidden=state.hidden, K=K,
                            W_bar=state.W_bar, gamma=state.gamma)
    return DnnOracle(state)


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
        x_ref, u_ref = p.refs()

        def obj(c, x):
            zbar, v = p.nominal_traj(x, c)
            dz, dv = zbar - x_ref, v - u_ref
            return dz @ p.Qbar @ dz + dv @ p.Rbar @ dv

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
            sol = solve_lbmpc(p, x, warm={"c": c_shift, "dual": sol.qp_dual,
                                          "rho": sol.qp_rho})
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


class TestFallback:
    """Fault injection: a QP that fails after spending time."""

    @pytest.mark.parametrize("failure", ["iteration_limit", "infeasible"])
    @pytest.mark.parametrize("kind", ["zero", "dnn"])
    def test_failed_qp_falls_back_to_warm_c(self, model, setup, monkeypatch,
                                            kind, failure):
        p = problem(model, setup, dnn_oracle() if kind == "dnn" else None)
        x = np.array([0.4, -0.3])
        first = solve_lbmpc(p, x)
        x = model.A @ x + model.B @ first.u
        # offset so the candidate differs from any c the solver could return
        warm = {"c": shift_solution(first, model.m) + 0.01,
                "dual": first.qp_dual, "rho": first.qp_rho}
        assert p.feasible(x, warm["c"])

        def failing_qp(prob, warm_start=None):
            time.sleep(0.01)
            return qpmod.QpSolution(x=np.zeros(prob.n),
                                    lam=np.zeros(prob.h_in.size),
                                    status=failure, iterations=4000,
                                    residuals=(1.0, 1.0, 1.0, 1.0))

        monkeypatch.setattr(qpmod, "qp_solve", failing_qp)
        sol = solve_lbmpc(p, x, warm=warm)
        assert sol.status == "fallback"
        assert np.array_equal(sol.c, warm["c"])
        assert sol.wall_time >= 0.01
        # without a warm candidate there is nothing to fall back to
        with pytest.raises(MpcInfeasible):
            solve_lbmpc(p, x)
