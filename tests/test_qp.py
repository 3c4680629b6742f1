"""QP solver tests.  The reference oracle enumerates every active subset of
the inequality rows, solves the corresponding equality-constrained KKT
system, and keeps the best primal-dual feasible candidate.  Exponential in
the row count, so the random problems stay small, but it is exact.
"""

import itertools

import numpy as np
import pytest

from lbmpc.qp import (QpProblem, QpSolution, kkt_residuals, qp_solve,
                      solution_residuals)


def active_set_oracle(p, tol=1e-9):
    """Exhaustive active-set solve; returns (x, objective) or None."""
    n = p.n
    G = p.G if p.G is not None else np.zeros((0, n))
    h = p.h_in if p.h_in is not None else np.zeros(0)
    m = G.shape[0]
    best = None
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            idx = list(subset)
            A = G[idx]
            rhs = h[idx]
            k = len(idx)
            KKT = np.zeros((n + k, n + k))
            KKT[:n, :n] = p.H
            KKT[:n, n:] = A.T
            KKT[n:, :n] = A
            try:
                sol = np.linalg.solve(KKT, np.concatenate([-p.g, rhs]))
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mult = sol[n:]
            # primal feasibility on the inactive rows
            if m and np.max(G @ x - h, initial=-np.inf) > tol:
                continue
            # dual feasibility on the active inequality multipliers
            if idx and np.min(mult[:len(idx)], initial=0.0) < -tol:
                continue
            obj = p.objective(x)
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    return best


def random_qp(rng, n, m_in):
    L = rng.normal(size=(n, n))
    H = L @ L.T + 0.1 * np.eye(n)
    g = rng.normal(size=n)
    G = rng.normal(size=(m_in, n))
    # offsets chosen so a known point is strictly feasible
    x_feas = rng.normal(size=n) * 0.3
    h = G @ x_feas + rng.uniform(0.05, 1.0, m_in)
    return QpProblem(H=H, g=g, G=G, h_in=h)


class TestValidation:
    def test_asymmetric_H_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]), g=np.zeros(2))

    def test_indefinite_H_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.diag([1.0, -1.0]), g=np.zeros(2))

    def test_validate_false_skips_eig_check(self):
        # with validation off the constructor must still symmetrize
        p = QpProblem(H=np.array([[1.0, 0.3], [0.3, 1.0]]), g=np.zeros(2),
                      validate=False)
        assert np.allclose(p.H, p.H.T)

    def test_matrix_without_offsets_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(2), g=np.zeros(2), G=np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(2), g=np.zeros(2), G=np.eye(3), h_in=np.ones(3))


class TestUnconstrained:
    def test_closed_form(self):
        H = np.diag([2.0, 4.0])
        g = np.array([-2.0, -8.0])
        sol = qp_solve(QpProblem(H=H, g=g))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 2.0], atol=1e-8)


class TestAgainstOracle:
    def test_random_inequality_qps(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            p = random_qp(rng, rng.integers(2, 5), rng.integers(1, 7))
            sol = qp_solve(p)
            ref = active_set_oracle(p)
            assert ref is not None
            assert sol.status == "optimal", "trial %d" % trial
            assert p.objective(sol.x) == pytest.approx(ref[1], abs=1e-6)
            assert np.allclose(sol.x, ref[0], atol=1e-5)

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_qp(rng, 3, 4)
            sol = qp_solve(p)
            res = solution_residuals(p, sol)
            assert max(res) < 1e-6

    def test_active_constraint_case(self):
        # min (x-2)^2 s.t. x <= 1: optimum pinned at the boundary
        p = QpProblem(H=np.array([[2.0]]), g=np.array([-4.0]),
                      G=np.array([[1.0]]), h_in=np.array([1.0]))
        sol = qp_solve(p)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.lam[0] == pytest.approx(2.0, abs=1e-6)


class TestInfeasibility:
    def test_contradictory_inequalities(self):
        p = QpProblem(H=np.eye(1), g=np.zeros(1),
                      G=np.array([[1.0], [-1.0]]),
                      h_in=np.array([-1.0, -1.0]))
        sol = qp_solve(p)
        assert sol.status == "infeasible"


class TestWarmStart:
    def test_exact_warm_start_terminates_immediately(self):
        rng = np.random.default_rng(3)
        p = random_qp(rng, 3, 4)
        cold = qp_solve(p)
        warm = qp_solve(p, warm_start=(cold.x, cold.lam, cold.rho_final))
        assert warm.status == "optimal"
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.x, cold.x, atol=1e-6)

    def test_nearby_warm_start_reduces_iterations(self):
        rng = np.random.default_rng(5)
        p = random_qp(rng, 4, 6)
        cold = qp_solve(p)
        g2 = p.g + 1e-3 * rng.normal(size=4)
        p2 = QpProblem(H=p.H, g=g2, G=p.G, h_in=p.h_in, validate=False)
        cold2 = qp_solve(p2)
        warm2 = qp_solve(p2, warm_start=(cold.x, cold.lam, cold.rho_final))
        assert warm2.status == "optimal"
        assert warm2.iterations <= cold2.iterations
        assert p2.objective(warm2.x) == pytest.approx(p2.objective(cold2.x),
                                                      abs=1e-8)


class TestCacheSafety:
    def test_distinct_matrices_not_conflated(self):
        # two problems with different G objects must both solve correctly
        H = np.eye(2)
        g = np.array([-1.0, -1.0])
        p1 = QpProblem(H=H, g=g, G=np.array([[1.0, 0.0]]),
                       h_in=np.array([0.2]))
        p2 = QpProblem(H=H, g=g, G=np.array([[0.0, 1.0]]),
                       h_in=np.array([0.3]))
        s1 = qp_solve(p1)
        s2 = qp_solve(p2)
        s1b = qp_solve(p1)
        assert s1.x[0] == pytest.approx(0.2, abs=1e-7)
        assert s2.x[1] == pytest.approx(0.3, abs=1e-7)
        assert np.allclose(s1b.x, s1.x, atol=1e-9)

    def test_shared_matrix_new_offsets(self):
        # same G identity, different h_in: cached scaling must rescale h
        H = np.eye(1)
        G = np.array([[2.0]])
        pa = QpProblem(H=H, g=np.array([-10.0]), G=G, h_in=np.array([2.0]))
        pb = QpProblem(H=H, g=np.array([-10.0]), G=G, h_in=np.array([4.0]))
        assert qp_solve(pa).x[0] == pytest.approx(1.0, abs=1e-7)
        assert qp_solve(pb).x[0] == pytest.approx(2.0, abs=1e-7)


class TestDeterminism:
    def test_repeat_solves_bitwise_equal(self):
        rng = np.random.default_rng(21)
        p = random_qp(rng, 4, 5)
        a = qp_solve(p)
        b = qp_solve(p)
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations
