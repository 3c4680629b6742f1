"""QP solver tests.  The reference oracle enumerates every active subset of
the inequality rows, solves the corresponding equality-constrained KKT
system, and keeps the best primal-dual feasible candidate.  Exponential in
the row count, so the random problems stay small, but it is exact.  A
problem is a ``Qp`` record, which ``qp_solve(*p)`` solves; the record, its
objective and the KKT residuals are test references, not package code.
"""

import functools
import itertools
import os
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg as sla

from lbmpc import config, qp as qpmod, runtime
from lbmpc.cli import SCENARIO_DIR
from lbmpc.qp import QpSolution, qp_solve


class Qp(NamedTuple):
    """min 1/2 x'Hx + g'x s.t. G x <= h_in, in qp_solve's argument order."""
    H: np.ndarray
    g: np.ndarray
    G: np.ndarray
    h_in: np.ndarray

    @property
    def n(self) -> int:
        return self.g.size

    def objective(self, x) -> float:
        return float(0.5 * x @ self.H @ x + self.g @ x)


def solution_residuals(p: Qp, sol: QpSolution):
    """The KKT residuals of sol: (stationarity, primal, dual,
    complementarity) infinity norms."""
    slack = p.G @ sol.x - p.h_in
    stat = p.H @ sol.x + p.g + p.G.T @ sol.lam
    return (float(np.max(np.abs(stat), initial=0.0)),
            float(np.max(slack, initial=0.0)),
            float(np.max(-sol.lam, initial=0.0)),
            float(np.max(np.abs(sol.lam * slack), initial=0.0)))


def active_set_oracle(p, tol=1e-9):
    """Exhaustive active-set solve; returns (x, objective) or None."""
    n = p.n
    G, h = p.G, p.h_in
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
    return Qp(H, g, G, h)


class TestValidation:
    def test_shape_mismatch_rejected(self):
        H, g, G, h = np.eye(2), np.zeros(2), np.eye(2), np.ones(2)
        for args in ((np.eye(3), g, G, h), (H[:1], g, G, h),
                     (H, g, np.eye(3), np.ones(3)), (H, g, G[:, :1], h),
                     (H, g, G, np.ones(3)), (H, g, G, np.ones((2, 1))),
                     (H, g[:, None], G, h)):
            with pytest.raises(ValueError):
                qp_solve(*args)

    def test_only_lower_triangle_of_H_read(self):
        # H is taken from its lower triangle, as dpotrf(lower=1) reads it:
        # finite garbage above the diagonal changes no bit of the result
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_qp(rng, int(rng.integers(2, 8)), int(rng.integers(0, 10)))
            H = np.tril(p.H) + np.triu(rng.normal(size=p.H.shape) * 1e3, 1)
            sol, ref = qp_solve(H, *p[1:]), qp_solve(*p)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            assert np.array_equal(sol.x, ref.x)
            assert np.array_equal(sol.lam, ref.lam)


class TestUnconstrained:
    def test_closed_form(self):
        H = np.diag([2.0, 4.0])
        g = np.array([-2.0, -8.0])
        sol = qp_solve(H, g, np.zeros((0, 2)), np.zeros(0))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 2.0], atol=1e-8)


class TestAgainstOracle:
    def test_random_inequality_qps(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            p = random_qp(rng, rng.integers(2, 5), rng.integers(1, 7))
            sol = qp_solve(*p)
            ref = active_set_oracle(p)
            assert ref is not None
            assert sol.status == "optimal", "trial %d" % trial
            assert p.objective(sol.x) == pytest.approx(ref[1], abs=1e-6)
            assert np.allclose(sol.x, ref[0], atol=1e-5)

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_qp(rng, 3, 4)
            sol = qp_solve(*p)
            res = solution_residuals(p, sol)
            assert max(res) < 1e-6

    def test_active_constraint_case(self):
        # min (x-2)^2 s.t. x <= 1: optimum pinned at the boundary
        p = Qp(H=np.array([[2.0]]), g=np.array([-4.0]),
               G=np.array([[1.0]]), h_in=np.array([1.0]))
        sol = qp_solve(*p)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.lam[0] == pytest.approx(2.0, abs=1e-6)


class TestInfeasibility:
    def test_contradictory_inequalities(self):
        p = Qp(H=np.eye(1), g=np.zeros(1),
               G=np.array([[1.0], [-1.0]]),
               h_in=np.array([-1.0, -1.0]))
        sol = qp_solve(*p)
        assert sol.status == "infeasible"

    def test_violated_zero_row(self):
        # 0 x <= -1 is at no distance from x in any metric: it enters first,
        # before the two rows violated as much, and proves infeasibility
        # without a division warning
        p = Qp(H=np.eye(2), g=np.zeros(2),
               G=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
               h_in=np.array([-1.0, -1.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = qp_solve(*p)
        assert (sol.status, sol.iterations) == ("infeasible", 0)

    def test_nan_row_is_not_satisfied(self):
        # a row whose violation reads NaN never counts as satisfied, so the
        # solve cannot end 'optimal' at the point where rows 0 and 2 hold
        p = Qp(H=np.eye(2), g=np.array([-1.0, -1.0]),
               G=np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]),
               h_in=np.array([0.5, 0.5, 2.0]))
        assert qp_solve(*p).status == "infeasible"


class TestCacheSafety:
    def test_distinct_matrices_not_conflated(self):
        # two problems with different G objects must both solve correctly,
        # in either order
        H = np.eye(2)
        g = np.array([-1.0, -1.0])
        p1 = Qp(H=H, g=g, G=np.array([[1.0, 0.0]]),
                h_in=np.array([0.2]))
        p2 = Qp(H=H, g=g, G=np.array([[0.0, 1.0]]),
                h_in=np.array([0.3]))
        s1 = qp_solve(*p1)
        s2 = qp_solve(*p2)
        s1b = qp_solve(*p1)
        assert s1.x[0] == pytest.approx(0.2, abs=1e-7)
        assert s2.x[1] == pytest.approx(0.3, abs=1e-7)
        assert np.allclose(s1b.x, s1.x, atol=1e-9)

    def test_shared_matrix_new_offsets(self):
        # same G object, different h_in
        H = np.eye(1)
        G = np.array([[2.0]])
        pa = Qp(H=H, g=np.array([-10.0]), G=G, h_in=np.array([2.0]))
        pb = Qp(H=H, g=np.array([-10.0]), G=G, h_in=np.array([4.0]))
        assert qp_solve(*pa).x[0] == pytest.approx(1.0, abs=1e-7)
        assert qp_solve(*pb).x[0] == pytest.approx(2.0, abs=1e-7)


class TestDeterminism:
    def test_repeat_solves_bitwise_equal(self):
        rng = np.random.default_rng(21)
        p = random_qp(rng, 4, 5)
        a = qp_solve(*p)
        b = qp_solve(*p)
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations


def degenerate_qp(rng, n, extra):
    """Random QP whose optimum x* has rows a and b active with positive
    multipliers and three slack rows, plus the rows ``extra(a, ha, b, hb)``
    returns."""
    L = rng.normal(size=(n, n))
    H = L @ L.T + 0.1 * np.eye(n)
    x_star = rng.normal(size=n)
    a, b = rng.normal(size=(2, n))
    ha, hb = a @ x_star, b @ x_star
    g = -H @ x_star - rng.uniform(0.5, 2.0) * a - rng.uniform(0.5, 2.0) * b
    S = rng.normal(size=(3, n))
    rows = [a, b] + list(S)
    offs = [ha, hb] + list(S @ x_star + rng.uniform(0.1, 1.0, 3))
    for row, off in extra(a, ha, b, hb):
        rows.append(row)
        offs.append(off)
    return Qp(H=H, g=g, G=np.array(rows), h_in=np.array(offs)), x_star


class TestDegenerate:
    """Rows that repeat or depend on the active rows at the optimum."""

    CASES = {
        "duplicated": lambda a, ha, b, hb: [(a, ha), (b, hb)],
        # (-b, -hb + 1) bounds b x from below, parallel to b and slack
        "scaled_by_2": lambda a, ha, b, hb: [(2 * a, 2 * ha), (-b, -hb + 1.0),
                                             (2 * b, 2 * hb)],
        "sum_of_active": lambda a, ha, b, hb: [(a + 2 * b, ha + 2 * hb)],
        "sum_tighter": lambda a, ha, b, hb: [(a + 2 * b, ha + 2 * hb - 0.3)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_against_oracle(self, case):
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        for trial in range(30):
            p, x_star = degenerate_qp(rng, int(rng.integers(2, 5)),
                                      self.CASES[case])
            sol = qp_solve(*p)
            ref = active_set_oracle(p)
            if ref is None:
                # the tighter dependent row can cut the slack rows' region
                # away; the solver must then prove it
                assert case == "sum_tighter"
                assert sol.status == "infeasible", "trial %d" % trial
                continue
            assert sol.status == "optimal", "trial %d" % trial
            assert p.objective(sol.x) == pytest.approx(ref[1], abs=1e-6)
            assert np.allclose(sol.x, ref[0], atol=1e-5)
            assert max(solution_residuals(p, sol)) < 1e-6
            if case != "sum_tighter":
                assert np.allclose(sol.x, x_star, atol=1e-6)

    def test_dependent_row_proves_infeasibility(self):
        # with a and b active, -(a + b) x <= -(ha + hb) - 1 cannot hold
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, _ = degenerate_qp(rng, 3, lambda a, ha, b, hb:
                                 [(-(a + b), -(ha + hb) - 1.0)])
            assert active_set_oracle(p) is None
            assert qp_solve(*p).status == "infeasible"

    @pytest.mark.parametrize("seed", [957, 2740, 3204, 4090])
    def test_full_active_set_proves_infeasibility(self, seed):
        # ill-conditioned infeasible problems where, with n rows active,
        # rounding leaves w'w of the next row above its threshold: such a
        # row depends on the active rows all the same, and must not enter
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(4, 4))
        G = rng.normal(size=(8, 4))
        G[1] = 2.0 * G[0]
        p = Qp(H=M @ M.T + 0.1 * np.eye(4),
               g=rng.normal(size=4) * 3, G=G,
               h_in=rng.normal(size=8) - 3.0)
        assert active_set_oracle(p) is None
        assert qp_solve(*p).status == "infeasible"


class TestInvalidInput:
    @pytest.mark.parametrize("field", ["H", "g", "h_in"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data(self, field, bad):
        p = random_qp(np.random.default_rng(1), 3, 4)
        data = {"H": p.H.copy(), "g": p.g.copy(), "G": p.G, "h_in": p.h_in.copy()}
        data[field].flat[1] = bad
        sol = qp_solve(*Qp(**data))
        assert sol.status == "invalid"

    def test_singular_hessian(self):
        p = Qp(H=np.diag([1.0, 0.0]), g=np.array([0.0, -1.0]),
               G=np.eye(2), h_in=np.ones(2))
        assert qp_solve(*p).status == "invalid"

    def test_indefinite_nonsingular_hessian(self):
        p = Qp(H=np.diag([1.0, -1.0]), g=np.array([0.0, -1.0]),
               G=np.eye(2), h_in=np.ones(2))
        assert qp_solve(*p).status == "invalid"


def _corner_runs():
    runs = [(name, None, None) for name in ("linear.ini", "dnn.ini", "l2nw.ini")]
    for z in (-0.15, -0.09):
        for y in (-0.05, 0.07):
            runs += [("linear.ini", 40, (z, y)), ("dnn.ini", 100, (z, y))]
    return runs


@functools.lru_cache(maxsize=None)
def recorded_run(name, steps=None, corner=None):
    """(trace, [(problem, solution)]) of every QP of one closed-loop run of
    a bundled scenario, with its steps and start (z, y) if given."""
    sc = config.load_scenario(os.path.join(SCENARIO_DIR, name), environ={})
    if corner is not None:
        x0 = np.array([corner[0], corner[1], 0.0, 0.0])
        sc = replace(sc, run=replace(sc.run, steps=steps, x0=x0))
    solves = []
    solve = qpmod.qp_solve

    def recorded(*args):
        sol = solve(*args)
        solves.append((Qp(*args), sol))
        return sol

    qpmod.qp_solve = recorded
    try:
        tr = runtime.run_closed_loop(sc)
    finally:
        qpmod.qp_solve = solve
    return tr, solves


class TestActiveSetChanges:
    """Every QP of the bundled 500-step scenarios, and of 40-step zero- and
    100-step dnn-oracle runs from the four corners of the benchmark's start
    box (z in [-0.15, -0.09], y in [-0.05, 0.07]), ends optimal within
    2 n active-set changes."""

    @pytest.mark.parametrize("name, steps, corner", _corner_runs(),
                             ids=lambda v: str(v).replace(" ", ""))
    def test_bounded(self, name, steps, corner):
        tr, solves = recorded_run(name, steps, corner)
        assert set(tr.status) == {"optimal"}
        assert len(solves) >= len(tr)
        for p, sol in solves:
            assert sol.status == "optimal"
            assert sol.iterations <= 2 * p.n


def enter_by_distance(L, G, slack, viol, V):
    """qp_solve's entering rule: of the violated rows V, the one farthest
    from x in the metric of H, with L^-1 G_V' formed in one solve."""
    B = sla.solve_triangular(L, G[V].T, lower=True, check_finite=False)
    with np.errstate(divide="ignore"):
        j = int(np.argmax(slack[V] / np.sqrt(np.sum(B * B, axis=0))))
    return int(V[j]), B[:, j]


def enter_most_violated(L, G, slack, viol, V):
    """The textbook entering rule, kept as a reference: the largest scaled
    violation, with v solved for that row alone."""
    q = int(V[np.argmax(viol[V])])
    return q, sla.solve_triangular(L, G[q], lower=True, check_finite=False)


def reference_qp_solve(p: Qp, enter=enter_by_distance) -> QpSolution:
    """qp_solve written with the scipy.linalg wrappers, as it was before the
    solver called LAPACK directly; the same iteration, line for line, with
    the entering row picked by ``enter``."""
    H, g, G, h = p
    n, m = g.size, h.size
    lam = np.zeros(m)

    def finish(x, status, changes):
        return QpSolution(x=x, lam=lam, status=status, iterations=changes)

    if not (np.isfinite(H).all() and np.isfinite(g).all()
            and np.isfinite(h).all()):
        return finish(np.zeros(n), "invalid", 0)
    try:
        L = sla.cholesky(H, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return finish(np.zeros(n), "invalid", 0)
    x = -sla.cho_solve((L, True), g, check_finite=False)
    scale = np.maximum(1.0, np.abs(h))
    active = []
    W = np.zeros((n, 0))
    changes = 0
    max_changes = 2 * (m + n)
    while True:
        slack = G @ x - h
        viol = slack / scale
        viol[active] = 0.0
        q = int(np.argmax(viol)) if m else 0
        if not m or viol[q] <= 1e-9:
            return finish(x, "optimal", changes)
        q, v = enter(L, G, slack, viol, np.flatnonzero(~(viol <= 1e-9)))
        while True:
            if changes >= max_changes:
                return finish(x, "iteration_limit", changes)
            if active:
                Q, R = np.linalg.qr(W)
                r = sla.solve_triangular(R, Q.T @ v, check_finite=False)
                w = v - W @ r
            else:
                r = np.zeros(0)
                w = v
            ww = float(w @ w)
            t_full = np.inf
            if ww > 1e-24 * float(v @ v) and len(active) < n:
                t_full = float(G[q] @ x - h[q]) / ww
            t_part, k = np.inf, -1
            pos = np.flatnonzero(r > 0.0)
            if pos.size:
                ratios = lam[np.asarray(active)[pos]] / r[pos]
                j = int(np.argmin(ratios))
                t_part, k = float(ratios[j]), int(pos[j])
            t = min(t_full, t_part)
            if t == np.inf:
                return finish(x, "infeasible", changes)
            if t_full < np.inf:
                x = x - t * sla.solve_triangular(L, w, lower=True, trans="T",
                                                 check_finite=False)
            if active:
                lam[active] -= t * r
            lam[q] += t
            changes += 1
            if t_full <= t_part:
                active.append(q)
                W = np.column_stack([W, v])
                break
            lam[active[k]] = 0.0
            del active[k]
            W = np.delete(W, k, axis=1)


class TestLapackBitIdentity:
    """qp_solve calls dpotrf, dpotrs, dtrtrs, dgeqrf and dorgqr directly;
    on every QP of the bundled 500-step runs it gives the wrapper-based
    solver's x, lam, status and iteration count bit for bit."""

    @pytest.mark.parametrize("name", ["linear.ini", "dnn.ini", "l2nw.ini"])
    def test_bundled_qps(self, name):
        _, solves = recorded_run(name)
        assert solves
        for i, (p, sol) in enumerate(solves):
            ref = reference_qp_solve(p)
            assert sol.status == ref.status, i
            assert sol.iterations == ref.iterations, i
            assert np.array_equal(sol.x, ref.x), i
            assert np.array_equal(sol.lam, ref.lam), i

    def test_random_qps(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_qp(rng, int(rng.integers(1, 12)),
                          int(rng.integers(0, 20)))
            sol, ref = qp_solve(*p), reference_qp_solve(p)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            assert np.array_equal(sol.x, ref.x)
            assert np.array_equal(sol.lam, ref.lam)


class TestEnteringRule:
    """qp_solve enters the violated row farthest from x in the metric of H,
    compared with the textbook rule, the largest scaled violation."""

    def test_farthest_row_ends_in_one_change(self):
        # from x = 0, row 0 (|h| 0.9) is the most violated but 0.088 from x,
        # row 1 (|h| 0.5) is 0.5 away; x's projection on row 1, (0, 0.5),
        # satisfies row 0, so entering row 1 first ends the solve, while
        # entering row 0 first must drop it again before row 1 enters
        p = Qp(H=np.eye(2), g=np.zeros(2),
               G=np.array([[-10.0, -2.0], [0.0, -1.0]]),
               h_in=np.array([-0.9, -0.5]))
        sol = qp_solve(*p)
        old = reference_qp_solve(p, enter_most_violated)
        assert (sol.status, sol.iterations) == ("optimal", 1)
        assert old.status == "optimal" and old.iterations >= 3
        assert np.allclose(sol.x, [0.0, 0.5], atol=1e-12)
        assert np.allclose(old.x, sol.x, atol=1e-12)

    @pytest.mark.parametrize("name, steps, corner", _corner_runs(),
                             ids=lambda v: str(v).replace(" ", ""))
    def test_no_more_changes_than_most_violated(self, name, steps, corner):
        _, solves = recorded_run(name, steps, corner)
        changes = old_changes = 0
        for i, (p, sol) in enumerate(solves):
            old = reference_qp_solve(p, enter_most_violated)
            assert sol.status == old.status, i
            changes += sol.iterations
            old_changes += old.iterations
        assert changes <= old_changes
