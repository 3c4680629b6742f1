"""Set algebra tests: support functions, Pontryagin differences, tube
margins and the invariant-set fixpoint, each checked against an independent
oracle (interval arithmetic, brute-force vertex enumeration, or sampling).
"""

import dataclasses
import os

import numpy as np
import pytest
from scipy.optimize import linprog

from lbmpc import config as cfgmod, polytope, runtime
from lbmpc.polytope import (EmptyResult, Infeasible, NotSchurStable, Polytope,
                            Unbounded, max_invariant_set, pontryagin_diff,
                            prune_redundant, spectral_radius, support,
                            support_many, tube_margins)

SCENARIO_DIR = os.path.join(os.path.dirname(runtime.__file__), "scenarios")


def _lp_max(f, F, h):
    return linprog(-f, A_ub=F, b_ub=h, bounds=(None, None), method="highs")


def reference_nonredundant_rows(F, h, cand_F, cand_h, tol=1e-9):
    """The per-row redundancy test: one LP per candidate row."""
    keep = []
    for i, (f, b) in enumerate(zip(cand_F, cand_h)):
        res = _lp_max(f, F, h)
        if res.status != 0 or -res.fun > b + tol:
            keep.append(i)
    return keep


def reference_prune_redundant(P):
    """The sequential pruning: one LP per row against the rows still kept."""
    F, h = P.F.copy(), P.h.copy()
    i = 0
    while i < F.shape[0] and F.shape[0] > 1:
        mask = np.ones(F.shape[0], dtype=bool)
        mask[i] = False
        res = _lp_max(F[i], F[mask], h[mask])
        if res.status == 0 and -res.fun <= h[i] + polytope.LP_TOL:
            F, h = F[mask], h[mask]
        else:
            i += 1
    return Polytope(F, h)


def reference_invariant_set(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(polytope, "_nonredundant_rows", reference_nonredundant_rows)
        m.setattr(polytope, "prune_redundant", reference_prune_redundant)
        return max_invariant_set(*args)


def assert_same_result(a, b):
    assert (a.converged, a.iterations) == (b.converged, b.iterations)
    assert np.array_equal(a.omega.F, b.omega.F)
    assert np.array_equal(a.omega.h, b.omega.h)


def random_bounded_polytope(rng, dim, facets):
    """Random polytope guaranteed bounded: box plus extra slanted facets."""
    F = np.vstack([np.eye(dim), -np.eye(dim),
                   rng.normal(size=(facets, dim))])
    h = np.concatenate([np.full(2 * dim, 2.0), rng.uniform(0.5, 2.0, facets)])
    return Polytope(F, h)


class TestConstruction:
    def test_box_round_trip(self):
        P = Polytope.box([-1.0, -2.0], [3.0, 4.0])
        assert P.dim == 2
        assert P.num_facets == 4
        assert P.contains([0.0, 0.0])
        assert P.contains([3.0, 4.0])
        assert not P.contains([3.1, 0.0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Polytope(np.eye(2), np.ones(3))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            Polytope(np.zeros((1, 2)), np.ones(1))

    def test_empty_box_detected(self):
        P = Polytope.box([1.0], [-1.0])
        assert P.is_empty()


    def test_box_offsets_emptiness_agrees_with_lp(self):
        # lower ends just below, at and above HiGHS' feasibility tolerance
        # past the upper ends, on boxes of several sizes
        rng = np.random.default_rng(4)
        B = Polytope.box([-1.0, -1.0], [1.0, 1.0])
        for _ in range(200):
            hi = rng.choice([0.0, 1.0, 5.0, 1e4]) * rng.uniform(-1, 1, 2)
            lo = hi.copy()
            j = rng.integers(2)
            lo[j] += rng.uniform(0.9e-7, 1.1e-7)
            h = np.concatenate([hi, -lo])
            lp = linprog(np.zeros(2), A_ub=B.F, b_ub=h, bounds=(None, None),
                         method="highs")
            assert B.is_empty_at(h) == (lp.status == 2)
        assert not B.is_empty_at(B.h)
        assert B.is_empty_at([1.0, 1.0, -1.5, 0.0])

    def test_offsets_emptiness_of_general_polytope(self):
        P = Polytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
        assert not P.is_empty_at([1.0, 0.0, 0.0])
        assert P.is_empty_at([-0.5, 0.0, 0.0])


class TestSupport:
    def test_box_support_is_interval_arithmetic(self):
        P = Polytope.box([-1.0, -3.0], [2.0, 5.0])
        assert support(P, [1.0, 0.0]) == 2.0
        assert support(P, [-1.0, 0.0]) == 1.0
        assert support(P, [0.0, -1.0]) == 3.0
        assert support(P, [1.0, 1.0]) == 7.0

    def test_support_matches_lp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            P = random_bounded_polytope(rng, 3, 5)
            d = rng.normal(size=3)
            res = linprog(-d, A_ub=P.F, b_ub=P.h,
                          bounds=[(None, None)] * 3, method="highs")
            assert res.status == 0
            assert support(P, d) == pytest.approx(-res.fun, abs=1e-8)

    def test_support_many_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        P = random_bounded_polytope(rng, 2, 3)
        D = rng.normal(size=(6, 2))
        vals = support_many(P, D)
        for d, v in zip(D, vals):
            assert v == pytest.approx(support(P, d), abs=1e-9)

    def test_unbounded_direction_raises(self):
        P = Polytope(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                     np.array([1.0, 1.0, 1.0]))
        with pytest.raises(Unbounded):
            support(P, [-1.0, 0.0])

    def test_empty_set_raises(self):
        P = Polytope.box([2.0], [1.0])
        with pytest.raises(Infeasible):
            support(P, [1.0])


class TestPontryagin:
    def test_box_cases_exact(self):
        # [lo, hi] (-) [-w, w] = [lo + w, hi - w], componentwise and exact
        cases = [
            (([-1.0], [1.0]), ([-0.25], [0.25])),
            (([-2.0, -1.0], [2.0, 3.0]), ([-0.5, -0.1], [0.5, 0.1])),
            (([0.0, -5.0, -1.0], [4.0, 5.0, 1.0]),
             ([-1.0, -0.5, 0.0], [1.0, 0.5, 0.0])),
        ]
        for (lo, hi), (wlo, whi) in cases:
            P = Polytope.box(lo, hi)
            S = Polytope.box(wlo, whi)
            D = pontryagin_diff(P, S)
            lo_e = np.asarray(lo) - np.asarray(wlo)
            hi_e = np.asarray(hi) - np.asarray(whi)
            for i in range(len(lo)):
                e = np.zeros(len(lo))
                e[i] = 1.0
                assert support(D, e) == pytest.approx(hi_e[i], abs=1e-12)
                assert support(D, -e) == pytest.approx(-lo_e[i], abs=1e-12)

    def test_difference_then_sum_recovers_membership(self):
        rng = np.random.default_rng(7)
        P = random_bounded_polytope(rng, 2, 4)
        S = Polytope.box([-0.1, -0.2], [0.1, 0.2])
        D = pontryagin_diff(P, S)
        for _ in range(200):
            x = rng.uniform(-2.5, 2.5, 2)
            if not D.contains(x):
                continue
            for corner in ([0.1, 0.2], [-0.1, 0.2], [0.1, -0.2], [-0.1, -0.2]):
                assert P.contains(x + np.asarray(corner), tol=1e-9)

    def test_oversized_subtrahend_empty(self):
        P = Polytope.box([-1.0], [1.0])
        S = Polytope.box([-2.0], [2.0])
        with pytest.raises(EmptyResult):
            pontryagin_diff(P, S)


class TestTubeMargins:
    def test_zero_disturbance_zero_margins(self):
        A = np.array([[0.5, 0.1], [0.0, 0.4]])
        W = Polytope.box([0.0, 0.0], [0.0, 0.0])
        m = tube_margins(A, W, np.eye(2), 6)
        assert m.shape == (7, 2)
        assert np.all(m == 0.0)

    def test_scalar_geometric_series(self):
        # A_cl = a, W = [-w, w]: margin_i = w * sum_{k<i} a^k, closed form
        a, w = 0.6, 0.3
        A = np.array([[a]])
        W = Polytope.box([-w], [w])
        m = tube_margins(A, W, np.array([[1.0]]), 8)
        for i in range(9):
            expected = w * (1.0 - a ** i) / (1.0 - a)
            assert m[i, 0] == pytest.approx(expected, abs=1e-12)

    def test_margins_monotone_in_stage(self):
        rng = np.random.default_rng(5)
        A = 0.7 * rng.normal(size=(3, 3))
        A /= max(1.0, spectral_radius(A) / 0.8)
        W = Polytope.box([-0.1] * 3, [0.1] * 3)
        m = tube_margins(A, W, rng.normal(size=(5, 3)), 10)
        assert np.all(np.diff(m, axis=0) >= -1e-12)

    def test_unstable_map_rejected(self):
        A = np.array([[1.01]])
        W = Polytope.box([-0.1], [0.1])
        with pytest.raises(NotSchurStable):
            tube_margins(A, W, np.array([[1.0]]), 5)


class TestInvariantSet:
    def setup_method(self):
        # double integrator with deadbeat-ish LQR feedback
        self.A = np.array([[1.0, 1.0], [0.0, 1.0]])
        self.B = np.array([[0.5], [1.0]])
        self.K = np.array([[-0.4, -1.0]])
        self.A_cl = self.A + self.B @ self.K
        self.X = Polytope.box([-5.0, -5.0], [5.0, 5.0])
        self.U = Polytope.box([-2.0], [2.0])
        self.W = Polytope.box([-0.05, -0.05], [0.05, 0.05])

    def test_omega_inside_constraints(self):
        res = max_invariant_set(self.A_cl, self.X, self.U, self.K, self.W)
        assert res.converged
        omega = res.omega
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = rng.uniform(-5, 5, 2)
            if not omega.contains(x):
                continue
            assert self.X.contains(x)
            assert self.U.contains(self.K @ x)

    def test_robust_invariance_sampled(self):
        res = max_invariant_set(self.A_cl, self.X, self.U, self.K, self.W)
        omega = res.omega
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 2000:
            x = rng.uniform(-5, 5, 2)
            if not omega.contains(x):
                continue
            w = rng.uniform(-0.05, 0.05, 2)
            assert omega.contains(self.A_cl @ x + w, tol=1e-7)
            checked += 1

    def test_unstable_closed_loop_rejected(self):
        with pytest.raises(NotSchurStable):
            max_invariant_set(self.A, self.X, self.U, self.K, self.W)

    def test_impossible_disturbance_empty(self, monkeypatch):
        # the first level's rows already leave nothing, and the next level's
        # LP proves it instead of iterating to max_iter
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(polytope, "linprog", counting)
        W_huge = Polytope.box([-50.0, -50.0], [50.0, 50.0])
        with pytest.raises(EmptyResult):
            max_invariant_set(self.A_cl, self.X, self.U, self.K, W_huge)
        assert len(calls) <= 5

    def test_matches_reference_double_integrator(self, monkeypatch):
        args = (self.A_cl, self.X, self.U, self.K, self.W)
        assert_same_result(max_invariant_set(*args),
                           reference_invariant_set(monkeypatch, *args))

    @pytest.mark.parametrize("inflation", [1.1, 1.3])
    def test_matches_reference_bundled_plant(self, monkeypatch, inflation):
        scen = cfgmod.load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"))
        scen = dataclasses.replace(scen, plant=dataclasses.replace(
            scen.plant, w_inflation=inflation))
        seen = []

        def record(*args):
            seen.append((args, max_invariant_set(*args)))
            return seen[-1][1]

        monkeypatch.setattr(runtime, "max_invariant_set", record)
        runtime.build_setup(scen)
        (args, result), = seen
        assert_same_result(result, reference_invariant_set(monkeypatch, *args))
        if inflation == 1.1:
            assert (result.omega.num_facets, result.iterations) == (81, 30)


class TestPrune:
    def test_pruning_preserves_the_set(self):
        rng = np.random.default_rng(9)
        P = random_bounded_polytope(rng, 2, 6)
        # duplicate and slacken some rows so redundancy is guaranteed
        F = np.vstack([P.F, P.F[:3], P.F[0] * 2.0])
        h = np.concatenate([P.h, P.h[:3] + 1.0, [P.h[0] * 2.0 + 0.5]])
        Q = prune_redundant(Polytope(F, h))
        assert Q.num_facets <= P.num_facets
        for _ in range(50):
            d = rng.normal(size=2)
            assert support(Q, d) == pytest.approx(support(P, d), abs=1e-7)

    def test_matches_sequential_reference(self):
        rng = np.random.default_rng(21)
        for case in range(30):
            dim = 2 + case // 3 % 3
            if case % 3 == 0:
                # a simplex: dropping any one facet unbounds the set
                P = Polytope(np.vstack([-np.eye(dim), np.ones(dim)]),
                             np.concatenate([np.zeros(dim), [1.0]]))
            elif case % 3 == 1:
                P = random_bounded_polytope(rng, dim, 4)
            else:
                # an unbounded cone cut by slanted facets
                P = Polytope(np.vstack([-np.eye(dim),
                                        rng.normal(size=(3, dim))]),
                             np.concatenate([np.zeros(dim),
                                             rng.uniform(0.5, 2.0, 3)]))
            n = P.num_facets
            dup = rng.integers(0, n, 3)
            scale = rng.uniform(0.5, 3.0, 3)
            F = np.vstack([P.F, P.F[dup], P.F[dup] * scale[:, None]])
            h = np.concatenate([P.h, P.h[dup] + rng.uniform(0.0, 0.5, 3),
                                P.h[dup] * scale])
            order = rng.permutation(F.shape[0])
            Q = Polytope(F[order], h[order])
            got, expected = prune_redundant(Q), reference_prune_redundant(Q)
            assert np.array_equal(got.F, expected.F), case
            assert np.array_equal(got.h, expected.h), case
