"""Set algebra tests: support functions, Pontryagin differences, tube
margins and the invariant-set fixpoint, each checked against an independent
oracle (interval arithmetic, brute-force vertex enumeration, or sampling).
"""

import dataclasses
import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from lbmpc import config as cfgmod, polytope, runtime
from lbmpc.polytope import (EmptyResult, Infeasible, NotSchurStable, Polytope,
                            PolytopeError, Unbounded, _unit_rows, _walk,
                            bounding_box, max_invariant_set, pontryagin_diff,
                            spectral_radius, support, support_many,
                            tube_margins)

SCENARIO_DIR = os.path.join(os.path.dirname(runtime.__file__), "scenarios")


def textbook_invariant_set(A_cl, X_t, U_t, K, W, max_iter=200):
    """The fixpoint as textbooks state it: every base row is tested at every
    level, one LP per candidate, with no chain skipped.  Returns
    (omega, converged, iterations); an empty level raises ``EmptyResult``."""
    base_F = np.vstack([X_t.F, U_t.F @ K])
    base_h = np.concatenate([X_t.h, U_t.h])
    F, h = base_F, base_h
    dirs = base_F @ A_cl
    w_margin = support_many(W, base_F)
    for k in range(1, max_iter + 1):
        cand_h = base_h - w_margin
        keep = []
        for i, (f, b) in enumerate(zip(dirs, cand_h)):
            res = linprog(-f, A_ub=F, b_ub=h, bounds=(None, None),
                          method="highs")
            if res.status == 2:
                raise EmptyResult("level %d is empty" % k)
            if res.status != 0 or -res.fun > b + 1e-9:
                keep.append(i)
        if not keep:
            return Polytope(F, h), True, k
        F = np.vstack([F, dirs[keep]])
        h = np.concatenate([h, cand_h[keep]])
        w_margin = w_margin + support_many(W, dirs)
        dirs = dirs @ A_cl
    return Polytope(F, h), False, max_iter


def assert_matches_textbook(result, *args):
    omega, converged, iterations = textbook_invariant_set(*args)
    assert (result.converged, result.iterations) == (converged, iterations)
    assert np.array_equal(result.omega.F, omega.F)
    assert np.array_equal(result.omega.h, omega.h)


def random_stable_system(rng):
    """(A_cl, X, U, K, W) with 2-4 states, 1-2 inputs, spectral radius in
    [0.3, 0.85], asymmetric boxes and a W box off the origin."""
    n, m = rng.integers(2, 5), rng.integers(1, 3)
    A_cl = rng.normal(size=(n, n))
    A_cl *= rng.uniform(0.3, 0.85) / spectral_radius(A_cl)
    K = rng.normal(size=(m, n))
    X = Polytope.box(-rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
    U = Polytope.box(-rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m))
    centre = rng.uniform(-0.1, 0.1, n)
    half = rng.uniform(0.01, 0.2, n)
    return A_cl, X, U, K, Polytope.box(centre - half, centre + half)


def reference_tube_margins(A_cl, W, normals, N):
    """Stage by stage: margin_i = margin_{i-1} + sigma_W(dirs), then
    dirs <- dirs A_cl."""
    out = np.zeros((N + 1, normals.shape[0]))
    dirs = normals.copy()
    for i in range(1, N + 1):
        out[i] = out[i - 1] + support_many(W, dirs)
        dirs = dirs @ A_cl
    return out


def bundled_scenario(inflation=1.1):
    scen = cfgmod.load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini"))
    return dataclasses.replace(scen, plant=dataclasses.replace(
        scen.plant, w_inflation=inflation))


@pytest.fixture(scope="module")
def bundled_setup():
    return runtime.build_setup(bundled_scenario())


def counting_linprog(monkeypatch):
    """Count polytope's linprog calls; returns the list that grows."""
    calls = []
    lp = polytope.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return lp(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counting)
    return calls


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

    def test_box_emptiness_one_rule(self):
        # ends crossed by less than EMPTY_TOL: the same set is nonempty
        # however it was built or asked about
        B = Polytope.box([5e-8, 0.0], [0.0, 1.0])
        assert not B.is_empty()
        assert not Polytope(B.F, B.h).is_empty()
        assert not B.is_empty_at(B.h)
        assert support(B, [1.0, 1.0]) == 1.0
        assert np.array_equal(support_many(B, np.eye(2)), [0.0, 1.0])
        C = Polytope.box([2e-7, 0.0], [0.0, 1.0])
        assert C.is_empty() and Polytope(C.F, C.h).is_empty()
        with pytest.raises(Infeasible):
            support(C, [1.0, 1.0])
        # the same box with its rows reversed is no box and takes the LP;
        # on both sides of EMPTY_TOL it gets the box's verdict
        for cross in (0.5e-7, 0.9e-7, 1.5e-7, 2.5e-7):
            for at in (0.0, 1.0, -5.0, 1e4):
                B = Polytope.box([at + cross, -1.0], [at, 1.0])
                R = Polytope(B.F[::-1], B.h[::-1])
                empty = cross > polytope.EMPTY_TOL
                assert not R.is_box
                assert B.is_empty() == R.is_empty() == empty
                if empty:
                    with pytest.raises(Infeasible):
                        support(R, [1.0, 1.0])
                else:
                    assert support(R, [1.0, 1.0]) == pytest.approx(
                        at + 1.0, abs=1e-7)

    def test_box_offsets_emptiness_agrees_with_lp(self):
        # lower ends just below, at and above EMPTY_TOL past the upper
        # ends, on boxes of several sizes; HiGHS' default primal
        # feasibility tolerance is the same 1e-7
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


class TestBoxFromRows:
    def test_box_read_from_rows(self):
        # box-ness is a property of the rows, however the set was built
        B = Polytope.box([-1.0, 0.5], [2.0, 3.0])
        assert B.is_box and Polytope(B.F, B.h).is_box
        assert not Polytope(B.F[::-1], B.h[::-1]).is_box
        assert not Polytope(np.vstack([B.F, [[1.0, 1.0]]]),
                            np.append(B.h, 9.0)).is_box
        D = pontryagin_diff(B, Polytope.box([-0.1, -0.2], [0.1, 0.2]))
        assert D.is_box
        # [lo, hi] (-) [wlo, whi] = [lo - wlo, hi - whi], rounded once
        assert np.array_equal(np.stack(bounding_box(D)),
                              [np.subtract([-1.0, 0.5], [-0.1, -0.2]),
                               np.subtract([2.0, 3.0], [0.1, 0.2])])

    def test_bounding_box(self):
        lo, hi = np.array([-1.0, -3.0, 0.0]), np.array([2.0, 5.0, 0.0])
        got = bounding_box(Polytope.box(lo, hi))
        assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)
        # a box with its rows reordered goes through the LPs, same ends
        B = Polytope.box(lo, hi)
        got = bounding_box(Polytope(B.F[::-1], B.h[::-1]))
        assert np.allclose(got[0], lo, atol=1e-12)
        assert np.allclose(got[1], hi, atol=1e-12)
        T = Polytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
        got = bounding_box(T)
        assert np.allclose(got[0], [0.0, 0.0], atol=1e-12)
        assert np.allclose(got[1], [1.0, 1.0], atol=1e-12)
        slanted = np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]])
        for empty in (Polytope.box([1.0], [-1.0]),
                      Polytope(slanted, [-1.0, 1.0, -1.0, 1.0, 5.0])):
            with pytest.raises(Infeasible):
                bounding_box(empty)


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

    @pytest.mark.parametrize("N", [0, 1, 10, 80])
    @pytest.mark.parametrize("case", ["box", "triangle", "bundled omega"])
    def test_stacked_matches_stage_recurrence(self, case, N, bundled_setup):
        # bit for bit: every stage's directions come from the same iterated
        # product and the running sum adds in the same order
        rng = np.random.default_rng(N)
        if case == "bundled omega":
            s = bundled_setup
            A_cl = s.model.A + s.model.B @ s.cfg.K
            W, normals = s.model.W, s.omega.F
        elif case == "box":
            A_cl = rng.normal(size=(3, 3))
            A_cl *= 0.9 / spectral_radius(A_cl)
            W = Polytope.box([-0.1, 0.0, -0.02], [0.05, 0.1, 0.03])
            normals = rng.normal(size=(7, 3))
        else:
            A_cl = np.array([[0.8, 0.3], [-0.2, 0.7]])
            W = Polytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                         [0.1, 0.0, 0.0])
            normals = rng.normal(size=(3, 2))
        got = tube_margins(A_cl, W, normals, N)
        expected = reference_tube_margins(A_cl, W, normals, N)
        assert got.shape == expected.shape == (N + 1, normals.shape[0])
        assert got.tobytes() == expected.tobytes()

    def test_unstable_map_rejected(self):
        A = np.array([[1.01]])
        W = Polytope.box([-0.1], [0.1])
        with pytest.raises(NotSchurStable):
            tube_margins(A, W, np.array([[1.0]]), 5)


def linprog_max(c, F, h):
    res = linprog(-np.asarray(c), A_ub=F, b_ub=h, bounds=(None, None),
                  method="highs")
    assert res.status == 0
    return -res.fun


def assert_walk_optimal(c, F, h, x0):
    c, F, h = (np.asarray(a, dtype=float) for a in (c, F, h))
    status, x = _walk(c, *_unit_rows(F, h), x0)
    assert status == 0
    assert np.all(F @ x <= h + 1e-12)
    expected = linprog_max(c, F, h)
    assert abs(c @ x - expected) <= 1e-9 * max(1.0, abs(expected))


class TestLpWalk:
    """The fixpoint's LP: max c'x over {F x <= h} from a feasible point."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_linprog(self, data):
        # a box around a known interior point plus random slanted rows; the
        # draws lie on a 1e-3 grid because HiGHS drops coefficients below
        # 1e-9, and the grid also yields rows that meet in degenerate ways
        def grid(shape, lo, hi, label=None):
            ints = hnp.arrays(int, shape, elements=st.integers(lo, hi))
            return data.draw(ints, label=label) / 1000.0

        n = data.draw(st.integers(1, 4), label="dim")
        m = data.draw(st.integers(0, 12), label="slanted rows")
        x0 = grid(n, -1000, 1000, "x0")
        normals = grid((m, n), -1000, 1000, "normals")
        F = np.vstack([np.eye(n), -np.eye(n), normals[normals.any(axis=1)]])
        h = F @ x0 + grid(F.shape[0], 10, 2000, "slack")
        assert_walk_optimal(grid(n, -1000, 1000, "c"), F, h, x0)

    def test_duplicated_rows(self):
        F = np.vstack([np.eye(2), -np.eye(2), np.eye(2), [[1.0, 1.0]] * 3])
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5])
        assert_walk_optimal([1.0, 0.3], F, h, [0.0, 0.0])
        assert_walk_optimal([1.0, 1.0], F, h, [-0.5, 0.2])

    def test_tiny_row_scale(self):
        # x + y <= 1.5 written with coefficients of 1e-12; HiGHS would drop
        # them, so the reference LP gets the row at unit scale
        F = np.vstack([np.eye(2), -np.eye(2), [[1e-12, 1e-12]]])
        h = np.array([1.0, 1.0, 1.0, 1.0, 1.5e-12])
        for c, x0 in (([1.0, 0.3], [0.0, 0.0]), ([0.3, 1.0], [0.9, -0.9])):
            status, x = _walk(np.array(c), *_unit_rows(F, h), np.array(x0))
            expected = linprog_max(c, np.vstack([F[:4], [1.0, 1.0]]),
                                   np.append(h[:4], 1.5))
            assert status == 0
            assert abs(np.dot(c, x) - expected) <= 1e-9 * max(1.0, expected)

    def test_many_rows_through_optimal_vertex(self):
        # a pyramid whose apex (0, 0, 1) lies on 7 side facets: pivots there
        # are zero-length steps, which Bland's rule keeps from cycling
        angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        sides = np.column_stack([np.cos(angles), np.sin(angles),
                                 np.ones(7)])
        F = np.vstack([sides, [[0.0, 0.0, -1.0]]])
        h = np.append(np.ones(7), 0.0)
        for c in ([0.0, 0.0, 1.0], [0.01, 0.02, 1.0], [-0.3, 0.1, 1.0]):
            assert_walk_optimal(c, F, h, [0.1, 0.05, 0.2])
        # and a planar vertex (1, 1) on 6 rows
        F = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0],
                      [1.0, 2.0], [3.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        h = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 1.0, 1.0])
        for c in ([1.0, 1.0], [1.0, 0.2], [0.2, 1.0]):
            assert_walk_optimal(c, F, h, [-0.5, -0.5])

    def test_optimal_face(self):
        # c is normal to a face: the walk stops on it with 1 active row
        F = np.vstack([np.eye(3), -np.eye(3)])
        status, x = _walk(np.array([0.0, 0.0, 2.0]),
                          *_unit_rows(F, np.ones(6)), np.zeros(3))
        assert status == 0 and x[2] == 1.0

    def test_unbounded(self):
        F = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        status, _ = _walk(np.array([-1.0, 0.2]), *_unit_rows(F, np.ones(3)),
                          np.zeros(2))
        assert status == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_split_matches_numpy(self, k):
        # _split calls dgeqrf, dorgqr and dtrtrs directly; it gives
        # np.linalg.qr's and solve's bits, at a vertex (k = 4) too
        rng = np.random.default_rng(k)
        for _ in range(500):
            G = rng.normal(size=(10, 4))
            G /= np.linalg.norm(G, axis=1)[:, None]
            c = rng.normal(size=4)
            active = list(rng.choice(10, k, replace=False))
            Q, R = np.linalg.qr(G[active].T, mode="complete")
            z = Q.T @ c
            lam, p = polytope._split(c, G, active)
            assert np.array_equal(lam, np.linalg.solve(R[:k], z[:k]))
            assert np.array_equal(p, Q[:, k:] @ z[k:])

    def test_singular_solves_raise(self):
        # a repeated active row makes R singular, on a face and at a
        # vertex (k = dim): _split fails as numpy's solve does, never
        # silently
        G = np.vstack([np.eye(3), np.eye(3)])
        with pytest.raises(np.linalg.LinAlgError):
            polytope._split(np.ones(3), G, [0, 3])
        with pytest.raises(np.linalg.LinAlgError):
            polytope._split(np.ones(3), G, [0, 1, 3])

    @pytest.mark.parametrize("max_steps", [0, 1])
    def test_step_cap(self, max_steps):
        F = np.vstack([np.eye(2), -np.eye(2)])
        status, x = _walk(np.array([1.0, 0.3]), *_unit_rows(F, np.ones(4)),
                          np.zeros(2), max_steps=max_steps)
        assert status == 1
        assert np.all(F @ x <= 1.0)


def highs_status(c, F, h):
    """(status, optimal value) of min c'x over {F x <= h} by scipy's HiGHS.

    HiGHS' presolve calls some feasible, unbounded problems infeasible (see
    ``test_unbounded_is_not_infeasible``), so feasibility is decided first,
    with a zero objective, and a feasible problem that HiGHS then calls
    infeasible, or infeasible or unbounded, is unbounded."""
    def solve(obj):
        return linprog(obj, A_ub=F, b_ub=h, bounds=(None, None),
                       method="highs")

    if solve(np.zeros_like(c)).status == 2:
        return 2, None
    res = solve(c)
    if res.status in (2, 4):
        return 3, None
    return res.status, res.fun


class TestLinprog:
    """The package's LP: phase 1, then one walk to the optimum."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_highs(self, data):
        # random rows, with or without a box around them, and offsets of
        # either sign: feasible, infeasible and unbounded problems.  Rows
        # marked "through v" pass through one grid point v, a vertex of
        # many rows where the set is not empty.  On a 1e-3 grid, as in
        # TestLpWalk
        def grid(shape, lo, hi, label=None):
            ints = hnp.arrays(int, shape, elements=st.integers(lo, hi))
            return data.draw(ints, label=label) / 1000.0

        n = data.draw(st.integers(1, 4), label="dim")
        F = grid((data.draw(st.integers(1, 12), label="rows"), n),
                 -1000, 1000, "normals")
        if data.draw(st.booleans(), label="box"):
            F = np.vstack([np.eye(n), -np.eye(n), F])
        F = F[F.any(axis=1)]
        if not len(F):
            return
        h = grid(len(F), -2000, 2000, "h")
        through = data.draw(hnp.arrays(bool, len(F)), label="through v")
        h[through] = (F @ grid(n, -1000, 1000, "v"))[through]
        c = grid(n, -1000, 1000, "c")
        res = polytope.linprog(c, A_ub=F, b_ub=h)
        status, fun = highs_status(c, F, h)
        assert res.status == status
        if status == 0:
            assert abs(res.fun - fun) <= 1e-9 * max(1.0, abs(fun))
            assert np.all(F @ res.x <= h + 1e-9)

    def test_unbounded_is_not_infeasible(self):
        # the origin is in the set and x = y = -t, z = -t - 1 stays in it;
        # HiGHS with presolve reports this problem infeasible
        F = np.array([[-1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])
        P = Polytope(F, np.ones(3))
        assert not P.is_empty()
        assert polytope.linprog(np.ones(3), A_ub=F,
                                b_ub=np.ones(3)).status == 3
        with pytest.raises(Unbounded):
            support(P, -np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["c", "A_ub", "b_ub"])
    def test_non_finite_data_raises(self, arg, value):
        lp = {"c": np.ones(2), "A_ub": np.vstack([np.eye(2), -np.eye(2)]),
              "b_ub": np.ones(4)}
        lp[arg] = lp[arg].copy()
        lp[arg].flat[1] = value
        with pytest.raises(ValueError, match="%s must not" % arg):
            polytope.linprog(lp.pop("c"), **lp)

    def test_zero_row_raises(self):
        F = np.vstack([np.eye(2), -np.eye(2), [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero rows"):
            polytope.linprog(np.ones(2), A_ub=F, b_ub=np.ones(5))

    def test_step_cap_is_an_error(self, monkeypatch):
        # a walk stopped at its cap decides nothing: every LP user raises
        # PolytopeError itself, not Infeasible, Unbounded or a verdict
        monkeypatch.setattr(polytope, "_walk",
                            functools.partial(_walk, max_steps=0))
        T = Polytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
        assert polytope.linprog(np.ones(2), A_ub=T.F, b_ub=T.h).status == 1
        for call in (lambda: support_many(T, np.eye(2)),
                     lambda: polytope._point_of(T),
                     lambda: T.is_empty()):
            with pytest.raises(PolytopeError) as err:
                call()
            assert type(err.value) is PolytopeError


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
        # the first level's rows already leave nothing: W's centre, iterated
        # through the closed loop, violates them, which proves it without LP
        calls = counting_linprog(monkeypatch)
        W_huge = Polytope.box([-50.0, -50.0], [50.0, 50.0])
        with pytest.raises(EmptyResult):
            max_invariant_set(self.A_cl, self.X, self.U, self.K, W_huge)
        assert calls == []

    def test_fixed_point_outside_constraints_empty(self, monkeypatch):
        # x = A_cl x + w_c for W's centre w_c is (7.5, -3), outside X; every
        # invariant set would contain it
        calls = counting_linprog(monkeypatch)
        W = Polytope.box([2.95, -0.05], [3.05, 0.05])
        xbar = np.linalg.solve(np.eye(2) - self.A_cl, [3.0, 0.0])
        assert not self.X.contains(xbar)
        with pytest.raises(EmptyResult):
            max_invariant_set(self.A_cl, self.X, self.U, self.K, W)
        assert calls == []

    def test_matches_reference_double_integrator(self):
        args = (self.A_cl, self.X, self.U, self.K, self.W)
        assert_matches_textbook(max_invariant_set(*args), *args)

    def test_matches_reference_offset_disturbance(self):
        # W = [0, 0.1]^2 puts the walks' start point off the origin
        W = Polytope.box([0.0, 0.0], [0.1, 0.1])
        args = (self.A_cl, self.X, self.U, self.K, W)
        result = max_invariant_set(*args)
        assert_matches_textbook(result, *args)
        xbar = np.linalg.solve(np.eye(2) - self.A_cl, [0.05, 0.05])
        assert np.linalg.norm(xbar) > 0.1 and result.omega.contains(xbar)

    def test_general_disturbance_polytope(self):
        # a W that is not a box: its point comes from one feasibility LP
        W = Polytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [0.1, 0.0, 0.0])
        args = (self.A_cl, self.X, self.U, self.K, W)
        assert_matches_textbook(max_invariant_set(*args), *args)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_random_systems(self, seed):
        # both give the same set, or both find that none exists
        rng = np.random.default_rng(seed)
        outcomes = set()
        for _ in range(10):
            args = random_stable_system(rng)
            try:
                result = max_invariant_set(*args)
            except EmptyResult:
                with pytest.raises(EmptyResult):
                    textbook_invariant_set(*args)
                outcomes.add("empty")
                continue
            assert_matches_textbook(result, *args)
            outcomes.add("set")
        assert outcomes == {"empty", "set"}

    @pytest.mark.parametrize("inflation", [1.0, 1.1, 1.3, 1.5])
    def test_matches_reference_bundled_plant(self, monkeypatch, inflation):
        scen = bundled_scenario(inflation)
        seen = []

        def record(*args):
            seen.append((args, max_invariant_set(*args)))
            return seen[-1][1]

        monkeypatch.setattr(runtime, "max_invariant_set", record)
        runtime.build_setup(scen)
        (args, result), = seen
        assert_matches_textbook(result, *args)
        if inflation == 1.1:
            assert (result.omega.num_facets, result.iterations) == (108, 30)

    def test_pooled_end_points_save_walks(self, monkeypatch):
        # walking every live row takes 108 walks on the bundled plant; the
        # pooled end points decide the rest, and 47 walks remain.  Every
        # walk goes through _walk, so a fixpoint that stopped calling it
        # would count 0 and fail here rather than pass with nothing checked
        walks = []
        walk = polytope._walk

        def counting(*args, **kwargs):
            walks.append(1)
            return walk(*args, **kwargs)

        pulled = []
        pull_in = polytope._pull_in

        def pulling(Y, F, h, x):
            out = pull_in(Y, F, h, x)
            pulled.append(len(out))
            return out

        # the pool a level starts with was pulled against the new rows
        # only; its points must satisfy every row of the current set
        tested = []
        nonredundant_rows = polytope._nonredundant_rows

        def checked(G, g, cand_F, cand_h, x, Y):
            tested.append(len(Y))
            assert np.all(Y @ G.T <= g + 1e-12)
            return nonredundant_rows(G, g, cand_F, cand_h, x, Y)

        monkeypatch.setattr(polytope, "_walk", counting)
        monkeypatch.setattr(polytope, "_pull_in", pulling)
        monkeypatch.setattr(polytope, "_nonredundant_rows", checked)
        runtime.build_setup(bundled_scenario(1.1))
        assert 0 < len(walks) <= 54
        assert sum(pulled) > 0 and sum(tested) > 0

    def test_setup_lp_count(self, monkeypatch):
        # the terminal stage's emptiness check; the fixpoint walks from a
        # point every invariant set contains, and W is a box
        calls = counting_linprog(monkeypatch)
        runtime.build_setup(
            cfgmod.load_scenario(os.path.join(SCENARIO_DIR, "dnn.ini")))
        assert len(calls) == 1
