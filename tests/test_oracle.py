"""Estimator tests: adaptation law invariants, projection safety, replay
buffer policies, hidden-stack training, and the kernel baseline, with
gradients and Jacobians checked against central finite differences.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from lbmpc import oracle as om
from lbmpc.config import OracleSection, ScheduleSection
from lbmpc.oracle import (DnnOracle, InsufficientData, L2nwEstimator,
                          NetworkArch, OracleState, ReplayBuffer,
                          ShapeMismatch, ZeroOracle, adapt, batch_gradients,
                          batch_loss, features, init_hidden, l2nw_predict,
                          l2nw_predict_and_jacobian, lyapunov_Va, new_oracle,
                          predict, predict_and_jacobian, project_columns,
                          swap_hidden, train_hidden)


class FakeModel:
    """Minimal linear model stub for adapt()."""

    def __init__(self, d, m, rng):
        self.A = 0.5 * np.eye(d) + 0.05 * rng.normal(size=(d, d))
        self.B = rng.normal(size=(d, m))


def reference_diversity_slot(X, xu):
    """The O(n^2) eviction rule: replace the row nearest to xu if that raises
    the minimum pairwise distance, else None (evict the oldest)."""
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    current_min = d2.min()
    nearest = int(np.argmin(np.sum((X - xu) ** 2, axis=-1)))
    X2 = X.copy()
    X2[nearest] = xu
    d2b = np.sum((X2[:, None, :] - X2[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2b, np.inf)
    if d2b.min() > current_min:
        return nearest
    return None


def assert_batch_matches_points(jacobian, Z, V):
    """Each row of one batched (h, dh/dx, dh/du) call matches the call at
    that row alone, in shape, and in value to rtol 1e-12 with an absolute
    floor of 1e-14 of the array's largest entry: the batch's products only
    reorder the sums."""
    batch = jacobian(Z, V)
    assert [b.shape for b in batch] == [
        Z.shape, Z.shape + Z.shape[-1:], Z.shape + V.shape[-1:]]
    for i in range(len(Z)):
        for b, one in zip(batch, jacobian(Z[i], V[i])):
            assert b[i].shape == one.shape
            np.testing.assert_allclose(b[i], one, rtol=1e-12,
                                       atol=1e-14 * np.abs(b).max())


@pytest.fixture
def arch():
    return NetworkArch(n_in=5, hidden=(8, 6), n_out=4)


@pytest.fixture
def state(arch):
    return new_oracle(arch, W_bar=np.full(4, 0.5), gamma=0.5, seed=7)


class TestNetwork:
    def test_init_deterministic_per_seed(self, arch):
        a = init_hidden(arch, seed=3)
        b = init_hidden(arch, seed=3)
        c = init_hidden(arch, seed=4)
        for (Wa, _), (Wb, _), (Wc, _) in zip(a, b, c):
            assert np.array_equal(Wa, Wb)
            assert not np.array_equal(Wa, Wc)

    def test_features_bounded_with_leading_one(self, state):
        rng = np.random.default_rng(0)
        for _ in range(50):
            phi = features(state, rng.normal(size=4) * 10, rng.normal(size=1))
            assert phi[0] == 1.0
            assert np.all(np.abs(phi) <= 1.0 + 1e-12)
            assert np.linalg.norm(phi) <= state.arch.sigma + 1e-12

    def test_prediction_uniformly_bounded(self, state):
        rng = np.random.default_rng(1)
        st = state
        bound = st.arch.sigma * np.sum(st.W_bar)
        model = FakeModel(4, 1, rng)
        for _ in range(30):
            st = adapt(st, rng.normal(size=4), rng.normal(size=1),
                       rng.normal(size=4), model)
            h = predict(st, rng.normal(size=4) * 5, rng.normal(size=1))
            assert np.linalg.norm(h) <= bound + 1e-9

    def test_jacobians_match_finite_differences(self, state):
        rng = np.random.default_rng(2)
        # nonzero output layer so the Jacobian is informative
        K = rng.normal(size=state.K.shape) * 0.1
        st = om.OracleState(arch=state.arch, hidden=state.hidden, K=K,
                            W_bar=np.full(4, 10.0), gamma=0.5)
        eps = 1e-6
        for _ in range(10):
            x = rng.normal(size=4)
            u = rng.normal(size=1)
            h, Jx, Ju = predict_and_jacobian(st, x, u)
            assert np.allclose(h, predict(st, x, u))
            for j in range(4):
                dx = np.zeros(4)
                dx[j] = eps
                fd = (predict(st, x + dx, u) - predict(st, x - dx, u)) / (2 * eps)
                assert np.allclose(Jx[:, j], fd, atol=1e-7)
            fd = (predict(st, x, u + eps) - predict(st, x, u - eps)) / (2 * eps)
            assert np.allclose(Ju[:, 0], fd, atol=1e-7)

    def test_batch_rows_match_single_points(self, state):
        rng = np.random.default_rng(4)
        st = replace(state, K=rng.normal(size=state.K.shape) * 0.1,
                     W_bar=np.full(4, 10.0))
        assert_batch_matches_points(partial(predict_and_jacobian, st),
                                    rng.normal(size=(10, 4)),
                                    rng.normal(size=(10, 1)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_column_bounds_finite_and_positive(self, arch, bad):
        W_bar = np.full(4, 0.5)
        W_bar[2] = bad
        with pytest.raises(ValueError):
            new_oracle(arch, W_bar=W_bar, gamma=0.5)

    def test_swap_increments_generation_keeps_K(self, state):
        new = init_hidden(state.arch, seed=99)
        swapped = swap_hidden(state, new)
        assert swapped.generation == state.generation + 1
        assert np.array_equal(swapped.K, state.K)
        with pytest.raises(ShapeMismatch):
            swap_hidden(state, new[:1])


class TestProjection:
    def test_norms_respect_bounds(self):
        rng = np.random.default_rng(3)
        W_bar = np.array([0.3, 1.0, 0.05])
        for _ in range(500):
            K = project_columns(rng.normal(size=(7, 3)) * 2.0, W_bar)
            assert np.all(np.linalg.norm(K, axis=0) <= W_bar + 1e-12)

    def test_projection_inequality(self):
        # (W*_i - K_i)'(Kbar_i - K_i) <= 0 whenever ||W*_i|| <= bound
        rng = np.random.default_rng(4)
        W_bar = np.array([0.5, 0.8])
        for _ in range(500):
            K_bar = rng.normal(size=(5, 2)) * 2.0
            K = project_columns(K_bar, W_bar)
            W_star = rng.normal(size=(5, 2))
            norms = np.linalg.norm(W_star, axis=0)
            W_star = W_star / np.maximum(norms / W_bar, 1.0)
            for i in range(2):
                ip = (W_star[:, i] - K[:, i]) @ (K_bar[:, i] - K[:, i])
                assert ip <= 1e-10

    def test_matches_columnwise_loop(self):
        def reference(K_bar, W_bar):
            K = K_bar.copy()
            for i, (n, bound) in enumerate(zip(np.linalg.norm(K, axis=0),
                                                W_bar)):
                if n > bound:
                    K[:, i] *= bound / n
            return K

        rng = np.random.default_rng(8)
        for _ in range(2000):
            K_bar = rng.normal(size=(7, 4)) * rng.uniform(0.01, 3.0)
            W_bar = rng.uniform(0.05, 2.0, 4)
            # a column on its bound and a zero column stay as they are
            W_bar[0] = np.linalg.norm(K_bar[:, 0])
            K_bar[:, 1] *= rng.integers(2)
            assert np.array_equal(project_columns(K_bar, W_bar),
                                  reference(K_bar, W_bar))

    def test_interior_points_untouched(self):
        K = np.array([[0.1], [0.1]])
        assert np.array_equal(project_columns(K, np.array([1.0])), K)


class TestAdaptation:
    def test_drift_bound_on_realizable_truth(self, arch):
        # truth exactly representable: h = W*' phi, so the dissipation
        # bound V(K+) - V(K) <= -((1-gamma)/sigma^2) ||xtilde||^2 must hold
        rng = np.random.default_rng(5)
        gamma = 0.5
        st = new_oracle(arch, W_bar=np.full(4, 0.5), gamma=gamma, seed=11)
        W_star = rng.normal(size=st.K.shape)
        W_star /= np.maximum(np.linalg.norm(W_star, axis=0) / st.W_bar, 1.0)
        model = FakeModel(4, 1, rng)
        sigma2 = st.arch.sigma ** 2
        V = lyapunov_Va(st, W_star)
        for _ in range(2000):
            x = rng.normal(size=4)
            u = rng.normal(size=1)
            phi = features(st, x, u)
            x_next = model.A @ x + model.B @ u + phi @ W_star
            x_tilde = (model.A @ x + model.B @ u + phi @ st.K) - x_next
            st = adapt(st, x, u, x_next, model)
            V_new = lyapunov_Va(st, W_star)
            drift = V_new - V
            assert drift <= -((1 - gamma) / sigma2) * (x_tilde @ x_tilde) + 1e-10
            V = V_new

    def test_Va_never_exceeds_worst_case(self, arch):
        rng = np.random.default_rng(6)
        gamma = 0.5
        st = new_oracle(arch, W_bar=np.full(4, 0.25), gamma=gamma, seed=2)
        W_star = np.zeros(st.K.shape)
        bound = (4.0 / gamma) * np.sum(st.W_bar ** 2)
        model = FakeModel(4, 1, rng)
        for _ in range(1000):
            st = adapt(st, rng.normal(size=4), rng.normal(size=1),
                       rng.normal(size=4) * 0.1, model)
            assert lyapunov_Va(st, W_star) <= bound + 1e-12

    def test_cached_phi_matches_recompute(self, arch):
        rng = np.random.default_rng(7)
        st = new_oracle(arch, W_bar=np.full(4, 0.5), gamma=0.5, seed=1)
        model = FakeModel(4, 1, rng)
        x, u, x_next = rng.normal(size=4), rng.normal(size=1), rng.normal(size=4)
        phi = features(st, x, u)
        a = adapt(st, x, u, x_next, model, phi=phi)
        b = adapt(st, x, u, x_next, model)
        assert np.array_equal(a.K, b.K)

    def test_loop_sum_matches_recompute(self, arch):
        # the closed loop hands adapt its A x + B u, formed in adapt's order
        rng = np.random.default_rng(8)
        st = new_oracle(arch, W_bar=np.full(4, 0.5), gamma=0.5, seed=1)
        st = replace(st, K=0.1 * rng.normal(size=st.K.shape))
        model = FakeModel(4, 1, rng)
        for _ in range(20):
            x, u = rng.normal(size=4), rng.normal(size=1)
            x_next = rng.normal(size=4)
            ax_bu = model.A @ x + model.B @ u
            a = adapt(st, x, u, x_next, model, ax_bu=ax_bu)
            b = adapt(st, x, u, x_next, model)
            assert np.array_equal(a.K, b.K)
            st = b

    def test_K_bit_equal_to_validated_copy(self, arch):
        # adapt as it was when each update went through dataclasses.replace
        # and so re-ran OracleState's validation
        def reference(state, x_t, u_t, x_next, model, phi=None):
            x_t = np.asarray(x_t, dtype=float).reshape(-1)
            u_vec = np.atleast_1d(np.asarray(u_t, dtype=float)).reshape(-1)
            x_next = np.asarray(x_next, dtype=float).reshape(-1)
            if phi is None:
                phi = features(state, x_t, u_vec)
            x_hat = model.A @ x_t + model.B @ u_vec + phi @ state.K
            x_tilde = x_hat - x_next
            K_bar = state.K - state.gamma * np.outer(phi, x_tilde) \
                / float(phi @ phi)
            return replace(state, K=project_columns(K_bar, state.W_bar))

        rng = np.random.default_rng(12)
        st = ref = new_oracle(arch, W_bar=np.full(4, 0.3), gamma=0.4, seed=3)
        model = FakeModel(4, 1, rng)
        projected = 0
        for t in range(2000):
            x, u = rng.normal(size=4), rng.normal(size=1)
            x_next = 0.5 * rng.normal(size=4)
            phi = features(st, x, u) if t % 2 else None
            st = adapt(st, x, u, x_next, model, phi=phi)
            ref = reference(ref, x, u, x_next, model, phi=phi)
            assert np.array_equal(st.K, ref.K)
            projected += np.any(np.isclose(np.linalg.norm(st.K, axis=0),
                                           st.W_bar, rtol=0, atol=1e-15))
        assert projected > 100
        assert type(st) is OracleState
        assert st.arch == ref.arch and st.hidden is ref.hidden
        assert np.array_equal(st.W_bar, ref.W_bar)
        assert (st.gamma, st.generation) == (ref.gamma, ref.generation)


class TestReplayBuffer:
    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(8)
        for policy in ("fifo", "diversity"):
            buf = ReplayBuffer(capacity=32, n_in=5, n_out=4, policy=policy)
            for _ in range(500):
                buf.push(rng.normal(size=5), rng.normal(size=4))
                assert len(buf) <= 32

    def test_fifo_overwrites_oldest(self):
        buf = ReplayBuffer(capacity=3, n_in=2, n_out=1)
        for i in range(5):
            buf.push(np.full(2, float(i)), np.zeros(1))
        stored = sorted(v[0] for v in buf.inputs)
        assert stored == [2.0, 3.0, 4.0]

    def test_diversity_keeps_spread(self):
        buf = ReplayBuffer(capacity=4, n_in=1, n_out=1, policy="diversity")
        for v in (0.0, 1.0, 2.0, 3.0):
            buf.push(np.array([v]), np.zeros(1))
        # a near-duplicate of 0.0 must not evict a far point
        buf.push(np.array([0.01]), np.zeros(1))
        vals = sorted(v[0] for v in buf.inputs)
        assert 3.0 in vals

    @pytest.mark.parametrize("seed", range(12))
    def test_diversity_matches_reference(self, seed):
        # a plain ring with the O(n^2) rule next to the buffer; a third of
        # the samples repeat one of 20 points exactly, the rest are rounded
        rng = np.random.default_rng(seed)
        cap, n_in = int(rng.integers(1, 41)), int(rng.integers(1, 6))
        pool = rng.normal(size=(20, n_in)).round(1)
        buf = ReplayBuffer(capacity=cap, n_in=n_in, n_out=2,
                           policy="diversity")
        X, H = np.zeros((cap, n_in)), np.zeros((cap, 2))
        count = oldest = 0
        for _ in range(3 * cap + 20):
            if rng.random() < 1 / 3:
                xu = pool[rng.integers(len(pool))]
            else:
                xu = rng.normal(size=n_in).round(int(rng.integers(0, 3)))
            h = rng.normal(size=2)
            if count < cap:
                idx, count = count, count + 1
            else:
                idx = reference_diversity_slot(X, xu)
                if idx is None or idx == oldest:
                    idx, oldest = oldest, (oldest + 1) % cap
            X[idx], H[idx] = xu, h
            buf.push(xu, h)
            assert np.array_equal(buf.inputs, X[:count])
            assert np.array_equal(buf.labels, H[:count])

    def test_push_returns_slot_written(self):
        buf = ReplayBuffer(3, 1, 1)
        slots = [buf.push([v], [v]) for v in range(5)]
        assert slots == [0, 1, 2, 0, 1]
        assert buf.inputs[:, 0].tolist() == [3.0, 4.0, 2.0]

    def test_sample_and_insufficient(self):
        buf = ReplayBuffer(capacity=10, n_in=2, n_out=1)
        for i in range(4):
            buf.push(np.array([float(i), 0.0]), np.array([1.0]))
        X, H = buf.sample(3, np.random.default_rng(0))
        assert X.shape == (3, 2) and H.shape == (3, 1)
        with pytest.raises(InsufficientData):
            buf.sample(5, np.random.default_rng(0))

    def test_non_finite_rejected(self):
        buf = ReplayBuffer(capacity=4, n_in=1, n_out=1)
        with pytest.raises(ValueError):
            buf.push(np.array([np.nan]), np.zeros(1))

    def test_wrong_shape_rejected(self):
        buf = ReplayBuffer(capacity=4, n_in=3, n_out=2)
        with pytest.raises(ValueError):
            buf.push(np.zeros(1), np.zeros(2))    # would broadcast silently
        assert len(buf) == 0


class TestTraining:
    def _filled_buffer(self, arch, rng, n=64):
        buf = ReplayBuffer(capacity=n, n_in=arch.n_in, n_out=arch.n_out)
        for _ in range(n):
            xu = rng.normal(size=arch.n_in)
            buf.push(xu, np.sin(xu[:4]))
        return buf

    def test_loss_never_increases(self, arch, state):
        rng = np.random.default_rng(9)
        buf = self._filled_buffer(arch, rng)
        st = om.OracleState(arch=arch, hidden=state.hidden,
                            K=rng.normal(size=state.K.shape) * 0.1,
                            W_bar=np.full(4, 10.0), gamma=0.5)
        X, H = buf.sample(32, np.random.default_rng(5))
        loss0 = batch_loss(st.hidden, st.K, X, H)
        _, loss = train_hidden(st, buf, 32, epochs=25, lr=0.01, seed=5)
        assert loss <= loss0 + 1e-15

    def test_training_is_seeded(self, arch, state):
        rng = np.random.default_rng(10)
        buf = self._filled_buffer(arch, rng)
        h1, l1 = train_hidden(state, buf, 16, epochs=5, seed=3)
        h2, l2 = train_hidden(state, buf, 16, epochs=5, seed=3)
        assert l1 == l2
        for (Wa, _), (Wb, _) in zip(h1, h2):
            assert np.array_equal(Wa, Wb)

    @pytest.mark.parametrize("lr", [0.01, 1.0])
    @pytest.mark.parametrize("epochs", [0, 1, 20])
    def test_bit_equal_to_two_pass_loop(self, arch, state, epochs, lr):
        # train_hidden as it was with a separate loss pass after each step;
        # lr = 1.0 oscillates, so the best iterate is the initial one at
        # one epoch and an intermediate one at twenty
        def reference(state, buf, M, epochs, lr, seed):
            rng = np.random.default_rng(seed)
            X, H = buf.sample(M, rng)
            hidden = [(W.copy(), b.copy()) for W, b in state.hidden]
            best = ([(W.copy(), b.copy()) for W, b in hidden],
                    batch_loss(hidden, state.K, X, H))
            for _ in range(epochs):
                grads, _ = batch_gradients(hidden, state.K, X, H)
                hidden = [(W - lr * gW, b - lr * gb)
                          for (W, b), (gW, gb) in zip(hidden, grads)]
                loss = batch_loss(hidden, state.K, X, H)
                if loss < best[1]:
                    best = ([(W.copy(), b.copy()) for W, b in hidden], loss)
            return best

        rng = np.random.default_rng(13)
        buf = self._filled_buffer(arch, rng)
        st = om.OracleState(arch=arch, hidden=state.hidden,
                            K=rng.normal(size=state.K.shape) * 0.5,
                            W_bar=np.full(4, 10.0), gamma=0.5)
        hidden, loss = train_hidden(st, buf, 32, epochs, lr=lr, seed=4)
        hidden_ref, loss_ref = reference(st, buf, 32, epochs, lr, seed=4)
        assert loss == loss_ref
        for (W, b), (Wr, br), (W0, b0) in zip(hidden, hidden_ref, st.hidden):
            assert np.array_equal(W, Wr) and np.array_equal(b, br)
            assert not np.shares_memory(W, W0)
            assert not np.shares_memory(b, b0)

    def test_gradients_match_finite_differences(self, arch):
        rng = np.random.default_rng(11)
        hidden = init_hidden(arch, seed=0)
        K = rng.normal(size=(arch.feature_dim, arch.n_out)) * 0.3
        X = rng.normal(size=(12, arch.n_in))
        H = rng.normal(size=(12, arch.n_out))
        grads, _ = batch_gradients(hidden, K, X, H)
        eps = 1e-6
        for layer in range(len(hidden)):
            W, b = hidden[layer]
            for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
                Wp = [(w.copy(), bb.copy()) for w, bb in hidden]
                Wm = [(w.copy(), bb.copy()) for w, bb in hidden]
                Wp[layer][0][idx] += eps
                Wm[layer][0][idx] -= eps
                fd = (batch_loss(Wp, K, X, H) - batch_loss(Wm, K, X, H)) / (2 * eps)
                rel = abs(grads[layer][0][idx] - fd) / max(abs(fd), 1e-8)
                assert rel < 1e-5


class TestL2nw:
    def test_empty_buffer_predicts_zero(self):
        est = L2nwEstimator(capacity=8, n_in=5, n_out=4, bandwidth=1.0)
        assert np.array_equal(l2nw_predict(est, np.zeros(4), np.zeros(1)),
                              np.zeros(4))

    def test_two_point_hand_computation(self):
        est = L2nwEstimator(capacity=4, n_in=2, n_out=1, bandwidth=1.0,
                            lam=0.5)
        est.push(np.array([0.0, 0.0]), np.array([1.0]))
        est.push(np.array([1.0, 0.0]), np.array([3.0]))
        q = np.array([0.0, 0.0])
        k = np.array([1.0, np.exp(-0.5)])
        expected = (k @ np.array([1.0, 3.0])) / (0.5 + k.sum())
        got = l2nw_predict(est, q[:1], q[1:])
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        est = L2nwEstimator(capacity=32, n_in=3, n_out=2, bandwidth=0.8)
        for _ in range(20):
            est.push(rng.normal(size=3), rng.normal(size=2))
        eps = 1e-6
        x = rng.normal(size=2)
        u = rng.normal(size=1)
        _, Jx, Ju = l2nw_predict_and_jacobian(est, x, u)
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = eps
            fd = (l2nw_predict(est, x + dx, u) - l2nw_predict(est, x - dx, u)) / (2 * eps)
            assert np.allclose(Jx[:, j], fd, atol=1e-7)
        fd = (l2nw_predict(est, x, u + eps) - l2nw_predict(est, x, u - eps)) / (2 * eps)
        assert np.allclose(Ju[:, 0], fd, atol=1e-7)

    @pytest.mark.parametrize("bandwidth", [0.0, float("nan"), 1e200,
                                           float("inf"), 1e-300])
    def test_bandwidth_validated(self, bandwidth):
        # 1e200 is finite, but its square overflowed in __post_init__; the
        # square of 1e-300 underflows to 0 and made the kernel Jacobian NaN
        with pytest.raises(ValueError):
            L2nwEstimator(capacity=2, n_in=1, n_out=1, bandwidth=bandwidth)

    def test_ring_overwrite(self):
        est = L2nwEstimator(capacity=2, n_in=1, n_out=1, bandwidth=1.0)
        for v in (1.0, 2.0, 3.0):
            est.push(np.array([v]), np.array([v]))
        assert est.count == 2
        assert 1.0 not in est.buffer.inputs

    def test_non_finite_rejected(self):
        est = L2nwEstimator(capacity=4, n_in=2, n_out=1, bandwidth=1.0)
        for xu, h in (([np.nan, 0.0], [1.0]), ([0.0, 0.0], [np.inf])):
            with pytest.raises(ValueError):
                est.push(np.array(xu), np.array(h))
        assert est.count == 0

    @staticmethod
    def wrapped_estimator(bandwidth, seed=3):
        """A 5-in, 4-out estimator after 1.5x its capacity of pushes."""
        rng = np.random.default_rng(seed)
        est = L2nwEstimator(capacity=40, n_in=5, n_out=4,
                            bandwidth=bandwidth)
        for _ in range(60):
            est.push(rng.uniform(-0.5, 0.5, size=5),
                     rng.normal(scale=0.01, size=4))
        return est, rng

    @staticmethod
    def direct(est, x, u):
        """The kernel sums formed over the stored rows, as (h, J)."""
        q = np.concatenate([x, u])
        X, H = est.buffer.inputs, est.buffer.labels
        k = np.exp(-np.sum((X - q) ** 2, axis=1) / (2.0 * est.bandwidth ** 2))
        s = est.lam + k.sum()
        num = k @ H
        dk = k[:, None] * (X - q) / est.bandwidth ** 2
        J = (H.T @ dk) / s - np.outer(num, dk.sum(axis=0)) / s ** 2
        return num / s, J

    @pytest.mark.parametrize("bandwidth", [0.05, 2.0])
    def test_moments_match_direct_sums(self, bandwidth):
        # the moment form's rounding is relative to the moments: where one
        # sample dominates the weights, J cancels down to lambda-sized terms
        # that only an absolute tolerance on the moments' scale can judge,
        # sum k |h| |xu| / (bw^2 s) <= max |h| max |xu| / bw^2
        est, rng = self.wrapped_estimator(bandwidth)
        X, H = est.buffer.inputs, est.buffer.labels
        scale = np.abs(H).max() * np.abs(X).max() / bandwidth ** 2
        for i in range(20):
            q = X[i % len(X)] + rng.normal(scale=bandwidth, size=5)
            h_ref, J_ref = self.direct(est, q[:4], q[4:])
            h, Jx, Ju = l2nw_predict_and_jacobian(est, q[:4], q[4:])
            np.testing.assert_allclose(h, h_ref, rtol=1e-10, atol=0)
            np.testing.assert_allclose(l2nw_predict(est, q[:4], q[4:]),
                                       h_ref, rtol=1e-10, atol=0)
            np.testing.assert_allclose(np.hstack([Jx, Ju]), J_ref,
                                       rtol=1e-10, atol=1e-13 * scale)

    def test_table_rows_follow_the_ring(self):
        est, _ = self.wrapped_estimator(2.0)
        assert est.count == est.capacity
        X, H = est.buffer.inputs, est.buffer.labels
        rows = np.hstack([np.ones((len(X), 1)), H, X,
                          (H[:, :, None] * X[:, None, :]).reshape(len(X), -1)])
        assert np.array_equal(est._moment_rows[:len(X)], rows)
        expo = np.hstack([X / 4.0, -np.sum(X * X, axis=1, keepdims=True) / 8.0])
        np.testing.assert_allclose(est._exponent_rows[:len(X)], expo,
                                   rtol=1e-15)

    def test_batch_rows_match_single_points(self):
        est, rng = self.wrapped_estimator(0.3)
        assert_batch_matches_points(partial(l2nw_predict_and_jacobian, est),
                                    rng.uniform(-0.5, 0.5, (10, 4)),
                                    rng.uniform(-0.5, 0.5, (10, 1)))

    def test_empty_rollout_adds_nothing(self):
        # an empty estimator's one call at N stages: zero h and Jacobians
        est = L2nwEstimator(capacity=8, n_in=3, n_out=2, bandwidth=1.0)
        z, v = np.full((6, 2), 0.3), np.full((6, 1), -0.1)
        h, Jz, Jv = est.predict_and_jacobian(z, v)
        assert (h.shape, Jz.shape, Jv.shape) == ((6, 2), (6, 2, 2), (6, 2, 1))
        assert not (h.any() or Jz.any() or Jv.any())


class TestAdapterProtocol:
    """observe(t, x, u, x_next, h) returns the prediction made before the
    update, and k_fro and generation read before it describe that state."""

    SCHEDULE = ScheduleSection(copy_period=3, train_fill=0.1,
                               min_new_samples=2, seed=7)
    TRAINING = OracleSection(train_batch=4, train_epochs=3, train_lr=0.01)

    def adapter(self, kind, model):
        if kind == "zero":
            return ZeroOracle()
        if kind == "l2nw":
            return L2nwEstimator(capacity=6, n_in=3, n_out=2, bandwidth=0.8)
        state = new_oracle(NetworkArch(3, (5, 4), 2), W_bar=[0.3, 0.3],
                           gamma=0.4, seed=2)
        return DnnOracle(state, model, ReplayBuffer(16, 3, 2), self.SCHEDULE,
                         self.TRAINING)

    @pytest.mark.parametrize("kind", ["zero", "dnn", "l2nw"])
    def test_observe_predicts_then_learns(self, kind):
        rng = np.random.default_rng(31)
        model = FakeModel(2, 1, rng)
        oracle = self.adapter(kind, model)
        ring = ReplayBuffer(16, 3, 2)
        swaps = []
        for t in range(8):
            x, u = rng.normal(size=2), rng.normal(size=1)
            h = 0.1 * rng.normal(size=2)
            x_next = model.A @ x + model.B @ u + h
            if kind == "dnn":
                prior = oracle.state
                h_expected = predict(prior, x, u)
                k_fro, generation = np.linalg.norm(prior.K), prior.generation
            elif kind == "l2nw":
                h_expected = l2nw_predict(oracle, x, u)
                k_fro, generation = 0.0, 0
            else:
                h_expected, k_fro, generation = np.zeros(2), 0.0, 0
            assert oracle.k_fro == k_fro
            assert oracle.generation == generation
            h_hat = oracle.observe(t, x, u, x_next, h)
            assert np.array_equal(h_hat, h_expected)

            xu = np.concatenate([x, u])
            if kind == "dnn":
                # the adapter's update, spelled out: adapt, store, and on a
                # scheduled step retrain and swap
                expected = adapt(prior, x, u, x_next, model)
                ring.push(xu, h)
                if t in (3, 6):
                    hidden, _ = train_hidden(expected, ring, 4, 3, lr=0.01,
                                             seed=7 + t)
                    expected = swap_hidden(expected, hidden)
                    swaps.append(t)
                assert np.array_equal(oracle.state.K, expected.K)
                assert oracle.generation == expected.generation
                for (W, b), (W_e, b_e) in zip(oracle.state.hidden,
                                              expected.hidden):
                    assert np.array_equal(W, W_e) and np.array_equal(b, b_e)
                assert np.array_equal(oracle.buffer.inputs, ring.inputs)
            elif kind == "l2nw":
                assert oracle.count == min(t + 1, 6)
                assert xu in oracle.buffer.inputs
            assert list(oracle.swap_steps) == swaps
        if kind == "dnn":
            assert swaps == [3, 6] and oracle.generation == 2

    def test_failed_trainer_job_names_its_step(self, monkeypatch):
        def failing_train(*args, **kwargs):
            raise FloatingPointError("injected")

        monkeypatch.setattr(om, "train_hidden", failing_train)
        rng = np.random.default_rng(4)
        model = FakeModel(2, 1, rng)
        oracle = self.adapter("dnn", model)
        for t in range(3):
            oracle.observe(t, rng.normal(size=2), rng.normal(size=1),
                           rng.normal(size=2), np.zeros(2))
        with pytest.raises(om.TrainerFailed,
                           match="trainer job failed at step 3") as info:
            oracle.observe(3, np.zeros(2), np.zeros(1), np.zeros(2),
                           np.zeros(2))
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert oracle.swap_steps == []
