"""Uncertainty estimators: adaptive neural oracle, L2NW kernel baseline, zero.

The neural oracle is a feed-forward stack with a bounded (tanh) last hidden
layer.  Its output layer is adapted in real time by a projection-based update
that keeps every weight column inside a known norm ball; the hidden stack is
retrained separately on buffered data with the output layer frozen, and
swapped in whole generations.  The network's replay buffer and the kernel
baseline keep their samples in the same preallocated ring, ReplayBuffer.

Each oracle kind is one adapter: ZeroOracle, DnnOracle or L2nwEstimator.
The solver calls its ``predict_and_jacobian(z, v)`` once per solve, with
all N nominal stages as the rows of z and v (see mpc); the closed loop calls
its ``observe(t, x, u, x_next, h)`` once per step after the truth step,
which returns the prediction made before any update and then learns.  The
adapters look the module-level functions up at call time, so a wrapper set
on the module sees every call.  ``k_fro``,
``generation`` and ``swap_steps`` read 0, 0 and () but for the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np


class OracleError(Exception):
    pass


class InsufficientData(OracleError):
    """Replay buffer holds fewer samples than the requested batch."""


class ShapeMismatch(OracleError):
    """Hidden-stack snapshot does not match the architecture."""


class TrainerFailed(OracleError):
    """A trainer job raised; its exception is the ``__cause__``."""


@dataclass(frozen=True)
class NetworkArch:
    """Feed-forward layout: input (d+m) -> hidden widths -> output d.

    The last hidden activation must be bounded; tanh is used throughout so
    every feature component lies in [-1, 1].
    """

    n_in: int
    hidden: Tuple[int, ...]
    n_out: int

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("need at least one hidden layer")
        if min(self.hidden) < 1 or self.n_in < 1 or self.n_out < 1:
            raise ValueError("layer widths must be positive")
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))

    @property
    def n_last(self) -> int:
        return self.hidden[-1]

    @property
    def feature_dim(self) -> int:
        # constant bias element plus the last hidden layer
        return self.n_last + 1

    @property
    def sigma(self) -> float:
        """Uniform bound on the feature norm (attained by saturated tanh)."""
        return math.sqrt(self.feature_dim)


HiddenStack = List[Tuple[np.ndarray, np.ndarray]]

# the constant feature, and the 1 that ends a kernel query
_ONE = np.ones(1)


def init_hidden(arch: NetworkArch, seed: int) -> HiddenStack:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    widths = (arch.n_in,) + arch.hidden
    stack = []
    for n_a, n_b in zip(widths[:-1], widths[1:]):
        bound = 1.0 / math.sqrt(n_a)
        W = rng.uniform(-bound, bound, size=(n_a, n_b))
        stack.append((W, np.zeros(n_b)))
    return stack


def _forward_hidden(hidden: HiddenStack, xu: np.ndarray):
    """tanh forward pass of one input or a batch of rows; returns
    activations per layer (input first)."""
    acts = [xu]
    a = xu
    for W, b in hidden:
        a = np.tanh(a @ W + b)
        acts.append(a)
    return acts


@dataclass(frozen=True)
class OracleState:
    """Live network value: hidden stack, adapted output layer, bounds.

    ``K`` is (n_last+1) x d with the first row acting on the constant
    feature; column i never exceeds norm ``W_bar[i]``, a finite positive
    bound.  ``generation`` counts hidden-stack swaps.  Every state built
    from outside is validated; ``adapt`` copies one without re-validating.
    """

    arch: NetworkArch
    hidden: HiddenStack
    K: np.ndarray
    W_bar: np.ndarray
    gamma: float
    generation: int = 0

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        W_bar = np.asarray(self.W_bar, dtype=float).reshape(-1)
        if K.shape != (self.arch.feature_dim, self.arch.n_out):
            raise ShapeMismatch("K must be (n_last+1) x d")
        if W_bar.shape != (self.arch.n_out,):
            raise ShapeMismatch("one column bound per output")
        if not np.all(np.isfinite(W_bar) & (W_bar > 0.0)):
            raise ValueError("column bounds W_bar must be finite and positive")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("learning rate must be in (0, 1)")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "W_bar", W_bar)


def new_oracle(arch: NetworkArch, W_bar, gamma: float, seed: int = 0) -> OracleState:
    """Fresh oracle with seeded hidden weights and K = 0 (inside any bound)."""
    return OracleState(arch=arch, hidden=init_hidden(arch, seed),
                       K=np.zeros((arch.feature_dim, arch.n_out)),
                       W_bar=np.asarray(W_bar, dtype=float), gamma=gamma)


def features(state: OracleState, x, u) -> np.ndarray:
    """Bounded feature vector phi(x, u) with leading constant 1."""
    xu = np.concatenate((x, u), axis=None, dtype=float)
    return np.concatenate((_ONE, _forward_hidden(state.hidden, xu)[-1]))


def predict(state: OracleState, x, u) -> np.ndarray:
    """Oracle output K' phi(x, u); uniformly bounded by sigma * sum W_bar."""
    return features(state, x, u) @ state.K


def predict_from_features(state: OracleState, phi: np.ndarray) -> np.ndarray:
    return phi @ state.K


def predict_and_jacobian(state: OracleState, x, u):
    """(h, dh/dx, dh/du) at one input, or at each row of a batch.

    x (..., d) and u (..., m) give h (..., d), dh/dx (..., d, d) and
    dh/du (..., d, m); a batch takes one forward pass.  The Jacobians
    K1' diag(s_L) W_L' ... diag(s_1) W_1' (s_l = 1 - a_l^2) are formed from
    the output side, one product per layer for all rows.  The solver calls
    this once per solve, at the N nominal stages (``DnnOracle``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xu = np.concatenate([x, u], axis=-1)
    acts = _forward_hidden(state.hidden, xu)
    h = state.K[0] + acts[-1] @ state.K[1:]
    # the bias feature contributes nothing; K rows 1.. act on the hidden output
    G = state.K[1:].T
    for (W, _), a in zip(reversed(state.hidden), reversed(acts[1:])):
        G = G * (1.0 - a * a)[..., None, :]
        G = (G.reshape(-1, W.shape[1]) @ W.T).reshape(G.shape[:-1]
                                                       + W.shape[:1])
    return h, G[..., :x.shape[-1]], G[..., x.shape[-1]:]


def project_columns(K_bar: np.ndarray, W_bar: np.ndarray) -> np.ndarray:
    """Radially rescale any column whose norm exceeds its bound.

    The norms are np.linalg.norm(K_bar, axis=0)'s arithmetic without its
    wrapper.  A column within its bound gets the factor W/W = 1 exactly;
    the bounds are positive, so no division is by zero.
    """
    norms = np.sqrt(np.add.reduce(K_bar * K_bar, axis=0))
    return K_bar * (W_bar / np.maximum(norms, W_bar))


def adapt(state: OracleState, x_t, u_t, x_next, model,
          phi: Optional[np.ndarray] = None) -> OracleState:
    """One projection-based output-layer update from the realized next state.

    The prediction error is xtilde = (A x + B u + K'phi) - x_next; the raw
    update K - gamma * phi xtilde' / |phi|^2 is projected column-wise back
    onto the norm bounds.  ``x_t``, ``u_t`` and ``x_next`` are 1-D float
    arrays.  ``phi`` should be the cached feature vector of the generation
    that produced u_t; it is recomputed if omitted.
    """
    if phi is None:
        phi = features(state, x_t, u_t)
    x_hat = model.A @ x_t + model.B @ u_t + phi @ state.K
    x_tilde = x_hat - x_next
    # phi x_tilde' by broadcasting, the product np.outer forms
    K_bar = (state.K - state.gamma * (phi[:, None] * x_tilde)
             / float(phi @ phi))
    # the same state with a new K of K's shape: nothing for __post_init__
    # to check, so the copy skips it
    new = object.__new__(OracleState)
    new.__dict__.update(state.__dict__, K=project_columns(K_bar, state.W_bar))
    return new


def lyapunov_Va(state: OracleState, W_star: np.ndarray) -> float:
    """(1/gamma) * ||K - W*||_F^2, the adaptation Lyapunov function."""
    diff = state.K - np.asarray(W_star, dtype=float)
    return float(np.sum(diff * diff) / state.gamma)


def swap_hidden(state: OracleState, new_hidden: HiddenStack) -> OracleState:
    """Atomically install a retrained hidden stack; K is untouched."""
    if len(new_hidden) != len(state.hidden):
        raise ShapeMismatch("hidden stack depth changed")
    for (W_old, b_old), (W_new, b_new) in zip(state.hidden, new_hidden):
        if W_old.shape != W_new.shape or b_old.shape != b_new.shape:
            raise ShapeMismatch("hidden layer shape changed")
    copied = [(W.copy(), b.copy()) for W, b in new_hidden]
    return replace(state, hidden=copied, generation=state.generation + 1)


# ---------------------------------------------------------------------------
# replay buffer


@dataclass
class ReplayBuffer:
    """Bounded ring of ((x, u), h) training pairs in preallocated arrays.

    Slots fill in order.  Once full, 'fifo' overwrites the oldest entry;
    'diversity' evicts the stored entry closest to the newcomer, but only if
    doing so increases the minimum pairwise input distance, otherwise falls
    back to FIFO.  To decide that in O(n d) per push, 'diversity' keeps each
    row's nearest-neighbour squared distance and index current on every
    write.  ``inputs`` and ``labels`` are views of the filled rows in slot
    order.
    """

    capacity: int
    n_in: int
    n_out: int
    policy: str = "fifo"

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.policy not in ("fifo", "diversity"):
            raise ValueError("unknown write policy %r" % self.policy)
        self._X = np.zeros((self.capacity, self.n_in))
        self._H = np.zeros((self.capacity, self.n_out))
        self._count = 0
        self._oldest = 0
        self._nn_dist = np.full(self.capacity, np.inf)
        self._nn_index = np.full(self.capacity, -1)

    def __len__(self):
        return self._count

    @property
    def inputs(self) -> np.ndarray:
        return self._X[:self._count]

    @property
    def labels(self) -> np.ndarray:
        return self._H[:self._count]

    def push(self, xu, h) -> int:
        """Store one pair; returns the slot it wrote."""
        xu = np.asarray(xu, dtype=float).reshape(-1)
        h = np.asarray(h, dtype=float).reshape(-1)
        if xu.shape != (self.n_in,) or h.shape != (self.n_out,):
            raise ValueError("sample shape does not match the buffer")
        if not (np.isfinite(xu).all() and np.isfinite(h).all()):
            raise ValueError("non-finite sample")
        if self._count < self.capacity:
            idx = self._count
            self._count += 1
        else:
            idx = self._oldest
            if self.policy == "diversity":
                idx = self._diversity_slot(xu)
            if idx == self._oldest:
                self._oldest = (self._oldest + 1) % self.capacity
        self._X[idx] = xu
        self._H[idx] = h
        if self.policy == "diversity":
            self._update_nearest(idx)
        return idx

    def _distances(self, rows) -> np.ndarray:
        """Squared input distances from ``rows`` to every filled row, inf
        from a row to itself."""
        X = self.inputs
        d2 = np.sum((X[rows][:, None, :] - X[None, :, :]) ** 2, axis=-1)
        d2[np.arange(len(rows)), rows] = np.inf
        return d2

    def _diversity_slot(self, xu) -> int:
        d_new = np.sum((self.inputs - xu) ** 2, axis=-1)
        nearest = int(np.argmin(d_new))
        # the minimum pairwise distance once xu replaces `nearest`: xu against
        # the other rows, each other row's nearest neighbour, recomputed for
        # the rows whose nearest neighbour was `nearest`
        d_new[nearest] = np.inf
        lost = self._nn_index == nearest
        lost[nearest] = False
        kept = ~lost
        kept[nearest] = False
        d_lost = self._distances(np.flatnonzero(lost))
        d_lost[:, nearest] = np.inf
        new_min = min(d_new.min(), self._nn_dist[kept].min(initial=np.inf),
                      d_lost.min(initial=np.inf))
        return nearest if new_min > self._nn_dist.min() else self._oldest

    def _update_nearest(self, idx: int) -> None:
        """Account for the new row in slot ``idx`` in every nearest
        neighbour; rescan the rows whose nearest neighbour it replaced."""
        n = len(self)
        stale = np.flatnonzero(self._nn_index[:n] == idx)
        rows = np.concatenate([[idx], stale[stale != idx]])
        d_rows = self._distances(rows)
        closer = d_rows[0] < self._nn_dist[:n]
        self._nn_dist[:n][closer] = d_rows[0][closer]
        self._nn_index[:n][closer] = idx
        self._nn_index[rows] = np.argmin(d_rows, axis=1)
        self._nn_dist[rows] = d_rows.min(axis=1)

    def sample(self, M: int, rng: np.random.Generator):
        if len(self) < M:
            raise InsufficientData("buffer holds %d < %d samples" % (len(self), M))
        idx = rng.choice(len(self), size=M, replace=False)
        return self._X[idx], self._H[idx]


def buffer_push(buf: ReplayBuffer, xu, h) -> None:
    """Append one ((x, u), h) pair to the network's replay buffer.

    The closed loop stores its samples through this module-level name so that
    loopbench can time them (``oracle.buffer_s``) by wrapping one attribute.
    """
    buf.push(xu, h)


# ---------------------------------------------------------------------------
# hidden-stack training


def batch_loss(hidden: HiddenStack, K: np.ndarray, X: np.ndarray, H: np.ndarray) -> float:
    """Mean squared error of K'phi against labels over a batch."""
    a = _forward_hidden(hidden, X)[-1]
    pred = K[0] + a @ K[1:]
    r = pred - H
    return float(np.mean(np.sum(r * r, axis=1)))


def batch_gradients(hidden: HiddenStack, K: np.ndarray, X: np.ndarray, H: np.ndarray):
    """Reverse-mode gradients of the batch loss w.r.t. the hidden stack."""
    acts = _forward_hidden(hidden, X)
    M = X.shape[0]
    r = (K[0] + acts[-1] @ K[1:]) - H
    loss = float(np.mean(np.sum(r * r, axis=1)))
    da = (2.0 / M) * (r @ K[1:].T)
    grads = [None] * len(hidden)
    for layer in range(len(hidden) - 1, -1, -1):
        a_out = acts[layer + 1]
        dz = da * (1.0 - a_out ** 2)
        grads[layer] = (acts[layer].T @ dz, dz.sum(axis=0))
        if layer:  # the input layer's da would have no reader
            da = dz @ hidden[layer][0].T
    return grads, loss


def train_hidden(state: OracleState, buf: ReplayBuffer, M: int, epochs: int,
                 lr: float = 0.001, seed: int = 0):
    """Gradient descent on the hidden stack with the output layer frozen.

    Draws one batch of M samples from the buffer (seeded), runs ``epochs``
    full-batch descent steps and returns ``(hidden, loss)`` for the best
    iterate seen, so the returned batch loss never exceeds the initial one.
    Each epoch's forward pass gives the loss of the iterate it steps from;
    only the last iterate needs a pass of its own.  Every step builds new
    arrays, so the best iterate is kept without a copy.
    """
    rng = np.random.default_rng(seed)
    X, H = buf.sample(M, rng)
    hidden = [(W.copy(), b.copy()) for W, b in state.hidden]
    best = None
    for _ in range(epochs):
        grads, loss = batch_gradients(hidden, state.K, X, H)
        if best is None or loss < best[1]:
            best = (hidden, loss)
        hidden = [(W - lr * gW, b - lr * gb)
                  for (W, b), (gW, gb) in zip(hidden, grads)]
    loss = batch_loss(hidden, state.K, X, H)
    if best is None or loss < best[1]:
        best = (hidden, loss)
    return best


# ---------------------------------------------------------------------------
# oracle adapters


class ZeroOracle:
    """h-hat == 0; collapses LBMPC to the linear tube MPC baseline."""

    k_fro = 0.0
    generation = 0
    swap_steps = ()

    def predict_and_jacobian(self, z, v):
        N, d = z.shape
        return (np.zeros((N, d)), np.zeros((N, d, d)),
                np.zeros((N, d, v.shape[-1])))

    def observe(self, t, x, u, x_next, h):
        return np.zeros(x.size)


class DnnOracle:
    """The network oracle on both timescales.

    ``observe`` adapts the output layer and stores the sample in
    ``buffer``.  Every ``copy_period``-th step, once the buffer holds
    ``train_fill`` of its capacity and ``min_new_samples`` new samples, it
    retrains the hidden stack and installs it at that step.  ``schedule``
    and ``training`` are a scenario's [schedule] and [oracle] sections.
    """

    def __init__(self, state, model, buffer, schedule, training):
        self.state = state
        self.model = model
        self.buffer = buffer
        self.schedule = schedule
        self.training = training
        self.swap_steps = []
        self._new_samples = 0

    k_fro = property(lambda self: np.linalg.norm(self.state.K))
    generation = property(lambda self: self.state.generation)

    def predict_and_jacobian(self, z, v):
        return predict_and_jacobian(self.state, z, v)

    def observe(self, t, x, u, x_next, h):
        # predict and adapt share one forward pass: a swap comes after adapt,
        # so both see the generation behind u
        phi = features(self.state, x, u)
        h_hat = predict_from_features(self.state, phi)
        self.state = adapt(self.state, x, u, x_next, self.model, phi=phi)
        buf, sched, tr = self.buffer, self.schedule, self.training
        buffer_push(buf, np.concatenate((x, u)), h)
        self._new_samples += 1
        if (t > 0 and t % sched.copy_period == 0
                and len(buf) >= sched.train_fill * buf.capacity
                and self._new_samples >= sched.min_new_samples):
            self._new_samples = 0
            try:
                hidden, _ = train_hidden(self.state, buf,
                                         min(tr.train_batch, len(buf)),
                                         tr.train_epochs, lr=tr.train_lr,
                                         seed=sched.seed + t)
            except Exception as exc:
                raise TrainerFailed("trainer job failed at step %d: %s"
                                    % (t, exc)) from exc
            self.state = swap_hidden(self.state, hidden)
            self.swap_steps.append(t)
        return h_hat


# ---------------------------------------------------------------------------
# L2NW baseline


@dataclass
class L2nwEstimator:
    """Regularized Nadaraya-Watson regressor over a FIFO sample ring.

    The prediction at q and its Jacobian need only kernel-weighted moments
    of the stored samples, k_i = exp(-|xu_i - q|^2 / 2 bw^2).  So next to
    the ring the estimator keeps one table row per stored sample, written at
    the slot ``push`` fills: the exponent terms [xu_i / bw^2,
    -|xu_i|^2 / (2 bw^2)] and the moments [1, h_i, xu_i, vec(h_i xu_i')].
    A query is then one product for the exponents, one ``exp`` and one
    product k @ moments (see ``l2nw_predict_and_jacobian``).  Only the
    filled rows enter the sums, so the preallocated slots never bias the
    estimate.
    """

    k_fro = 0.0
    generation = 0
    swap_steps = ()

    capacity: int
    n_in: int
    n_out: int
    bandwidth: float
    lam: float = 1e-6

    def __post_init__(self):
        if self.bandwidth <= 0.0 or self.lam <= 0.0:
            raise ValueError("bandwidth and lambda must be positive")
        # a square that overflows, or underflows to 0, makes the kernel
        # Jacobian NaN
        if not 0.0 < self.bandwidth * self.bandwidth < math.inf:
            raise ValueError("bandwidth %g has no finite positive square"
                             % self.bandwidth)
        self.buffer = ReplayBuffer(self.capacity, self.n_in, self.n_out)
        self._bw2 = self.bandwidth ** 2
        self._exponent_rows = np.zeros((self.capacity, self.n_in + 1))
        self._moment_rows = np.zeros(
            (self.capacity, 1 + self.n_out + self.n_in * (1 + self.n_out)))

    @property
    def count(self) -> int:
        return len(self.buffer)

    def push(self, xu, h):
        slot = self.buffer.push(xu, h)
        xu, h = self.buffer.inputs[slot], self.buffer.labels[slot]
        self._exponent_rows[slot, :-1] = xu / self._bw2
        self._exponent_rows[slot, -1] = -(xu @ xu) / (2.0 * self._bw2)
        row = self._moment_rows[slot]
        row[0] = 1.0
        row[1:1 + self.n_out] = h
        row[1 + self.n_out:1 + self.n_out + self.n_in] = xu
        row[1 + self.n_out + self.n_in:] = (h[:, None] * xu).ravel()

    def _moments(self, q: np.ndarray) -> np.ndarray:
        """[sum k, sum k h, sum k xu, vec(sum k h xu')] at ``q``, the query
        followed by a 1, or at each row of a batch of them."""
        n = len(self.buffer)
        xu = q[..., :-1]
        e = self._exponent_rows[:n] @ q.T
        e -= np.einsum("...i,...i", xu, xu) / (2.0 * self._bw2)
        return np.exp(e, out=e).T @ self._moment_rows[:n]

    def predict_and_jacobian(self, z, v):
        return l2nw_predict_and_jacobian(self, z, v)

    def observe(self, t, x, u, x_next, h):
        h_hat = l2nw_predict(self, x, u)
        self.push(np.concatenate([x, u]), h)
        return h_hat


def l2nw_predict(est: L2nwEstimator, x, u) -> np.ndarray:
    """Kernel-weighted label average sum(k h) / (lambda + sum(k)); 0 if empty."""
    m = est._moments(np.concatenate((x, u, _ONE), axis=None))
    return m[1:1 + est.n_out] / (est.lam + m[0])


def l2nw_predict_and_jacobian(est: L2nwEstimator, x, u):
    """(h, dh/dx, dh/du) from one moment product, at one input or at each
    row of a batch (shapes as in ``predict_and_jacobian``).

    With s = lambda + sum k and h = sum(k h) / s, dk_i/dq = k_i (xu_i - q)
    / bw^2 gives dh/dq = (sum(k h xu') - sum(k h) q' - h (sum(k xu) -
    (sum k) q)') / (bw^2 s), and sum(k h) - (sum k) h = lambda h, so
    dh/dq = (sum(k h xu') - h (sum(k xu) + lambda q)') / (bw^2 s).
    A batch of N rows is one (N x n) exponent product, one ``exp`` and one
    moment product over the n stored samples.
    """
    x, u = np.atleast_1d(x, u)
    q = np.concatenate((x, u, np.ones(x.shape[:-1] + (1,))), axis=-1)
    m = est._moments(q)
    d, p, r = x.shape[-1], est.n_out, est.n_in
    s = est.lam + m[..., :1]
    h = m[..., 1:1 + p] / s
    g = m[..., 1 + p:1 + p + r] + est.lam * q[..., :-1]
    J = ((m[..., 1 + p + r:].reshape(m.shape[:-1] + (p, r))
          - h[..., :, None] * g[..., None, :]) / (est._bw2 * s)[..., None])
    return h, J[..., :d], J[..., d:]
