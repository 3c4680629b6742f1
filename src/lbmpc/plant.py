"""Moore-Greitzer compressor surge model and its uncertain linear abstraction.

The truth model is the 4-state continuous-time compressor (mass flow z,
pressure rise y, throttle opening r and its rate) driven through a
second-order throttle actuator.  The controller sees an exact zero-order-hold
discretization of the Jacobian linearization around the surge equilibrium;
whatever the linear model misses shows up as the bounded residual that the
oracle has to learn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.stats import qmc

from .polytope import Polytope


class PlantError(Exception):
    pass


class DomainError(PlantError):
    """State left the numerical domain of the vector field."""


class NotEquilibrium(PlantError):
    """Claimed equilibrium has a non-negligible residual."""


class NotStabilizable(PlantError):
    """(A, B) fails the PBH stabilizability test."""


# Absolute-coordinate operating constraints: z, y, r, rdot and input u.
STATE_BOUNDS_ABS = (np.array([0.0, 1.1875, 0.1547, -20.0]),
                    np.array([1.0, 2.1875, 2.1547, 20.0]))
INPUT_BOUNDS_ABS = (0.1547, 2.1547)

# Surge equilibrium of the benchmark parameters.
X_EQ = np.array([0.5, 1.6875, 1.1547, 0.0])
U_EQ = 1.1547

_DOMAIN_GUARD = 1e6


@dataclass(frozen=True)
class MooreGreitzerParams:
    """Compressor and actuator constants plus the controller sampling time."""

    beta: float = 1.0
    zeta: float = 1.0 / math.sqrt(2.0)
    omega_n: float = 10.0 * math.sqrt(10.0)
    T: float = 0.05

    def __post_init__(self):
        for name in ("beta", "zeta", "omega_n", "T"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive" % name)


def _field(params: MooreGreitzerParams, u, rows: bool):
    """The vector field f(z, y, r, rdot) -> (dz, dy, dr, drdot) at input
    ``u``, over Python floats for one state or over numpy arrays (``rows``)
    for a batch.

    Only the DomainError guard (a NaN passes it, as in numpy) and the square
    root differ by type, so both give the same bits.  The throttle flow is
    r*sqrt(y), the reading under which (X_EQ, U_EQ) is an equilibrium.  The
    cube is the product z*z*z: two correctly rounded multiplications, the
    same on floats as on arrays (a power routine may round differently
    between its scalar and SIMD loops).
    """
    b2 = params.beta ** 2
    wn2 = params.omega_n ** 2
    damp = 2.0 * params.zeta * params.omega_n
    sqrt = np.sqrt if rows else math.sqrt

    def f(z, y, r, rd):
        if rows:
            outside = any(np.any(np.abs(c) > _DOMAIN_GUARD)
                          for c in (z, y, r, rd))
            negative = np.any(y < 0.0)
        else:
            outside = (abs(z) > _DOMAIN_GUARD or abs(y) > _DOMAIN_GUARD
                       or abs(r) > _DOMAIN_GUARD or abs(rd) > _DOMAIN_GUARD)
            negative = y < 0.0
        if outside:
            raise DomainError("state outside numerical domain guard")
        if negative:
            raise DomainError("negative square-root argument in throttle flow")
        return (-y + 1.0 + 1.5 * z - 0.5 * (z * z * z),
                (z + 1.0 - r * sqrt(y)) / b2,
                rd,
                wn2 * (u - r) - damp * rd)

    return f


def mg_rhs(state, u, params: MooreGreitzerParams):
    """Continuous-time vector field of the compressor plus actuator.

    ``state`` is (z, y, r, rdot); broadcasting over a leading batch axis is
    supported.
    """
    s = np.asarray(state, dtype=float)
    u = np.squeeze(np.asarray(u, dtype=float))
    return np.stack(_field(params, u, rows=True)(*np.moveaxis(s, -1, 0)),
                    axis=-1)


def step_truth(state, u, params: MooreGreitzerParams, substeps: int = 10):
    """Advance the truth model by one sampling period T with input held.

    One state (shape (4,)) runs on Python floats, a batch (shape (n, 4)) on
    numpy columns: the same field and the same RK4 loop over the components,
    so both give the same bits.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    x = np.asarray(state, dtype=float)
    rows = x.ndim > 1
    if rows:
        u = np.squeeze(np.asarray(u, dtype=float))
        z, y, r, rd = np.moveaxis(x, -1, 0)
    else:
        u = np.asarray(u, dtype=float).item()
        z, y, r, rd = x.tolist()
    f = _field(params, u, rows)
    h = params.T / substeps
    a = 0.5 * h
    c = h / 6.0
    for _ in range(substeps):
        k1 = f(z, y, r, rd)
        k2 = f(z + a * k1[0], y + a * k1[1], r + a * k1[2], rd + a * k1[3])
        k3 = f(z + a * k2[0], y + a * k2[1], r + a * k2[2], rd + a * k2[3])
        k4 = f(z + h * k3[0], y + h * k3[1], r + h * k3[2], rd + h * k3[3])
        z, y, r, rd = (
            v + c * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            for v, p1, p2, p3, p4 in zip((z, y, r, rd), k1, k2, k3, k4))
    return np.stack((z, y, r, rd), axis=-1) if rows else np.array((z, y, r, rd))


def mg_jacobians(params: MooreGreitzerParams, x_e, u_e):
    """Analytic continuous-time Jacobians (A_c, B_c) of mg_rhs."""
    z, y, r, _ = np.asarray(x_e, dtype=float)
    b2 = params.beta ** 2
    wn, zeta = params.omega_n, params.zeta
    A = np.zeros((4, 4))
    A[0, 0] = 1.5 - 1.5 * z ** 2
    A[0, 1] = -1.0
    A[1, 0] = 1.0 / b2
    A[1, 1] = -r / (2.0 * math.sqrt(y) * b2)
    A[1, 2] = -math.sqrt(y) / b2
    A[2, 3] = 1.0
    A[3, 2] = -wn ** 2
    A[3, 3] = -2.0 * zeta * wn
    B = np.zeros((4, 1))
    B[3, 0] = wn ** 2
    return A, B


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time uncertain linear system x+ = Ax + Bu + h(x, u).

    All quantities live in deviation coordinates around (x_e, u_e).  The
    uncertainty bound W is attached later (see :func:`estimate_W`).
    """

    A: np.ndarray
    B: np.ndarray
    X: Polytope
    U: Polytope
    W: Optional[Polytope] = None
    x_eq: np.ndarray = field(default_factory=lambda: X_EQ.copy())
    u_eq: float = U_EQ

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if B.shape[0] != A.shape[0]:
            B = B.reshape(A.shape[0], -1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        _check_stabilizable(A, B)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def with_W(self, W: Polytope) -> "PlantModel":
        return replace(self, W=W)


def _check_stabilizable(A, B):
    """PBH test on every marginally/unstable eigenvalue."""
    d = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - 1e-9:
            M = np.hstack([A - lam * np.eye(d), B])
            if np.linalg.matrix_rank(M, tol=1e-9) < d:
                raise NotStabilizable("uncontrollable eigenvalue %s" % lam)


def deviation_constraint_sets():
    """State/input boxes of the benchmark, shifted to deviation coordinates."""
    lo, hi = STATE_BOUNDS_ABS
    X = Polytope.box(lo - X_EQ, hi - X_EQ)
    U = Polytope.box([INPUT_BOUNDS_ABS[0] - U_EQ], [INPUT_BOUNDS_ABS[1] - U_EQ])
    return X, U


def linearize_discretize(params: MooreGreitzerParams, x_e=X_EQ,
                         u_e=U_EQ) -> PlantModel:
    """Exact-ZOH discrete model around an equilibrium, with constraint sets.

    The equilibrium claim is verified (residual < 1e-6) before the Jacobians
    are trusted; discretization uses the augmented matrix exponential
    [[A_c, B_c], [0, 0]] so there is no discretization-order error.
    """
    x_e = np.asarray(x_e, dtype=float)
    resid = mg_rhs(x_e, u_e, params)
    if np.linalg.norm(resid, ord=np.inf) >= 1e-6:
        raise NotEquilibrium("equilibrium residual %.3g" % np.linalg.norm(resid, np.inf))
    A_c, B_c = mg_jacobians(params, x_e, u_e)
    d, m = A_c.shape[0], B_c.shape[1]
    aug = np.zeros((d + m, d + m))
    aug[:d, :d] = A_c
    aug[:d, d:] = B_c
    M = expm(aug * params.T)
    A = M[:d, :d]
    B = M[:d, d:]
    X, U = deviation_constraint_sets()
    return PlantModel(A=A, B=B, X=X, U=U, x_eq=x_e, u_eq=float(u_e))


def truth_residual(x_t, u_t, x_next, model: PlantModel):
    """Realized uncertainty sample h = x_next - A x_t - B u_t (training label)."""
    x_t = np.asarray(x_t, dtype=float)
    u_t = np.atleast_1d(np.asarray(u_t, dtype=float))
    x_next = np.asarray(x_next, dtype=float)
    return x_next - model.A @ x_t - model.B @ u_t


def residual_sweep(model: PlantModel, params: MooreGreitzerParams, samples: int,
                   substeps: int = 10, seed: Optional[int] = None,
                   region_scale: float = 1.0):
    """Truth residuals over a low-discrepancy (or random) sweep of X x U.

    Returns an (samples, d) array of deviation-coordinate residuals.  With
    ``seed=None`` the sweep is the deterministic Halton sequence; a seed
    switches to pseudo-random points, e.g. fresh residuals to test a bound.
    ``region_scale`` shrinks the sweep box around the equilibrium; the
    resulting bound then only covers that operating region.
    """
    lo_x, hi_x = STATE_BOUNDS_ABS
    lo = np.concatenate([lo_x, [INPUT_BOUNDS_ABS[0]]])
    hi = np.concatenate([hi_x, [INPUT_BOUNDS_ABS[1]]])
    scale = np.broadcast_to(np.asarray(region_scale, dtype=float), (5,)).copy()
    if np.any(scale <= 0.0) or np.any(scale > 1.0):
        raise ValueError("region_scale entries must be in (0, 1]")
    if np.any(scale != 1.0):
        center = np.concatenate([model.x_eq, [model.u_eq]])
        lo = center + scale * (lo - center)
        hi = center + scale * (hi - center)
    if seed is None:
        pts = qmc.Halton(d=5, scramble=False).random(samples)
    else:
        pts = np.random.default_rng(seed).random((samples, 5))
    pts = lo + pts * (hi - lo)
    states_abs = pts[:, :4]
    inputs_abs = pts[:, 4]
    nxt = step_truth(states_abs, inputs_abs, params, substeps=substeps)
    x_dev = states_abs - model.x_eq
    u_dev = inputs_abs - model.u_eq
    nxt_dev = nxt - model.x_eq
    return nxt_dev - x_dev @ model.A.T - u_dev[:, None] @ model.B.T


def estimate_W(model: PlantModel, params: MooreGreitzerParams,
               samples: int = 4096, inflation: float = 1.1,
               substeps: int = 10, region_scale: float = 1.0) -> Polytope:
    """Axis-aligned uncertainty bound from a deterministic residual sweep.

    The per-component extrema over the Halton sweep of X x U are widened to
    include the origin and scaled by ``inflation`` about zero.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 sweep samples")
    res = residual_sweep(model, params, samples, substeps=substeps,
                         region_scale=region_scale)
    lo = inflation * np.minimum(res.min(axis=0), 0.0)
    hi = inflation * np.maximum(res.max(axis=0), 0.0)
    return Polytope.box(lo, hi)
