"""Moore-Greitzer compressor surge model and its uncertain linear abstraction.

The truth model is the 4-state continuous-time compressor (mass flow z,
pressure rise y, throttle opening r and its rate) driven through a
second-order throttle actuator.  The controller sees an exact zero-order-hold
discretization of the Jacobian linearization around the surge equilibrium;
whatever the linear model misses shows up as the bounded residual that the
oracle has to learn.  Its bound W comes from a sweep of the operating box at
the first points of the unscrambled Halton sequence in bases 2, 3, 5, 7 and
11 (Halton, Numer. Math. 1960), which are scipy's unscrambled Halton points
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import expm

from ._memo import memoized
from .polytope import Polytope


class PlantError(Exception):
    pass


class DomainError(PlantError):
    """State left the numerical domain of the vector field."""


class NotEquilibrium(PlantError):
    """Claimed equilibrium has a non-negligible residual."""


class NotStabilizable(PlantError):
    """(A, B) fails the PBH stabilizability test."""


# Surge equilibrium at z = 0.5 from the field's relations, whatever the plant
# constants: the compressor characteristic y = 1 + 1.5 z - 0.5 z^3, the
# throttle z + 1 = r sqrt(y) and the actuator at rest, r = u.
_Z_EQ = 0.5
_Y_EQ = 1.0 + 1.5 * _Z_EQ - 0.5 * (_Z_EQ * _Z_EQ * _Z_EQ)
U_EQ = (_Z_EQ + 1.0) / math.sqrt(_Y_EQ)
X_EQ = np.array([_Z_EQ, _Y_EQ, U_EQ, 0.0])

# Operating box about (X_EQ, U_EQ): half-widths of z, y, r, rdot and u.
HALF_WIDTHS = np.array([0.5, 0.5, 1.0, 20.0, 1.0])

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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and positive" % name)


def _field(params: MooreGreitzerParams, u, rows: bool):
    """The vector field f(z, y, r, rdot) -> (dz, dy, dr, drdot) at input
    ``u``, over Python floats for one state or over numpy arrays (``rows``)
    for a batch.

    Only the DomainError guard and the square root differ by type, so both
    give the same bits.  A batch's guard is one fmax and one fmin reduction
    per column (fmin alone for y < 0), which skip NaNs, so it gives each
    row's verdict: a NaN passes, as a comparison with it is false, but does
    not hide a huge or negative entry elsewhere in its column; an all-NaN
    or empty column reduces to its -inf or inf start and passes.  The
    throttle flow is r*sqrt(y), the reading under which (X_EQ, U_EQ) is an
    equilibrium.  The cube is the product z*z*z: two correctly rounded
    multiplications, the same on floats as on arrays (a power routine may
    round differently between its scalar and SIMD loops).
    """
    b2 = params.beta ** 2
    wn2 = params.omega_n ** 2
    damp = 2.0 * params.zeta * params.omega_n
    sqrt = np.sqrt if rows else math.sqrt

    def f(z, y, r, rd):
        if rows:
            outside = any(
                np.fmax.reduce(c, axis=None, initial=-np.inf) > _DOMAIN_GUARD
                or np.fmin.reduce(c, axis=None, initial=np.inf) < -_DOMAIN_GUARD
                for c in (z, y, r, rd))
            negative = np.fmin.reduce(y, axis=None, initial=np.inf) < 0.0
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
        z1, y1, r1, d1 = f(z, y, r, rd)
        z2, y2, r2, d2 = f(z + a * z1, y + a * y1, r + a * r1, rd + a * d1)
        z3, y3, r3, d3 = f(z + a * z2, y + a * y2, r + a * r2, rd + a * d2)
        z4, y4, r4, d4 = f(z + h * z3, y + h * y3, r + h * r3, rd + h * d3)
        z = z + c * (z1 + 2.0 * z2 + 2.0 * z3 + z4)
        y = y + c * (y1 + 2.0 * y2 + 2.0 * y3 + y4)
        r = r + c * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        rd = rd + c * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
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
    """State and input sets in deviation coordinates: the operating box
    -HALF_WIDTHS <= (x, u) <= HALF_WIDTHS."""
    half_x, half_u = HALF_WIDTHS[:4], HALF_WIDTHS[4:]
    return Polytope.box(-half_x, half_x), Polytope.box(-half_u, half_u)


@memoized
def linearize_discretize(params: MooreGreitzerParams, x_e=X_EQ,
                         u_e=U_EQ) -> PlantModel:
    """Exact-ZOH discrete model around an equilibrium, with constraint sets.

    The equilibrium claim is verified (residual < 1e-6) before the Jacobians
    are trusted; discretization uses the augmented matrix exponential
    [[A_c, B_c], [0, 0]] so there is no discretization-order error.  Raises
    ``PlantError`` when the field's constants or that exponential overflow.
    Memoized by its arguments' content: returns a shared, read-only result.
    """
    # a copy: the model keeps it, and the memo makes the model read-only
    x_e = np.array(x_e, dtype=float)
    try:
        resid = mg_rhs(x_e, u_e, params)
    except OverflowError as exc:  # beta ** 2 or omega_n ** 2
        raise PlantError("plant constants overflow the vector field") from exc
    if np.linalg.norm(resid, ord=np.inf) >= 1e-6:
        raise NotEquilibrium("equilibrium residual %.3g" % np.linalg.norm(resid, np.inf))
    A_c, B_c = mg_jacobians(params, x_e, u_e)
    d, m = A_c.shape[0], B_c.shape[1]
    aug = np.zeros((d + m, d + m))
    aug[:d, :d] = A_c
    aug[:d, d:] = B_c
    M = expm(aug * params.T)
    if not np.isfinite(M).all():
        raise PlantError("ZOH exponential not finite at T = %g" % params.T)
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


def _halton(n: int, bases) -> np.ndarray:
    """The first ``n`` points of the unscrambled Halton sequence in ``bases``,
    an (n, len(bases)) array.

    Each column is the van der Corput sequence in its base, built as
    scipy's unscrambled Halton sampler builds it, so the bits are the
    same: from the least significant digit up, adding digit * b2r with b2r
    starting at 1/base and divided by the base after each digit.  A point
    whose digits have run out adds 0.0, which leaves it as it is.  The
    indices are floats; floor(q / base) and the digit are exact while the
    indices stay far below 2**52 / base.  The array is column-major, as
    scipy's is, so the sweep's RK4 reads each coordinate contiguously.
    """
    idx = np.arange(n, dtype=float)
    pts = np.zeros((n, len(bases)), order="F")
    for col, base in zip(pts.T, bases):
        q, b2r = idx, 1.0 / base
        while n and q[-1] > 0.0:
            quot = np.floor(q / base)
            col += (q - quot * base) * b2r
            b2r /= base
            q = quot
    return pts


def residual_sweep(model: PlantModel, params: MooreGreitzerParams, samples: int,
                   substeps: int = 10, seed: Optional[int] = None,
                   region_scale: float = 1.0):
    """Truth residuals over a low-discrepancy (or random) sweep of X x U.

    Returns an (samples, d) array of deviation-coordinate residuals.  With
    ``seed=None`` the points are the first ``samples`` points of the
    unscrambled Halton sequence in bases 2, 3, 5, 7 and 11, scipy's
    unscrambled Halton points bit for bit; a seed switches to pseudo-random
    points, e.g. fresh residuals to test a bound.
    The box is (x_eq, u_eq) +- ``region_scale`` * HALF_WIDTHS; a bound from
    a scale below 1 only covers that smaller operating region.
    """
    scale = np.broadcast_to(np.asarray(region_scale, dtype=float), (5,))
    if np.any(scale <= 0.0) or np.any(scale > 1.0):
        raise ValueError("region_scale entries must be in (0, 1]")
    center = np.concatenate([model.x_eq, [model.u_eq]])
    if seed is None:
        pts = _halton(samples, (2, 3, 5, 7, 11))
    else:
        pts = np.random.default_rng(seed).random((samples, 5))
    pts = center + (2.0 * pts - 1.0) * (scale * HALF_WIDTHS)
    states_abs = pts[:, :4]
    inputs_abs = pts[:, 4]
    nxt = step_truth(states_abs, inputs_abs, params, substeps=substeps)
    x_dev = states_abs - model.x_eq
    u_dev = inputs_abs - model.u_eq
    nxt_dev = nxt - model.x_eq
    return nxt_dev - x_dev @ model.A.T - u_dev[:, None] @ model.B.T


@memoized
def estimate_W(model: PlantModel, params: MooreGreitzerParams,
               samples: int = 4096, inflation: float = 1.1,
               substeps: int = 10, region_scale: float = 1.0) -> Polytope:
    """Axis-aligned uncertainty bound from a deterministic residual sweep.

    The per-component extrema over the Halton sweep of X x U are widened to
    include the origin and scaled by ``inflation`` about zero.  Memoized by
    its arguments' content: returns a shared, read-only result.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 sweep samples")
    res = residual_sweep(model, params, samples, substeps=substeps,
                         region_scale=region_scale)
    lo = inflation * np.minimum(res.min(axis=0), 0.0)
    hi = inflation * np.maximum(res.max(axis=0), 0.0)
    return Polytope.box(lo, hi)
