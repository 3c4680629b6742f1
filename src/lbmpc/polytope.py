"""Half-space polytope algebra used by the tube MPC machinery.

Everything here works on the H-representation {x : F x <= h}.  Supports,
Pontryagin differences and constraint-tightening margins reduce to small
dense linear programs, which keeps reachable-tube computations exact
without ever enumerating vertices or Minkowski sums.  The disturbance-
invariant terminal set is the constraint-admissible fixpoint; a base row
whose k-step candidate is implied stays implied at every later step
(Gilbert and Tan, IEEE TAC 1991; Kolmanovsky and Gilbert, Math. Probl.
Eng. 1998), so each step tests only the rows still live.  Each test is a
tiny LP that a dense active-set walk decides exactly, from a point every
invariant set contains: the fixed point of x -> A_cl x + w for a w in W.
The points where earlier walks ended form a pool, carried from level to
level and pulled into each new level's rows along the segment to that
fixed point; a pool point that violates a row proves the row is kept
without a walk, and otherwise the best one is where the walk starts.
The package's other LPs (a support value or a point of a set that is not
a box, an emptiness test) are :func:`linprog`'s: a phase 1 of the same walk
finds a point of the set or shows it empty, and one more walk from that
point reaches the optimum; the supports of one set along many directions
share its phase 1.  scipy's LP solvers are not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack


class PolytopeError(Exception):
    """Base class for set-algebra failures."""


class Unbounded(PolytopeError):
    """The LP defining a support value is unbounded in the requested direction."""


class Infeasible(PolytopeError):
    """The polytope is empty."""


class EmptyResult(PolytopeError):
    """A set operation produced an empty polytope."""


class NotSchurStable(PolytopeError):
    """Closed-loop matrix has spectral radius too close to (or above) one."""


# Feasibility tolerance shared by the LP-based predicates.
LP_TOL = 1e-9

# A set {F x <= h} is empty when no point comes within EMPTY_TOL / 2 of every
# row at unit norm.  For a box that reads: empty when an end passes the
# other by more than EMPTY_TOL, however its rows are ordered.
EMPTY_TOL = 1e-7

# Spectral radius must stay below 1 - SCHUR_TOL.
SCHUR_TOL = 1e-8


def stacked_leq(lhs, rhs, one_row):
    """Per row of stacked tests ``lhs <= rhs``, whether all its entries hold.

    A stacked product can round differently from the one-row product of the
    same row in the last bit, since numpy's matrix and vector kernels sum in
    different orders.  So a row with an entry within 1e-12 of the edge,
    relative to the largest right side (at least 1; an entry that close has
    a left side of the same size), takes the verdict of ``one_row(i)``, the
    test of that row alone.  Every other row's verdict is clear of
    rounding, and a row with a NaN reads False either way.
    """
    ok = (lhs <= rhs).all(axis=-1)
    gap = rhs - lhs
    np.abs(gap, out=gap)
    band = 1e-12 * max(1.0, rhs.max(), -rhs.min())
    if gap.min() <= band:
        for i in np.flatnonzero((gap <= band).any(axis=-1)):
            ok[i] = one_row(i)
    return ok


@dataclass(frozen=True)
class Polytope:
    """Convex polytope {x : F x <= h} with facet normals as rows of F."""

    F: np.ndarray
    h: np.ndarray
    # read from the rows: exactly [I; -I] is the box [-h[d:], h[:d]]
    is_box: bool = field(init=False, repr=False)
    # a box whose ends cross, decided once, here (False for other sets)
    empty_box: bool = field(init=False, repr=False)

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        h = np.asarray(self.h, dtype=float).reshape(-1)
        if F.shape[0] != h.shape[0]:
            raise ValueError("F and h must have the same number of rows")
        if F.shape[0] < 1:
            raise ValueError("polytope needs at least one half-space")
        if np.any(np.all(F == 0.0, axis=1)):
            raise ValueError("zero rows in F are not allowed")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "h", h)
        eye = np.eye(F.shape[1])
        object.__setattr__(self, "is_box",
                           np.array_equal(F, np.vstack([eye, -eye])))
        object.__setattr__(self, "empty_box",
                           self.is_box and self.is_empty_at(h))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def box(lo, hi) -> "Polytope":
        """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        eye = np.eye(lo.size)
        return Polytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @property
    def num_facets(self) -> int:
        return self.F.shape[0]

    # -- predicates --------------------------------------------------------

    def contains(self, x, tol: float = LP_TOL):
        """True iff F x <= h + tol elementwise; a NaN entry reads False.

        One point (shape (dim,)) gives a bool, a stack of points (shape
        (n, dim)) one bool per row, each the bool of its point alone.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[x.ndim > 1:] != (self.dim,):
            raise ValueError("dimension mismatch")
        if x.ndim > 1:
            return stacked_leq(x @ self.F.T, self.h + tol,
                               lambda i: self.contains(x[i], tol))
        return bool((x @ self.F.T <= self.h + tol).all())

    def is_empty(self) -> bool:
        return self.is_empty_at(self.h)

    def is_empty_at(self, h) -> bool:
        """True iff {x : F x <= h} is empty, for offsets ``h`` in place of self.h.

        A box's rows are [I; -I], so with other offsets it is the box
        [-h[d:], h[:d]], decided without an LP: empty when a lower end
        exceeds its upper end by more than ``EMPTY_TOL``.  Any other set
        takes :func:`linprog`'s phase 1, whose verdict follows the same
        rule, and a step cap there raises ``PolytopeError``.
        """
        h = np.asarray(h, dtype=float).reshape(-1)
        if self.is_box:
            d = self.dim
            return bool(np.any(-h[d:] > h[:d] + EMPTY_TOL))
        return _feasible_point(self.F, h) is None

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        header = ",".join("f%d" % (i + 1) for i in range(self.dim)) + ",h"
        lines = [header]
        for row, off in zip(self.F, self.h):
            lines.append(",".join("%.17g" % v for v in row) + ",%.17g" % off)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TighteningData:
    """Constraint-tightening margins along the prediction horizon.

    ``state[i]`` (i = 0..N) holds the offset reductions for the state set at
    step i, ``inputs[i]`` (i = 0..N-1) for the input set, ``terminal`` for the
    terminal set at step N.  Margins are per facet row of the respective set.
    """

    state: np.ndarray     # (N+1, rows(X))
    inputs: np.ndarray    # (N, rows(U))
    terminal: np.ndarray  # (rows(Omega),)

    def __post_init__(self):
        for name, m in (("state", self.state), ("inputs", self.inputs)):
            if np.any(m < -LP_TOL):
                raise ValueError("%s margins must be non-negative" % name)
            if np.any(np.diff(m, axis=0) < -LP_TOL):
                raise ValueError("%s margins must be non-decreasing" % name)


def support(P: Polytope, direction) -> float:
    """Support function max_{x in P} d'x (see :func:`support_many`)."""
    d = np.asarray(direction, dtype=float)
    return float(support_many(P, d.reshape(1, -1))[0])


def support_many(P: Polytope, directions: np.ndarray) -> np.ndarray:
    """Support values max_{x in P} d'x for each row d of ``directions``.

    A box's are in closed form, any other polytope's are one dense LP per
    row, all from one :func:`linprog` phase 1, which does not depend on
    the objective: each value, and each error, is the one that row's own
    ``linprog`` call would give.  Raises ``Unbounded`` if P is unbounded
    along a row and ``Infeasible`` if P is empty.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if P.is_box:
        lo, hi = bounding_box(P)
        return np.where(directions > 0, directions * hi, directions * lo).sum(axis=1)
    out = np.empty(len(directions))
    if not len(out):
        return out
    # linprog checks its objective before the set
    _require_finite("c", directions[0])
    start = _phase1(P.F, P.h)
    for k, d in enumerate(directions):
        _require_finite("c", d)
        res = _phase2(-d, *start)
        if res.status == 3:
            raise Unbounded("support LP unbounded along %s" % d)
        if res.status == 2:
            raise Infeasible("polytope is empty")
        if res.status != 0:
            raise PolytopeError("support LP failed: %s" % res.message)
        out[k] = -res.fun
    return out


def bounding_box(P: Polytope):
    """(lo, hi) of the smallest axis-aligned box containing P.

    A box's are its own ends; any other polytope's are its supports along
    -e_i and e_i.  Raises ``Infeasible`` if P is empty.
    """
    if not P.is_box:
        eye = np.eye(P.dim)
        return -support_many(P, -eye), support_many(P, eye)
    if P.empty_box:
        raise Infeasible("polytope is empty")
    d = P.dim
    return -P.h[d:], P.h[:d].copy()


def pontryagin_diff(P: Polytope, S: Polytope) -> Polytope:
    """Exact Pontryagin difference P (-) S for H-rep P.

    The result is {x : F x <= h - sigma_S(F)} with sigma_S the support
    function of S evaluated at every facet normal of P, so a difference of
    boxes is a box.  Raises ``EmptyResult`` if the tightened set is empty.
    """
    margins = support_many(S, P.F)
    result = Polytope(P.F, P.h - margins)
    if result.is_empty():
        raise EmptyResult("Pontryagin difference is empty")
    return result


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float)))))


def _require_schur(A_cl: np.ndarray):
    rho = spectral_radius(A_cl)
    if rho >= 1.0 - SCHUR_TOL:
        raise NotSchurStable("spectral radius %.6g >= 1 - %g" % (rho, SCHUR_TOL))


def tube_margins(A_cl, W: Polytope, constraint_normals, N: int) -> np.ndarray:
    """Tightening margins for the reachable tube R_i of the error dynamics.

    The tube satisfies R_{i+1} = A_cl R_i (+) W with R_0 = {0}, so the offset
    reduction of a facet normal f at step i is

        margin_i(f) = sum_{k=0}^{i-1} sigma_W((A_cl^T)^k f),

    which is exact without building any R_i.  Returns an (N+1, rows) array;
    row 0 is all zeros.
    """
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    _require_schur(A_cl)
    normals = np.atleast_2d(np.asarray(constraint_normals, dtype=float))
    rows, n = normals.shape
    # all stages' directions in one buffer and one support call; the running
    # sum starts from a zero row, so margin_i = margin_{i-1} + sigma_W(...)
    # is evaluated in the formula's order, bit for bit
    dirs = np.empty((N, rows, n))
    if N:
        dirs[0] = normals
    for i in range(1, N):
        np.matmul(dirs[i - 1], A_cl, out=dirs[i])
    sums = np.zeros((N + 1, rows))
    sums[1:] = support_many(W, dirs.reshape(N * rows, n)).reshape(N, rows)
    return np.cumsum(sums, axis=0)


def _split(c, G, active):
    """Multipliers of c on the active rows of G, and the part of c in their
    null space: the one factorization behind every step of :func:`_walk`.

    The null-space part comes from an orthonormal basis, so it is accurate
    relative to its own size, not to c's: a step along it stays on the
    active rows however small it is.  With dim active rows (a vertex) the
    null space is empty and the part is a zero vector.  The basis is the
    complete Q of the active rows' QR, built by dgeqrf and dorgqr as
    np.linalg.qr(..., mode="complete") builds it; Q is copied to C order
    first, so that the products with it round as they do with numpy's Q.
    The multipliers solve R lam = Q'c by one dtrtrs on the upper triangle
    that dgeqrf leaves in place.  np.linalg.solve's dgesv would factor R as
    L = I, U = R (every entry below a pivot is zero) and then run the same
    triangular solve, so this is bit for bit the numpy computation at a
    fraction of its wrapper cost; a zero on R's diagonal (dependent active
    rows) raises LinAlgError as dgesv's does.
    """
    if not active:
        return np.empty(0), c
    k = len(active)
    qr, tau = lapack.dgeqrf(G.take(active, axis=0).T)[:2]
    a = np.empty((G.shape[1],) * 2, order="F")
    a[:, :k] = qr
    Q = np.ascontiguousarray(lapack.dorgqr(a, tau, overwrite_a=1)[0])
    z = Q.T @ c
    lam, info = lapack.dtrtrs(qr[:k], z[:k])
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return lam, Q[:, k:] @ z[k:]


def _unit_rows(F, h):
    """The rows of {F x <= h} scaled to unit norm: the same set."""
    norms = np.sqrt(np.einsum("ij,ij->i", F, F))
    return F / norms[:, None], h / norms


def _walk(c, G, g, x, max_steps=None, stop=np.inf):
    """Maximize c'x over {G x <= g} by a primal active-set walk from ``x``.

    The rows of G have unit norm (see :func:`_unit_rows`), so the ratio
    test is relative to each row's length and the step's, however fast the
    rows' scales decay.  ``x`` must be feasible; a row it violates by a
    rounding error blocks the first step it would cross.  Every step takes
    the multipliers of c on the active rows and c's part in their null
    space from one :func:`_split`, and moves along that part up to the
    first row it would cross: the slacks g - G x are formed once, divided
    by G p where the step moves toward a row, and the least ratio wins.
    Where the part vanishes (always at a vertex), c is a combination of
    the active rows: with no negative multiplier the point is optimal,
    otherwise the lowest-indexed active row with a negative multiplier is
    dropped and the step moves along c's part in the remaining rows' null
    space.  Entering rows are the lowest-indexed of equal ratios, so both
    choices follow Bland's rule (Math. Oper. Res. 1977), which cannot
    cycle on degenerate (zero-length) steps.

    Returns ``(status, x)`` with linprog's codes: 0 optimal, 1 ``max_steps``
    reached (by default twice rows plus dim), 3 unbounded; ``x`` is the last
    point.  The objective rises with every step, so a walk that reaches
    c'x > stop ends there with status 0: the maximum exceeds ``stop``,
    which is all a redundancy test needs to know.
    """
    n = G.shape[1]
    if max_steps is None:
        max_steps = 2 * (G.shape[0] + n)
    tol = 1e-12 * math.sqrt(c @ c)
    zero_slack = 1e-14 * (1.0 + np.abs(g).max())
    x = np.array(x, dtype=float)
    active = []
    steps = 0
    while True:
        lam, p = _split(c, G, active)
        if p @ p <= tol * tol:
            neg = np.flatnonzero(lam < -tol)
            if neg.size == 0:
                return 0, x
            del active[min(neg, key=active.__getitem__)]
            p = _split(c, G, active)[1]
        if steps == max_steps:
            return 1, x
        Gp = G @ p
        blocking = Gp > 1e-12 * math.sqrt(p @ p)
        blocking.put(active, False)
        slack = g - G @ x
        slack[slack <= zero_slack] = 0.0
        t = np.divide(slack, Gp, out=np.full_like(Gp, np.inf),
                      where=blocking)
        i = t.argmin()  # the first of equal ratios: the lowest row
        if t[i] == np.inf:  # no row blocks the step
            return 3, x
        x = x + t[i] * p
        active.append(i)
        steps += 1
        if c @ x > stop:
            return 0, x


@dataclass(frozen=True)
class LpResult:
    """:func:`linprog`'s outcome, with scipy's field names and status codes."""

    status: int
    x: np.ndarray
    fun: float
    message: str


_LP_MESSAGES = ("Optimal.", "Step cap reached.", "The problem is infeasible.",
                "The problem is unbounded.")


def linprog(c, A_ub, b_ub):
    """min c'x s.t. A_ub x <= b_ub over free x, by two :func:`_walk` runs.

    With G x <= g the rows at unit norm, phase 1 maximizes -s over
    {G x - s <= g, s >= -1} from x = 0, s = max(0, -min g), a point of that
    set, and stops at the first s < 0, a point inside {G x <= g}.  Where
    the least s exceeds ``EMPTY_TOL`` / 2 the set is empty (status 2): no
    point comes that close to every row, the rule a box's ends follow.
    Otherwise, for a nonzero c, a walk over G from phase 1's point reaches
    the optimum (0) or shows c'x unbounded below (3).  Either walk may stop
    at its step cap (1).  ``x`` is the last point and ``fun`` c'x there,
    an optimum only with status 0.

    Non-finite data raises ValueError, as scipy's linprog does, and so does
    a zero row of A_ub.
    """
    c = np.asarray(c, dtype=float)
    _require_finite("c", c)
    return _phase2(c, *_phase1(A_ub, b_ub))


def _require_finite(name, a):
    if not np.isfinite(a).all():
        raise ValueError("linprog: %s must not contain inf or nan" % name)


def _phase1(A_ub, b_ub):
    """(status, x, G, g): :func:`linprog`'s checks of the set and its
    phase 1, with status 0 (x in the set), 1 (step cap) or 2 (empty), and
    the rows G x <= g at unit norm."""
    F, h = (np.asarray(a, dtype=float) for a in (A_ub, b_ub))
    _require_finite("A_ub", F)
    _require_finite("b_ub", h)
    if not F.any(axis=1).all():
        raise ValueError("linprog: zero rows in A_ub are not allowed")
    G, g = _unit_rows(F, h)
    m, n = G.shape
    rows = np.zeros((m + 1, n + 1))
    rows[:m, :n] = G
    rows[:, n] = -1.0
    start = np.zeros(n + 1)
    start[n] = max(0.0, -g.min())
    down = np.zeros(n + 1)
    down[n] = -1.0
    status, xs = _walk(down, *_unit_rows(rows, np.append(g, 1.0)), start,
                       stop=0.0)
    if status == 0 and xs[n] > EMPTY_TOL / 2:
        status = 2
    return status, xs[:n], G, g


def _phase2(c, status, x, G, g):
    """:func:`linprog`'s result for objective c from phase 1's outcome."""
    if status == 0 and c.any():
        status, x = _walk(-c, G, g, x)
    return LpResult(status, x, float(c @ x), _LP_MESSAGES[status])


def _feasible_point(F, h):
    """A point of {F x <= h} from :func:`linprog`'s phase 1, None if the set
    is empty; a step cap raises ``PolytopeError``."""
    res = linprog(np.zeros(F.shape[1]), A_ub=F, b_ub=h)
    if res.status not in (0, 2):
        raise PolytopeError("feasibility LP failed: %s" % res.message)
    return res.x if res.status == 0 else None


def _pull_in(Y, F, h, x):
    """Each row y of Y moved toward ``x`` until it lies in {F x <= h}.

    The set is convex and contains x, so x + theta (y - x) with
    theta = min(1, min over rows with F (y - x) > 0 of
    (h - F x) / (F (y - x))) is in it.  A row that x violates by a rounding
    error counts as having zero slack.
    """
    V = Y - x
    FV = V @ F.T
    slack = np.maximum(h - F @ x, 0.0)
    ratio = np.divide(slack, FV, out=np.full_like(FV, np.inf), where=FV > 0)
    theta = np.minimum(1.0, ratio.min(axis=1))
    return x + theta[:, None] * V


def _nonredundant_rows(G, g, cand_F, cand_h, x, Y):
    """Indices of candidate rows not implied by {Gx <= g}, a set containing
    x whose rows have unit norm, and ``Y`` with the walks' end points
    appended.

    Row i is implied when max cand_F[i]'x over {Gx <= g} is at most
    cand_h[i] + LP_TOL.  The rows of ``Y`` are points of the set: where
    earlier walks ended, already pulled into it.  A point above
    cand_h[i] + LP_TOL is a feasible point that violates the row, which
    proves that a walk would keep it, so the row is kept without one.
    Otherwise the walk starts from the point highest along cand_F[i] if it
    is higher there than x, else from x, and its end point, which lies in
    the set, joins ``Y`` for the rows after it.  A walk that stops
    unbounded or at its step cap keeps the row.
    """
    at_x = cand_F @ x
    keep = []
    for i, (f, b) in enumerate(zip(cand_F, cand_h)):
        start = x
        if len(Y):
            vals = Y @ f
            j = vals.argmax()
            if vals[j] > b + LP_TOL:
                keep.append(i)
                continue
            if vals[j] > at_x[i]:
                start = Y[j]
        status, x_max = _walk(f, G, g, start, stop=b + LP_TOL)
        Y = np.vstack([Y, x_max])
        if status != 0 or f @ x_max > b + LP_TOL:
            keep.append(i)
    return np.array(keep, dtype=int), Y


def _point_of(W: Polytope) -> np.ndarray:
    """A point of W: a box's centre, else the point of a feasibility LP."""
    if W.is_box:
        return 0.5 * np.add(*bounding_box(W))
    x = _feasible_point(W.F, W.h)
    if x is None:
        raise Infeasible("polytope is empty")
    return x


@dataclass(frozen=True)
class InvariantSetResult:
    omega: Polytope
    converged: bool
    iterations: int


def max_invariant_set(A_cl, X_t: Polytope, U_t: Polytope, K, W: Polytope,
                      max_iter: int = 200) -> InvariantSetResult:
    """Disturbance-invariant terminal set inside tightened constraints.

    Runs the constraint-admissible-set fixpoint: starting from the base rows
    {x in X_t, K x in U_t}, keeps adding their k-step robust pre-images

        f' A_cl^k x <= h - sum_{j<k} sigma_W((A_cl^T)^j f)

    until no new row cuts the set.  Only live chains are tested (Gilbert and
    Tan, IEEE TAC 1991; Kolmanovsky and Gilbert, Math. Probl. Eng. 1998).
    Let O_k hold the rows of levels <= k.  For x in O_k, every A_cl x + w
    with w in W lies in O_{k-1}.  So if a base row's level-k candidate is
    implied by O_{k-1}, applying that at the w maximizing f' A_cl^k w shows
    its level-(k+1) candidate is implied by O_k, and the chain stays dead.
    Implied rows are not added, and no other row is dropped.

    Each test walks from xbar = (I - A_cl)^-1 wbar, for a point wbar of W
    (a box's centre).  Every nonempty closed invariant set S within the
    constraints contains xbar: from any x in S the iterates of
    x -> A_cl x + wbar stay in S and, A_cl being Schur, converge to xbar
    (Kolmanovsky and Gilbert 1998).  Every base and candidate row holds on
    such an S.  So a row that xbar violates by more than ``LP_TOL`` proves
    that no invariant set exists, and xbar satisfies every row kept, so
    Omega is not empty.  The end points of all walks so far are pooled as
    points of the current set; a pooled point that violates a candidate row
    keeps it without a walk, and otherwise the highest one along the row
    starts the walk when it beats xbar (see ``_nonredundant_rows``).  The
    pool is carried from level to level: after a level adds its rows, each
    point is pulled toward xbar along the segment between them, until it
    meets that level's new rows only (``_pull_in``).  That suffices: a
    pooled point lies in O_{k-1}, xbar lies in O_k, and the set is convex,
    so the whole segment keeps O_{k-1}'s rows.  The walks read the rows at
    unit norm, which are scaled once, when a level adds them.  The kept
    rows are those of walking every candidate from xbar.

    The result Omega satisfies Omega subset X_t, K Omega subset U_t and
    A_cl Omega (+) W subset Omega.  Raises ``EmptyResult`` if no invariant
    set exists within the constraints, at the first level with a row that
    xbar violates.  A non-converged (iteration-capped) result is an
    intersection of necessary constraints that contains every invariant
    set but need not be invariant itself; it is flagged via ``converged``.
    """
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    _require_schur(A_cl)

    base_F = np.vstack([X_t.F, U_t.F @ K])
    base_h = np.concatenate([X_t.h, U_t.h])
    # the rows of Omega, level by level
    F, h = [base_F], [base_h]

    # level-k normals and margins of every base row, k = 1, 2, ...; the
    # live rows are indexed out of them, so a chain's values do not depend
    # on which other chains are alive
    dirs = base_F @ A_cl
    w_margin = support_many(W, base_F)
    xbar = np.linalg.solve(np.eye(A_cl.shape[0]) - A_cl, _point_of(W))
    if np.any(base_F @ xbar > base_h + LP_TOL):
        raise EmptyResult("no disturbance-invariant set within constraints")
    live = np.arange(base_h.size)
    G, g = _unit_rows(base_F, base_h)
    Y = np.empty((0, xbar.size))
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        cand_F, cand_h = dirs[live], (base_h - w_margin)[live]
        if np.any(cand_F @ xbar > cand_h + LP_TOL):
            raise EmptyResult("no disturbance-invariant set within "
                              "constraints")
        keep, Y = _nonredundant_rows(G, g, cand_F, cand_h, xbar, Y)
        live = live[keep]
        if live.size == 0:
            converged = True
            break
        F.append(cand_F[keep])
        h.append(cand_h[keep])
        new_G, new_g = _unit_rows(F[-1], h[-1])
        G = np.vstack([G, new_G])
        g = np.concatenate([g, new_g])
        Y = _pull_in(Y, new_G, new_g, xbar)
        w_margin = w_margin + support_many(W, dirs)
        dirs = dirs @ A_cl

    return InvariantSetResult(omega=Polytope(np.vstack(F), np.concatenate(h)),
                              converged=converged, iterations=k)
