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
The points where earlier walks ended form a pool; pulled into the current
set along the segment to that fixed point, a pool point that violates a
row proves the row is kept without a walk, and otherwise the best one is
where the walk starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linprog


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

# Spectral radius must stay below 1 - SCHUR_TOL.
SCHUR_TOL = 1e-8


def _solve_lp(c, F, h):
    """min c'x s.t. Fx <= h with free variables; returns the scipy result."""
    return linprog(c, A_ub=F, b_ub=h, bounds=(None, None), method="highs")


@dataclass(frozen=True)
class Polytope:
    """Convex polytope {x : F x <= h} with facet normals as rows of F."""

    F: np.ndarray
    h: np.ndarray

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
        object.__setattr__(self, "_cache", {})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def box(lo, hi) -> "Polytope":
        """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        d = lo.size
        eye = np.eye(d)
        F = np.vstack([eye, -eye])
        h = np.concatenate([hi, -lo])
        P = Polytope(F, h)
        P._cache["box_bounds"] = (lo.copy(), hi.copy())
        return P

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @property
    def num_facets(self) -> int:
        return self.F.shape[0]

    # -- predicates --------------------------------------------------------

    def contains(self, x, tol: float = LP_TOL) -> bool:
        """True iff F x <= h + tol elementwise."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError("dimension mismatch")
        return bool(np.all(self.F @ x <= self.h + tol))

    def is_empty(self) -> bool:
        return self.is_empty_at(self.h)

    def is_empty_at(self, h) -> bool:
        """True iff {x : F x <= h} is empty, for offsets ``h`` in place of self.h.

        A box's rows are [I; -I], so with other offsets it is the box
        [-h[d:], h[:d]], decided without an LP.  Its lower end may exceed its
        upper end by up to 1e-7, HiGHS' default primal feasibility tolerance,
        so that the verdict is the LP's.
        """
        h = np.asarray(h, dtype=float).reshape(-1)
        if "box_bounds" in self._cache:
            d = self.dim
            return bool(np.any(-h[d:] > h[:d] + 1e-7))
        return _solve_lp(np.zeros(self.dim), self.F, h).status == 2

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
    row.  Raises ``Unbounded`` if P is unbounded along a row and
    ``Infeasible`` if P is empty.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    box = P._cache.get("box_bounds")
    if box is not None:
        if P.is_empty():
            raise Infeasible("polytope is empty")
        lo, hi = box
        return np.where(directions > 0, directions * hi, directions * lo).sum(axis=1)
    out = np.empty(len(directions))
    for k, d in enumerate(directions):
        res = _solve_lp(-d, P.F, P.h)
        if res.status == 3:
            raise Unbounded("support LP unbounded along %s" % d)
        if res.status == 2:
            raise Infeasible("polytope is empty")
        if res.status != 0:
            raise PolytopeError("support LP failed: %s" % res.message)
        out[k] = -res.fun
    return out


def pontryagin_diff(P: Polytope, S: Polytope) -> Polytope:
    """Exact Pontryagin difference P (-) S for H-rep P.

    The result is {x : F x <= h - sigma_S(F)} with sigma_S the support
    function of S evaluated at every facet normal of P.  Raises
    ``EmptyResult`` if the tightened set is empty.
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


def _solve(A, b):
    """A^-1 b by LAPACK's dgesv, the routine under np.linalg.solve and
    np.linalg.inv, without their wrappers; a singular A raises
    LinAlgError as they do."""
    x, info = lapack.dgesv(A, b)[2:]
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _split(c, G, active):
    """Multipliers of c on the active rows of G, and the part of c in their
    null space.

    The null-space part comes from an orthonormal basis, so it is accurate
    relative to its own size, not to c's: a step along it stays on the
    active rows however small it is.  The basis is the complete Q of the
    active rows' QR, built by dgeqrf and dorgqr as np.linalg.qr(...,
    mode="complete") builds it, and the multipliers solve R lam = Q'c by
    dgesv as np.linalg.solve does; Q is copied to C order first, so that
    the products with it round as they do with numpy's Q.  This is bit for
    bit the numpy computation at a fraction of its wrapper cost.
    """
    if not active:
        return np.empty(0), c
    k = len(active)
    qr, tau = lapack.dgeqrf(G[active].T)[:2]
    a = np.empty((G.shape[1],) * 2, order="F")
    a[:, :k] = qr
    Q = np.ascontiguousarray(lapack.dorgqr(a, tau, overwrite_a=1)[0])
    z = Q.T @ c
    return _solve(np.triu(qr[:k]), z[:k]), Q[:, k:] @ z[k:]


def _lp_max(c, F, h, x, max_steps=None, stop=np.inf):
    """Maximize c'x over {F x <= h} by a primal active-set walk from ``x``.

    ``x`` must be feasible; a row it violates by a rounding error blocks the
    first step it would cross.  Each step moves along c projected onto the
    null space of the active rows, up to the first row it would cross.  Rows
    are scaled to unit norm, so that ratio test is relative to each row's
    length and the step's, however fast the rows' scales decay.  Where the
    projected c vanishes, c is a combination of the active rows: with no
    negative multiplier the point is optimal (a vertex or, with fewer than
    dim active rows, a face), otherwise the row with the most negative one
    is dropped.  After a degenerate (zero-length) step the dropped and the
    entering row are the lowest-indexed candidates (Bland's rule), which
    cannot cycle.

    Returns ``(status, x)`` with linprog's codes: 0 optimal, 1 step cap
    (default 2 (rows + dim)) reached, 3 unbounded; ``x`` is the last point.
    The objective rises with every step, so a walk that reaches c'x > stop
    ends there with status 0: the maximum exceeds ``stop``, which is all a
    redundancy test needs to know.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", F, F))
    G, g = F / norms[:, None], h / norms
    n = G.shape[1]
    eye = np.eye(n)
    if max_steps is None:
        max_steps = 2 * (G.shape[0] + n)
    tol = 1e-12 * np.sqrt(c @ c)
    zero_slack = 1e-14 * (1.0 + np.abs(g).max())
    x = np.array(x, dtype=float)
    active = []
    bland = False
    steps = 0
    while True:
        if len(active) == n:
            # a vertex: D's columns are the edge directions, A D = I
            D = _solve(G[active], eye)
            lam, p = c @ D, None
        else:
            lam, p = _split(c, G, active)
        if p is None or p @ p <= tol * tol:
            neg = np.flatnonzero(lam < -tol)
            if neg.size == 0:
                return 0, x
            if bland:
                j = min(neg, key=active.__getitem__)
            else:
                j = neg[np.argmin(lam[neg])]
            del active[j]
            p = -D[:, j] if p is None else _split(c, G, active)[1]
        if steps == max_steps:
            return 1, x
        Gp = G @ p
        blocking = Gp > 1e-12 * np.sqrt(p @ p)
        blocking[active] = False
        rows = np.flatnonzero(blocking)
        if rows.size == 0:
            return 3, x
        slack = g[rows] - G[rows] @ x
        slack[slack <= zero_slack] = 0.0
        t = slack / Gp[rows]
        i = np.argmin(t)  # the first of equal ratios: the lowest row
        x = x + t[i] * p
        active.append(rows[i])
        bland = bland or t[i] == 0.0
        steps += 1
        if c @ x > stop:
            return 0, x


def _pull_in(Y, F, h, x):
    """Each row y of Y moved toward ``x`` until it lies in {F x <= h}.

    The set is convex and contains x, so x + theta (y - x) with
    theta = min(1, min over rows with F (y - x) > 0 of
    (h - F x) / (F (y - x))) is in it.  A row that x violates by a rounding
    error counts as having zero slack.
    """
    D = Y - x
    FD = D @ F.T
    slack = np.maximum(h - F @ x, 0.0)
    ratio = np.divide(slack, FD, out=np.full_like(FD, np.inf), where=FD > 0)
    theta = np.minimum(1.0, ratio.min(axis=1))
    return x + theta[:, None] * D


def _nonredundant_rows(F, h, cand_F, cand_h, x, pool):
    """Indices of candidate rows not implied by {Fx <= h}, a set containing x.

    Row i is implied when max cand_F[i]'x over {Fx <= h} is at most
    cand_h[i] + LP_TOL.  ``pool`` is a list of points where earlier walks
    ended, for kept and dropped rows alike; each is pulled into the set by
    ``_pull_in``.  A pulled point above cand_h[i] + LP_TOL is a feasible
    point that violates the row, which proves that a walk would keep it, so
    the row is kept without one.  Otherwise the walk starts from the pulled
    point highest along cand_F[i] if it is higher there than x, else from
    x, and its end point is appended to ``pool``.  A walk that stops
    unbounded or at its step cap keeps the row.
    """
    Y = _pull_in(np.reshape(pool, (-1, x.size)), F, h, x)
    at_x = cand_F @ x
    keep = []
    for i, (f, b) in enumerate(zip(cand_F, cand_h)):
        start = x
        if len(Y):
            vals = Y @ f
            j = np.argmax(vals)
            if vals[j] > b + LP_TOL:
                keep.append(i)
                continue
            if vals[j] > at_x[i]:
                start = Y[j]
        status, x_max = _lp_max(f, F, h, start, stop=b + LP_TOL)
        pool.append(x_max)
        Y = np.vstack([Y, x_max])
        if status != 0 or f @ x_max > b + LP_TOL:
            keep.append(i)
    return np.array(keep, dtype=int)


def _point_of(W: Polytope) -> np.ndarray:
    """A point of W: a box's centre, else the point of a feasibility LP."""
    box = W._cache.get("box_bounds")
    if box is not None:
        return 0.5 * (box[0] + box[1])
    res = _solve_lp(np.zeros(W.dim), W.F, W.h)
    if res.status == 2:
        raise Infeasible("polytope is empty")
    if res.status != 0:
        raise PolytopeError("feasibility LP failed: %s" % res.message)
    return res.x


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
    Omega is not empty.  The end points of all walks so far are pooled and,
    at each level, pulled toward xbar into the current set; a pulled point
    that violates a candidate row keeps it without a walk, and otherwise
    the highest one along the row starts the walk when it beats xbar (see
    ``_nonredundant_rows``).  The kept rows are those of walking every
    candidate from xbar.

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
    F, h = base_F.copy(), base_h.copy()

    # level-k normals and margins of every base row, k = 1, 2, ...; the
    # live rows are indexed out of them, so a chain's values do not depend
    # on which other chains are alive
    dirs = base_F @ A_cl
    w_margin = support_many(W, base_F)
    xbar = np.linalg.solve(np.eye(A_cl.shape[0]) - A_cl, _point_of(W))
    if np.any(base_F @ xbar > base_h + LP_TOL):
        raise EmptyResult("no disturbance-invariant set within constraints")
    live = np.arange(base_h.size)
    pool = []
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        cand_h = base_h - w_margin
        if np.any(dirs[live] @ xbar > cand_h[live] + LP_TOL):
            raise EmptyResult("no disturbance-invariant set within "
                              "constraints")
        live = live[_nonredundant_rows(F, h, dirs[live], cand_h[live], xbar,
                                       pool)]
        if live.size == 0:
            converged = True
            break
        F = np.vstack([F, dirs[live]])
        h = np.concatenate([h, cand_h[live]])
        w_margin = w_margin + support_many(W, dirs)
        dirs = dirs @ A_cl

    return InvariantSetResult(omega=Polytope(F, h), converged=converged,
                              iterations=k)
