"""Half-space polytope algebra used by the tube MPC machinery.

Everything here works on the H-representation {x : F x <= h}.  Supports,
Pontryagin differences and constraint-tightening margins reduce to small
dense linear programs, which keeps reachable-tube computations exact
without ever enumerating vertices or Minkowski sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag


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
        P._cache["empty"] = bool(np.any(lo > hi))
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
        if "empty" not in self._cache:
            res = _solve_lp(np.zeros(self.dim), self.F, self.h)
            self._cache["empty"] = res.status == 2
        return self._cache["empty"]

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
    """Support function max_{x in P} d'x via a dense LP.

    Raises ``Unbounded`` if P is unbounded along ``direction`` and
    ``Infeasible`` if P is empty.
    """
    d = np.asarray(direction, dtype=float).reshape(-1)
    box = P._cache.get("box_bounds")
    if box is not None:
        lo, hi = box
        if np.any(lo > hi):
            raise Infeasible("polytope is empty")
        return float(np.where(d > 0, d * hi, d * lo).sum())
    res = _solve_lp(-d, P.F, P.h)
    if res.status == 3:
        raise Unbounded("support LP unbounded along %s" % d)
    if res.status == 2:
        raise Infeasible("polytope is empty")
    if res.status != 0:
        raise PolytopeError("support LP failed: %s" % res.message)
    return float(-res.fun)


def support_many(P: Polytope, directions: np.ndarray) -> np.ndarray:
    """Support values for each row of ``directions``."""
    directions = np.atleast_2d(directions)
    box = P._cache.get("box_bounds")
    if box is not None:
        lo, hi = box
        if np.any(lo > hi):
            raise Infeasible("polytope is empty")
        return np.where(directions > 0, directions * hi, directions * lo).sum(axis=1)
    return np.array([support(P, d) for d in directions])


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
    out = np.zeros((N + 1, normals.shape[0]))
    dirs = normals.copy()
    for i in range(1, N + 1):
        out[i] = out[i - 1] + support_many(W, dirs)
        dirs = dirs @ A_cl
    return out


def _capped_max(blocks, dirs, caps):
    """max dirs[i]'x s.t. A_i x <= b_i, dirs[i]'x <= caps[i], as one LP.

    ``blocks`` holds one (A_i, b_i) per row of ``dirs``.  The blocks share
    no variable, so each block's optimum is that of its own LP, and one
    call replaces len(dirs) calls whose cost is mostly wrapper overhead.
    The constraint matrix is sparse, so its size grows with the blocks'
    entries, not with their number squared.  The cap keeps every block
    bounded; a value is the uncapped maximum whenever that lies below the
    cap.  Returns the LP status and, if it is 0, the values dirs[i]'x_i.
    """
    A = block_diag([np.vstack([A_i, d]) for (A_i, _), d in zip(blocks, dirs)],
                   format="csc")
    b = np.concatenate([np.append(b_i, c)
                        for (_, b_i), c in zip(blocks, caps)])
    res = _solve_lp(-dirs.reshape(-1), A, b)
    if res.status != 0:
        return res.status, None
    return 0, np.einsum("ij,ij->i", dirs, res.x.reshape(dirs.shape))


def _nonredundant_rows(F, h, cand_F, cand_h, tol=1e-9):
    """Indices of candidate rows not implied by {Fx <= h}.

    All candidates share one block LP.  Every invariant set satisfies
    {Fx <= h} and each candidate row, so an infeasible block (a candidate,
    relaxed by its cap, cutting {Fx <= h} to nothing) proves that none
    exists: that raises ``EmptyResult``.  A failed LP keeps every row.
    """
    n = cand_h.size
    status, vals = _capped_max([(F, h)] * n, cand_F, cand_h + 1.0)
    if status == 2:
        raise EmptyResult("no disturbance-invariant set within constraints")
    if status != 0:
        return list(range(n))
    return list(np.flatnonzero(vals > cand_h + tol))


def prune_redundant(P: Polytope) -> Polytope:
    """Drop facets implied by the remaining ones.

    Rows are tested in order, each against the rows still kept.  A row not
    implied by all the other rows is not implied by any subset of them, so
    block LPs first find those rows, and only the others need the
    sequential test.  A block LP over all rows would be one call, but HiGHS
    takes about 15 MiB to solve it for Omega's 108 rows; blocks of 10 rows
    take about 1 MiB.
    """
    F, h = P.F, P.h
    n = F.shape[0]
    flagged = np.ones(n, dtype=bool)
    for start in range(0, n, 10):
        rows = np.arange(start, min(start + 10, n))
        status, vals = _capped_max(
            [(np.delete(F, i, axis=0), np.delete(h, i)) for i in rows],
            F[rows], h[rows] + 1.0)
        if status == 0:
            flagged[rows] = vals <= h[rows] + LP_TOL
    keep = np.ones(n, dtype=bool)
    for i in np.flatnonzero(flagged):
        if keep.sum() == 1:
            break
        keep[i] = False
        res = _solve_lp(-F[i], F[keep], h[keep])
        if not (res.status == 0 and -res.fun <= h[i] + LP_TOL):
            keep[i] = True
    return Polytope(F[keep], h[keep])


@dataclass(frozen=True)
class InvariantSetResult:
    omega: Polytope
    converged: bool
    iterations: int


def max_invariant_set(A_cl, X_t: Polytope, U_t: Polytope, K, W: Polytope,
                      max_iter: int = 200) -> InvariantSetResult:
    """Disturbance-invariant terminal set inside tightened constraints.

    Runs the constraint-admissible-set fixpoint: starting from the rows
    {x in X_t, K x in U_t}, keeps adding their k-step robust pre-images

        f' A_cl^k x <= h - sum_{j<k} sigma_W((A_cl^T)^j f)

    until every new row is redundant.  The result Omega satisfies
    Omega subset X_t, K Omega subset U_t and A_cl Omega (+) W subset Omega.
    Raises ``EmptyResult`` if no invariant set exists within the constraints.
    A non-converged (iteration-capped) result is still sound: it is an
    intersection of necessary constraints, flagged via ``converged``.
    """
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    _require_schur(A_cl)

    base_F = np.vstack([X_t.F, U_t.F @ K])
    base_h = np.concatenate([X_t.h, U_t.h])
    F, h = base_F.copy(), base_h.copy()

    dirs = base_F @ A_cl           # normals of level-k rows, k = 1, 2, ...
    w_margin = support_many(W, base_F)
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        cand_h = base_h - w_margin
        keep = _nonredundant_rows(F, h, dirs, cand_h)
        if not keep:
            converged = True
            break
        F = np.vstack([F, dirs[keep]])
        h = np.concatenate([h, cand_h[keep]])
        w_margin = w_margin + support_many(W, dirs)
        dirs = dirs @ A_cl

    omega = Polytope(F, h)
    if omega.is_empty():
        raise EmptyResult("no disturbance-invariant set within constraints")
    omega = prune_redundant(omega)
    return InvariantSetResult(omega=omega, converged=converged, iterations=k)
