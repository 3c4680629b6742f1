"""Half-space polytope algebra used by the tube MPC machinery.

Everything here works on the H-representation {x : F x <= h}.  Supports,
Pontryagin differences and constraint-tightening margins reduce to small
dense linear programs, which keeps reachable-tube computations exact
without ever enumerating vertices or Minkowski sums.  The disturbance-
invariant terminal set is the constraint-admissible fixpoint; a base row
whose k-step candidate is implied stays implied at every later step
(Gilbert and Tan, IEEE TAC 1991; Kolmanovsky and Gilbert, Math. Probl.
Eng. 1998), so each step tests only the rows still live.
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
            self._cache["empty"] = self.is_empty_at(self.h)
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
        if P.is_empty():
            raise Infeasible("polytope is empty")
        lo, hi = box
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
        if P.is_empty():
            raise Infeasible("polytope is empty")
        lo, hi = box
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


def _nonredundant_rows(F, h, cand_F, cand_h, tol=1e-9):
    """Indices of candidate rows not implied by {Fx <= h}.

    Row i is implied when max cand_F[i]'x over {Fx <= h} is at most
    cand_h[i] + tol.  The candidates share one LP of independent sparse
    blocks, block i being {Fx <= h, cand_F[i]'x <= cand_h[i] + 1}: one call
    in place of one per row, whose cost is mostly wrapper overhead.  The
    cap keeps every block bounded and leaves any maximum below it exact.
    Every invariant set satisfies {Fx <= h} and each candidate row, so an
    infeasible block proves that none exists: that raises ``EmptyResult``.
    A failed LP keeps every row.
    """
    A = block_diag([np.vstack([F, d]) for d in cand_F], format="csc")
    b = np.concatenate([np.append(h, c + 1.0) for c in cand_h])
    res = _solve_lp(-cand_F.reshape(-1), A, b)
    if res.status == 2:
        raise EmptyResult("no disturbance-invariant set within constraints")
    if res.status != 0:
        return np.arange(cand_h.size)
    vals = np.einsum("ij,ij->i", cand_F, res.x.reshape(cand_F.shape))
    return np.flatnonzero(vals > cand_h + tol)


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

    The result Omega satisfies Omega subset X_t, K Omega subset U_t and
    A_cl Omega (+) W subset Omega.  Raises ``EmptyResult`` if no invariant
    set exists within the constraints.  A non-converged (iteration-capped)
    result is still sound: it is an intersection of necessary constraints,
    flagged via ``converged``.
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
    live = np.arange(base_h.size)
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        cand_h = base_h - w_margin
        live = live[_nonredundant_rows(F, h, dirs[live], cand_h[live])]
        if live.size == 0:
            converged = True
            break
        F = np.vstack([F, dirs[live]])
        h = np.concatenate([h, cand_h[live]])
        w_margin = w_margin + support_many(W, dirs)
        dirs = dirs @ A_cl

    omega = Polytope(F, h)
    if omega.is_empty():
        raise EmptyResult("no disturbance-invariant set within constraints")
    return InvariantSetResult(omega=omega, converged=converged, iterations=k)
