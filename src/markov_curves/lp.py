"""Dense two-phase simplex solver for sup-norm extremal problems.

Every linear program in this package has the shape

    maximize    f @ w
    subject to  G @ w <= 1        (M one-sided constraints, w free),

where ``w`` is the coefficient vector of a candidate polynomial and the
rows of ``G`` evaluate that polynomial (possibly rotated by a facet
phase) at sample points.  The feasible set contains ``w = 0``, so the
problem is always feasible and its value is nonnegative; it is
unbounded exactly when the sample set is too thin to pin down a
polynomial of the requested degree.

We solve the equivalent bounded problem

    minimize    sum(u)
    subject to  G.T @ u = f,   u >= 0,

with a dense tableau simplex.  Pricing is steepest-coefficient
(Dantzig) while the objective makes progress and falls back to Bland's
anti-cycling rule on stalls, which keeps the method finite under
degeneracy without paying Bland's crawl on every pivot.  Phase one
drives artificial variables out of the basis; a positive phase-one
optimum is reported as unboundedness, which in floats is no proof: the
degree-8 hcp_fit probes of cusp_2_5 and cusp_3_4 get it on bounded
problems.  The simplex multipliers of the optimal basis recover the
extremal coefficient vector ``w``, and the basic columns identify the
support constraints (the equioscillation set for interval problems).
The reported optimum is re-derived from a fresh factorization of the
final basis, so tableau drift cannot leak into results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
MAX_ITERATIONS = 200_000
# Consecutive non-improving pivots tolerated before Bland's rule kicks in.
STALL_LIMIT = 12


class SimplexError(Exception):
    """Base class for simplex solver failures."""


class UnboundedProblemError(SimplexError):
    """The sup-norm problem is unbounded (constraint set too thin)."""


class PivotLimitError(SimplexError):
    """The pivot budget was exhausted before reaching an optimum."""


@dataclass(frozen=True)
class SupNormSolution:
    """Optimum of ``max f @ w  s.t.  G @ w <= 1``.

    ``support`` lists the constraint rows active in the optimal basis,
    ``max_residual`` is the largest constraint violation of the
    recovered coefficient vector (nonnegative, ~0 at a clean optimum),
    and ``degenerate`` flags bases with zero-valued basic variables.
    """

    value: float
    coefficients: np.ndarray
    support: np.ndarray
    iterations: int
    max_residual: float
    degenerate: bool


def _pivot_loop(tableau, basis, costs, blocked, tol, budget, target=None):
    """Pivot in place until optimal; return the iteration count.

    ``blocked`` marks columns that may never enter (retired
    artificials).  ``target`` optionally stops early once the objective
    reaches it (used by phase one, whose optimum cannot go below zero).

    The loop takes the same pivots and computes the same bits as the
    textbook dense tableau: Dantzig's most negative reduced cost (first
    index on ties, NaN never eligible), Bland's first eligible column on
    stalls, the minimum ratio with the smallest basic index on ties, and
    the update ``tableau -= np.outer(column, pivot_row)``.  Only the numpy
    calls are fewer and cheaper, and they reuse buffers.  The update's BLAS
    k=1 product rounds each entry once, as ``np.outer`` does, and can
    differ only in the sign of a zero, which no comparison and no division
    here sees.  The reduced-cost product keeps the full tableau width on
    purpose: BLAS sums a narrower product in another order, and its last
    bits then differ.
    """
    m, width = tableau.shape
    n = width - 1
    body = tableau[:, :n]
    rhs = tableau[:, -1]
    barred = np.flatnonzero(blocked)
    reduced = np.empty(n)
    ratios = np.empty(m)
    other = np.empty(m)
    product = np.empty_like(tableau)
    iterations = 0
    bland = False
    stall = 0
    previous = np.inf
    while True:
        basic_costs = costs[basis]
        objective = float(basic_costs @ rhs)
        if target is not None and objective <= target:
            return iterations
        if objective < previous - tol * (1.0 + abs(previous)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        previous = objective

        np.matmul(basic_costs, body, out=reduced)
        np.subtract(costs, reduced, out=reduced)
        reduced[barred] = 0.0
        if bland:
            enter = int((reduced < -tol).argmax())
        else:
            enter = int(reduced.argmin())
            if math.isnan(reduced[enter]):
                # argmin stops at the first NaN, which may never enter.
                enter = int(np.where(reduced < -tol, reduced, np.inf)
                            .argmin())
        if not reduced[enter] < -tol:
            return iterations
        if iterations >= budget:
            raise PivotLimitError(
                f"no optimum after {iterations} pivots on a tableau of "
                f"{m} rows and {n} variable columns; problem may be badly "
                "scaled")
        column = tableau[:, enter]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > tol)
        # Same value as ratios.min(), NaN included, for a third the time.
        best = float(ratios[ratios.argmin()])
        if not best < np.inf:
            # Both phases are bounded below, so this is tableau drift, not
            # unboundedness.  Reached by markov_factor on cusp_2_3, n=12,
            # eps=0.0625, density 1500 (HiGHS solves it: 165890.29).
            raise SimplexError(
                "entering column has no positive pivot: numerical "
                "breakdown of the tableau; more sample points will not "
                "fix it")
        ties = ratios <= best + tol * (1.0 + abs(best))
        leave = int(np.where(ties, basis, width).argmin())
        tableau[leave] /= tableau[leave, enter]
        np.copyto(other, column)
        other[leave] = 0.0
        np.dot(other[:, None], tableau[leave][None, :], out=product)
        tableau -= product
        # Clamp roundoff in the basic solution column.
        np.maximum(rhs, 0.0, out=rhs)
        basis[leave] = enter
        iterations += 1


def solve_sup_norm_lp(constraints, objective):
    """Maximize ``objective @ w`` subject to ``constraints @ w <= 1``.

    Parameters
    ----------
    constraints : (M, N) array
        One-sided constraint rows ``g_j`` with right-hand side 1.
    objective : (N,) array
        Linear functional to maximize.

    Returns
    -------
    SupNormSolution

    Raises
    ------
    UnboundedProblemError
        If phase one ends above zero; see the module docstring.
    SimplexError
        If an entering column has no positive pivot (numerical breakdown
        of the tableau) or the final basis is singular.
    PivotLimitError
        If MAX_ITERATIONS pivots do not reach an optimum.
    """
    G = np.asarray(constraints, dtype=float)
    f = np.asarray(objective, dtype=float)
    if G.ndim != 2:
        raise ValueError("constraints must be a 2-d array")
    M, N = G.shape
    if f.shape != (N,):
        raise ValueError(f"objective has shape {f.shape}, expected ({N},)")

    # Equality system A @ u = b over u >= 0, A = G.T with sign-flipped
    # rows so that b >= 0.
    A = G.T.copy()
    b = f.astype(float).copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    scale = 1.0 + float(b.sum())

    full = np.empty((N, M + N), dtype=float)
    full[:, :M] = A
    full[:, M:] = np.eye(N)

    tableau = np.empty((N, M + N + 1), dtype=float)
    tableau[:, :M + N] = full
    tableau[:, -1] = b
    basis = np.arange(M, M + N)

    # Phase one: minimize the artificial total.  Artificials start
    # basic and may leave, but never re-enter.
    phase1 = np.zeros(M + N)
    phase1[M:] = 1.0
    blocked = np.zeros(M + N, dtype=bool)
    blocked[M:] = True
    tol = FEASIBILITY_TOL
    iters = _pivot_loop(tableau, basis, phase1, blocked, tol, MAX_ITERATIONS,
                        target=1e-14 * scale)
    infeasibility = float(phase1[basis] @ tableau[:, -1])
    if infeasibility > tol * scale:
        raise UnboundedProblemError(
            "objective is unbounded on the constraint set "
            f"(phase-one residual {infeasibility:.3e}); "
            "add sample points or lower the degree"
        )

    # Phase two: basic artificials keep cost zero and never re-enter, but
    # they can grow to a wrong basis (test_forward_solve_reaches_optimum).
    phase2 = np.zeros(M + N)
    phase2[:M] = 1.0

    w = np.zeros(N)
    value = 0.0
    residual = np.inf
    for attempt in range(4):
        iters += _pivot_loop(tableau, basis, phase2, blocked, tol,
                             MAX_ITERATIONS - iters)
        # Re-derive the solution from a fresh factorization of the
        # final basis; the pivoted tableau only chooses the basis.
        basis_matrix = full[:, basis]
        try:
            u = np.linalg.solve(basis_matrix, b)
            w = np.linalg.solve(basis_matrix.T, phase2[basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular optimal basis: {exc}") from exc
        w[flip] *= -1.0
        value = float(phase2[basis] @ u)
        residual = float(max(0.0, (G @ w).max(initial=0.0) - 1.0))
        if residual <= 10.0 * tol * (1.0 + abs(value)):
            break
        # Drift led to a not-quite-optimal basis: rebuild the tableau
        # exactly at this basis and keep pivoting.
        rebuilt = np.linalg.solve(basis_matrix,
                                  np.column_stack([full, b]))
        tableau[:] = rebuilt
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])

    support = np.sort(basis[basis < M])
    # The basis is unchanged since the last attempt solved for u.
    degenerate = bool(np.any(basis >= M) or np.any(np.abs(u) <= tol))
    return SupNormSolution(
        value=max(value, 0.0),
        coefficients=w,
        support=support,
        iterations=iters,
        max_residual=residual,
        degenerate=degenerate,
    )
