"""Dense simplex solver for sup-norm extremal problems.

Every linear program in this package has the shape

    maximize    f @ w
    subject to  |A @ w| <= 1      (M two-sided constraints, w free),

where ``w`` is the coefficient vector of a candidate polynomial and the
rows ``a_j`` of ``A`` evaluate that polynomial (possibly rotated by a
facet phase) at sample points.  The feasible set contains ``w = 0``, so
the problem is always feasible and its value is nonnegative; it is
unbounded exactly when the sample set is too thin to pin down a
polynomial of the requested degree.

We solve the equivalent bounded problem

    minimize    sum(u) + sum(v)
    subject to  A.T @ (u - v) = f,   u, v >= 0,

with a dense tableau simplex.  Column j of ``-A.T``, the one of
``v_j``, is the mirror of column j of ``A.T`` and stands for the
constraint ``-a_j @ w <= 1``.  Pricing is steepest-coefficient
(Dantzig) while the objective makes progress and falls back to Bland's
anti-cycling rule on stalls, which keeps the method finite under
degeneracy without paying Bland's crawl on every pivot.  The simplex
multipliers of the optimal basis recover the extremal coefficient
vector ``w``, and the basic columns identify the support constraints
(the equioscillation set for interval problems).  The reported optimum
is re-derived from a fresh factorization of the final basis, so tableau
drift cannot leak into results.

A problem of full column rank needs no phase one.  Given N independent
crash rows ``a_j``, solving ``A_S.T u = f`` and taking the mirror
wherever ``u_j < 0`` gives a basis whose basic solution is
``|u| >= 0``: phase two starts there.  The Siciak LPs pass such rows
(``markov_lp.ColumnReduction.crash_rows``).  Without them the solver
starts from artificials and drives them out in phase one, whose
positive optimum is reported as unboundedness; only ``markov_factor``
still takes that path.

The tableau keeps only the columns of ``A.T``.  A mirror column is the
exact negation of its column through every pivot: the row division and
the update's k=1 product commute with negation under round-to-nearest,
and so does the subtraction.  Storing the mirrors would add nothing but
work, and the solver takes the same pivots and computes the same bits
as on the stacked ``[A.T | -A.T]``, on half the tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve_model import NumericError

FEASIBILITY_TOL = 1e-9
MAX_ITERATIONS = 200_000
# Consecutive non-improving pivots tolerated before Bland's rule kicks in.
STALL_LIMIT = 12


class SimplexError(NumericError):
    """Base class for simplex solver failures."""


class UnboundedProblemError(SimplexError):
    """The sup-norm problem is unbounded (constraint set too thin)."""


class PivotLimitError(SimplexError):
    """The pivot budget was exhausted before reaching an optimum."""


@dataclass(frozen=True)
class SupNormSolution:
    """Optimum of ``max f @ w  s.t.  |A @ w| <= 1``.

    ``support`` lists the constraints active in the optimal basis: j
    where ``a_j @ w = 1`` and its mirror ``M + j`` where
    ``a_j @ w = -1``.  ``max_residual`` is the largest violation of
    ``|A @ w| <= 1`` by the recovered coefficient vector (nonnegative,
    ~0 at a clean optimum), and ``degenerate`` flags bases with
    zero-valued basic variables.
    """

    value: float
    coefficients: np.ndarray
    support: np.ndarray
    iterations: int
    max_residual: float
    degenerate: bool


def _pivot_loop(tableau, basis, costs, tol, budget, target=None):
    """Pivot in place until optimal; return the iteration count.

    ``tableau`` is ``[C | I | b]`` on m rows: k constraint columns, the
    m artificial columns, then the basic solution.  It stands for
    ``[C | -C | I | b]``: mirror column ``k + j`` is the negation of
    stored column j and is never stored.  ``basis`` and ``costs`` use
    that stacked numbering (constraint columns, mirrors, then
    artificials), and a mirror must cost what its stored column costs.
    A crash start stores the same tableau times a basis inverse, with
    no artificial basic.  Artificials never enter, so only the
    constraint columns and their mirrors are priced.  ``target``
    optionally stops early once the objective reaches it (used by phase
    one, whose optimum cannot go below zero).

    The loop takes the same pivots and computes the same bits as the
    textbook dense tableau on the stacked columns: Dantzig's most
    negative reduced cost (first index on ties, NaN never eligible),
    Bland's first eligible column on stalls, the minimum ratio with the
    smallest basic index on ties, and the update
    ``tableau -= np.outer(column, pivot_row)``.  One product ``y`` of
    the basic costs with the stored columns prices both halves: column
    j costs ``c - y_j`` and its mirror ``c + y_j``, which is
    ``c - (-y_j)`` bit for bit.  An entering mirror brings the negated
    stored column, and the pivot row is divided by that signed pivot.
    The update's BLAS k=1 product rounds each entry once, as
    ``np.outer`` does, and can differ only in the sign of a zero, which
    no comparison and no division here sees.  The pricing product spans
    the artificial block, whose entries are discarded, on purpose: BLAS
    sums a narrower product in another order, and the last bits of the
    constraint columns then differ.
    """
    m, width = tableau.shape
    n = width - 1
    stored = n - m
    priced = 2 * stored
    total = priced + m
    body = tableau[:, :n]
    rhs = tableau[:, -1]
    products = np.empty(n)
    reduced = np.empty(priced)
    ratios = np.empty(m)
    column = np.empty(m)
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

        np.matmul(basic_costs, body, out=products)
        np.subtract(costs[:stored], products[:stored],
                    out=reduced[:stored])
        np.add(costs[stored:priced], products[:stored],
               out=reduced[stored:])
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
                f"{m} rows and {total} variable columns; problem may be "
                "badly scaled")
        if enter < stored:
            np.copyto(column, tableau[:, enter])
        else:
            np.negative(tableau[:, enter - stored], out=column)
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
        leave = int(np.where(ties, basis, total).argmin())
        tableau[leave] /= column[leave]
        column[leave] = 0.0
        np.dot(column[:, None], tableau[leave][None, :], out=product)
        tableau -= product
        # Clamp roundoff in the basic solution column.
        np.maximum(rhs, 0.0, out=rhs)
        basis[leave] = enter
        iterations += 1


def solve_sup_norm_lp(constraints, objective, crash_rows=None):
    """Maximize ``objective @ w`` subject to ``|constraints @ w| <= 1``.

    Parameters
    ----------
    constraints : (M, N) array
        Constraint rows ``a_j``, each bounded on both sides.
    objective : (N,) array
        Linear functional to maximize.
    crash_rows : (N,) int array, optional
        Indices of N linearly independent rows.  Phase two then starts
        from their crash basis and phase one never runs; see the module
        docstring.

    Returns
    -------
    SupNormSolution

    Raises
    ------
    UnboundedProblemError
        If phase one ends above zero; see the module docstring.
    SimplexError
        If an entering column has no positive pivot (numerical breakdown
        of the tableau), the final basis is singular, a crash start
        ends on a basis whose fresh basic solution has a negative entry
        even after a rebuild, or the recovered ``w`` still violates the
        constraints beyond tolerance after three rebuilds.
    PivotLimitError
        If MAX_ITERATIONS pivots do not reach an optimum.

    All three are SimplexErrors, and so curve_model.NumericErrors: a
    study that meets one exits 3.
    """
    A = np.asarray(constraints, dtype=float)
    f = np.asarray(objective, dtype=float)
    if A.ndim != 2:
        raise ValueError("constraints must be a 2-d array")
    M, N = A.shape
    if f.shape != (N,):
        raise ValueError(f"objective has shape {f.shape}, expected ({N},)")
    rows = 2 * M
    crash = crash_rows is not None

    # Equality system E @ u = b over u >= 0, E = A.T.  The two-phase
    # start flips the sign of rows with b < 0 so that its artificials
    # start feasible; the crash start needs no flip.
    E = A.T.copy()
    b = f.astype(float).copy()
    flip = np.zeros(N, dtype=bool) if crash else b < 0
    E[flip] *= -1.0
    b[flip] *= -1.0
    scale = 1.0 + float(b.sum())

    full = np.empty((N, M + N), dtype=float)
    full[:, :M] = E
    full[:, M:] = np.eye(N)
    # Stacked column s is sign[s] * full[:, source[s]].
    source = np.r_[0:M, 0:M, M:M + N]
    sign = np.ones(rows + N)
    sign[M:rows] = -1.0
    # Phase two: unit cost on the constraint columns and their mirrors.
    costs = np.zeros(rows + N)
    costs[:rows] = 1.0
    tol = FEASIBILITY_TOL

    if crash:
        # B^-1 [E | I | b] on the crash rows' basis B, whose last column
        # u solves B u = b.  Each row j with u_j < 0 trades its basic
        # column for the mirror, which negates tableau row j and leaves
        # |u| as the basic solution.
        picked = np.asarray(crash_rows, dtype=int)
        try:
            tableau = np.linalg.solve(E[:, picked],
                                      np.column_stack([full, b]))
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular crash rows: {exc}") from exc
        negative = tableau[:, -1] < 0
        basis = np.where(negative, picked + M, picked)
        tableau[negative] *= -1.0
        iters = 0
    else:
        tableau = np.empty((N, M + N + 1), dtype=float)
        tableau[:, :M + N] = full
        tableau[:, -1] = b
        basis = np.arange(rows, rows + N)
        # Phase one: minimize the artificial total.  Artificials start
        # basic and may leave, but never re-enter.
        phase1 = np.zeros(rows + N)
        phase1[rows:] = 1.0
        iters = _pivot_loop(tableau, basis, phase1, tol, MAX_ITERATIONS,
                            target=1e-14 * scale)
        infeasibility = float(phase1[basis] @ tableau[:, -1])
        if infeasibility > tol * scale:
            raise UnboundedProblemError(
                "objective is unbounded on the constraint set "
                f"(phase-one residual {infeasibility:.3e}); "
                "add sample points or lower the degree"
            )
        # Basic artificials keep cost zero and never re-enter, but they
        # can grow to a wrong basis (test_forward_solve_reaches_optimum).

    rejected = False
    for attempt in range(4):
        iters += _pivot_loop(tableau, basis, costs, tol,
                             MAX_ITERATIONS - iters)
        # Re-derive the solution from a fresh factorization of the
        # final basis; the pivoted tableau only chooses the basis.
        basis_matrix = full[:, source[basis]] * sign[basis]
        try:
            u = np.linalg.solve(basis_matrix, b)
            w = np.linalg.solve(basis_matrix.T, costs[basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular optimal basis: {exc}") from exc
        w[flip] *= -1.0
        value = float(costs[basis] @ u)
        residual = float(max(0.0, np.abs(A @ w).max(initial=0.0) - 1.0))
        # _pivot_loop clamps its basic solution, so only the fresh one
        # can show that a crash start ended on an infeasible basis.
        lowest = float(u.min())
        if crash and lowest < -tol * (1.0 + float(np.abs(u).sum())):
            if rejected or attempt == 3:
                raise SimplexError(
                    "final basis is primal infeasible after a rebuild "
                    f"(basic solution down to {lowest:.3e})")
            rejected = True
        elif residual <= 10.0 * tol * (1.0 + abs(value)):
            break
        elif attempt == 3:
            raise SimplexError(
                f"recovered coefficients violate |A w| <= 1 by "
                f"{residual:.3e} after {attempt} rebuilds")
        # Drift led to a not-quite-optimal basis: rebuild the tableau
        # exactly at this basis and keep pivoting.  The solve runs on
        # every stacked column, mirrors too, so that the stored ones get
        # the bits the stacked rebuild gives them.
        rebuilt = np.linalg.solve(
            basis_matrix, np.column_stack([full[:, source] * sign, b]))
        tableau[:] = rebuilt[:, np.r_[0:M, rows:rows + N + 1]]
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])

    support = np.sort(basis[basis < rows])
    # The basis is unchanged since the last attempt solved for u.
    degenerate = bool(np.any(basis >= rows) or np.any(np.abs(u) <= tol))
    return SupNormSolution(
        value=max(value, 0.0),
        coefficients=w,
        support=support,
        iterations=iters,
        max_residual=residual,
        degenerate=degenerate,
    )
