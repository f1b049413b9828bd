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
``|u| >= 0``: phase two starts there.  Every Siciak LP is solved by
``markov_lp.ColumnReduction.peak``, which passes the reduction's
``crash_rows``.  Without them the solver starts from artificials and
drives them out in phase one, whose positive optimum is reported as
unboundedness; ``markov_factor`` is the only caller that takes that
path.

At most N of the M rows are active at an optimum.  A crash-started
problem with ``M >= ROW_GENERATION_CUT * N`` rows therefore solves by
row generation, the cutting-plane scheme of Kelley (J. SIAM 8, 1960)
seen from the dual: its tableau first stores only the N crash rows.
After each pivot loop the fresh factorization gives ``w``, and every
unstored row with ``|a_j @ w| > 1 + FEASIBILITY_TOL`` (its column
would price in) joins the tableau as ``B^-1 a_j`` at the current
basis; phase two then continues.  Every such round adds a row, so
rounds end, and the last one has priced every row of ``A``.  On the
planar Siciak LP (``M/N`` of 246 to 640) the first round takes in
about a third of the rows, and later rounds a few dozen more, so each
pivot updates a third of the tableau.  The cut keeps the real-sample
Siciak LPs (``M/N`` at most 118) on the full tableau.  Row generation
there made ``verify``'s solves slower, and on ``hcp_cusp_2_5`` it ended
on a basis that the certificate rejects as primal infeasible.

Every tableau is ``B^-1 [A_kept.T | f]`` at the current basis B, and
both starts negate each row whose basic solution is negative: crash
row j trades its column for the mirror, and artificial i becomes the
column ``-e_i``.  Artificial columns never enter, so none is stored.
Nor is a mirror, the exact negation of its column through every pivot:
the row division and the update's k=1 product commute with negation
under round-to-nearest, and so does the subtraction.  The solver takes
the same pivots and computes the same bits as on the stacked
``[A.T | -A.T | S]``, on under half the tableau.  No copy of ``A.T``
is kept either: every tableau and basis matrix reads its columns from
the rows of ``A`` on demand, so a row-generated solve never builds a
full-width copy of ``A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve_model import DomainError, NumericError

FEASIBILITY_TOL = 1e-9
MAX_ITERATIONS = 200_000
# Consecutive non-improving pivots tolerated before Bland's rule kicks in.
STALL_LIMIT = 12
# Crash-started problems with at least this many rows per column start
# with a tableau of their crash rows only; see the module docstring.
ROW_GENERATION_CUT = 128


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

    ``certified`` says that the fresh factorization of the final basis
    passes the solver's own tests: no artificial column is basic, the
    basic solution ``u`` has no entry below
    ``-FEASIBILITY_TOL * (1 + sum|u|)``, and ``max_residual`` is at most
    FEASIBILITY_TOL, so no constraint column would price in at ``w``.
    The basis is then optimal by those tests, and by weak duality no
    other basis of the same problem, nor the mirrored objective
    ``-f``, has a larger value beyond tolerance.
    """

    value: float
    coefficients: np.ndarray
    support: np.ndarray
    iterations: int
    max_residual: float
    degenerate: bool
    certified: bool


def _pivot_loop(tableau, basis, costs, tol, budget, target=None):
    """Pivot in place until optimal; return the iteration count.

    ``tableau`` is ``[C | b]`` on m rows: k constraint columns, then the
    basic solution.  It stands for ``[C | -C | S | b]``: mirror column
    ``k + j`` is the negation of stored column j, and the m artificial
    columns ``S`` follow; neither is stored.  ``basis`` and ``costs``
    use that stacked numbering (constraint columns, mirrors, then
    artificials), and a mirror must cost what its stored column costs.
    Artificials never enter, so only the constraint columns and their
    mirrors are priced, and no pivot reads an artificial column.
    ``target`` optionally stops early once the objective reaches it
    (used by phase one, whose optimum cannot go below zero).

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
    no comparison and no division here sees.
    """
    m, width = tableau.shape
    stored = width - 1
    priced = 2 * stored
    total = priced + m
    constraints = tableau[:, :stored]
    rhs = tableau[:, -1]
    products = np.empty(stored)
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

        np.matmul(basic_costs, constraints, out=products)
        np.subtract(costs[:stored], products, out=reduced[:stored])
        np.add(costs[stored:priced], products, out=reduced[stored:])
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
        from their crash basis and phase one never runs.  With at least
        ROW_GENERATION_CUT * N rows, the tableau stores only these rows
        at first and takes in the others as ``w`` violates them; the
        value, ``support`` (global row numbers) and ``max_residual``
        (over all M rows) mean the same.  See the module docstring.

    Returns
    -------
    SupNormSolution

    Raises
    ------
    ValueError
        If the shapes disagree, or ``crash_rows`` does not hold N
        distinct integer indices in ``[0, M)``.
    curve_model.DomainError
        If ``constraints`` has no rows or no columns, or ``constraints``
        or ``objective`` has a NaN or infinite entry; it is a ValueError
        too.
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
    for size, name in ((M, "rows"), (N, "columns")):
        if size == 0:
            raise DomainError(f"constraints of shape {A.shape} have no {name}")
    if f.shape != (N,):
        raise ValueError(f"objective has shape {f.shape}, expected ({N},)")
    if not (np.isfinite(A).all() and np.isfinite(f).all()):
        raise DomainError("constraints and objective must be finite")
    rows = 2 * M
    crash = crash_rows is not None
    if crash:
        picked = np.asarray(crash_rows)
        if (picked.shape != (N,)
                or not np.issubdtype(picked.dtype, np.integer)
                or len(set(picked.tolist())) != N
                or np.any((picked < 0) | (picked >= M))):
            raise ValueError(f"crash_rows must hold {N} distinct integer "
                             f"row indices in [0, {M})")

    # Equality system E @ u = f over u >= 0, E = A.T; artificial i is
    # the column artificial[i] * e_i.
    artificial = np.ones(N)
    scale = 1.0 + float(np.abs(f).sum())

    def stacked(numbers, tail=None):
        """Columns ``numbers`` of ``[E | -E | diag(artificial)]``, read
        from the rows of ``A``, C-ordered; ``tail`` joins as one more
        column of the same array."""
        block = np.zeros((N, len(numbers) + (tail is not None)))
        real = numbers < rows
        a_rows = A[numbers[real] % M]
        np.negative(a_rows, out=a_rows, where=(numbers[real] >= M)[:, None])
        block[:, np.flatnonzero(real)] = a_rows.T
        slots = numbers[~real] - rows
        block[slots, np.flatnonzero(~real)] = artificial[slots]
        if tail is not None:
            block[:, -1] = tail
        return block

    # Phase two: unit cost on the constraint columns and their mirrors.
    costs = np.r_[np.ones(rows), np.zeros(N)]
    tol = FEASIBILITY_TOL

    # The rows of A whose columns the tableau stores: all of them, or
    # on a wide crash-started problem only the crash rows at first.
    kept = np.ones(M, dtype=bool)
    if crash and M >= ROW_GENERATION_CUT * N:
        kept[:] = False
        kept[picked] = True

    def stacked_columns():
        """Stacked number of each priced column, then the artificials."""
        stored = np.flatnonzero(kept)
        return np.concatenate([stored, M + stored, np.arange(rows, rows + N)])

    def tableau_at(basis_matrix):
        """B^-1 [E | f] on the columns of E that the tableau stores."""
        return np.linalg.solve(basis_matrix, stacked(np.flatnonzero(kept), f))

    columns = stacked_columns()
    if crash:
        # The tableau at the crash rows' basis B: u solves B u = f.
        try:
            tableau = tableau_at(stacked(picked))
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular crash rows: {exc}") from exc
    else:
        tableau = stacked(np.arange(M), f)  # at the artificial basis I
    # Negate each row whose basic solution is negative: crash row j
    # trades its column for the mirror, and artificial i becomes -e_i.
    negative = tableau[:, -1] < 0
    tableau[negative] *= -1.0
    if crash:
        basis = np.searchsorted(columns, np.where(negative, picked + M,
                                                  picked))
        iters = 0
    else:
        artificial[negative] = -1.0
        basis = np.arange(rows, rows + N)
        # Phase one: minimize the artificial total.  Artificials start
        # basic and may leave, but never re-enter.
        phase1 = np.r_[np.zeros(rows), np.ones(N)]
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
    rebuilds = 0
    while True:
        iters += _pivot_loop(tableau, basis, costs[columns], tol,
                             MAX_ITERATIONS - iters)
        # Re-derive the solution from a fresh factorization of the
        # final basis; the pivoted tableau only chooses the basis.
        chosen = columns[basis]
        basis_matrix = stacked(chosen)
        try:
            u = np.linalg.solve(basis_matrix, f)
            w = np.linalg.solve(basis_matrix.T, costs[chosen])
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular optimal basis: {exc}") from exc
        value = float(costs[chosen] @ u)
        levels = np.abs(A @ w)
        residual = float(max(0.0, levels.max(initial=0.0) - 1.0))
        # Unstored rows that w violates beyond the pricing tolerance:
        # their columns would price in, so they join the tableau.
        fresh = np.flatnonzero((levels > 1.0 + tol) & ~kept)
        # _pivot_loop clamps its basic solution, so only the fresh one
        # can show that a crash start ended on an infeasible basis.
        lowest = float(u.min())
        infeasible = lowest < -tol * (1.0 + float(np.abs(u).sum()))
        if crash and infeasible:
            if rejected or rebuilds == 3:
                raise SimplexError(
                    "final basis is primal infeasible after a rebuild "
                    f"(basic solution down to {lowest:.3e})")
            rejected = True
        elif not fresh.size:
            if residual <= 10.0 * tol * (1.0 + abs(value)):
                break
            if rebuilds == 3:
                raise SimplexError(
                    f"recovered coefficients violate |A w| <= 1 by "
                    f"{residual:.3e} after {rebuilds} rebuilds")
        if fresh.size:
            # Each row round adds a row, so rounds are not rebuilds.
            kept[fresh] = True
            columns = stacked_columns()
        else:
            rebuilds += 1
        # Rebuild the tableau exactly at this basis and keep pivoting:
        # drift led to a not-quite-optimal basis, or new rows came in.
        tableau = tableau_at(basis_matrix)
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])
        basis = np.searchsorted(columns, chosen)

    # The basis is unchanged since the last attempt solved for u.
    support = np.sort(chosen[chosen < rows])
    artificial_basic = bool(np.any(chosen >= rows))
    degenerate = artificial_basic or bool(np.any(np.abs(u) <= tol))
    return SupNormSolution(
        value=max(value, 0.0),
        coefficients=w,
        support=support,
        iterations=iters,
        max_residual=residual,
        degenerate=degenerate,
        certified=not (artificial_basic or infeasible or residual > tol),
    )
