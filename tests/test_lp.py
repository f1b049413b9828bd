"""Solver-level tests: optimality, feasibility, failure modes."""

import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from markov_curves import extremal_green, lp, markov_lp
from markov_curves.curve_model import (DomainError, builtin_germs,
                                       chebyshev_grid,
                                       sample_real_trace, tangent_vector)
from markov_curves.lp import (PivotLimitError, SimplexError,
                              UnboundedProblemError, _pivot_loop,
                              solve_sup_norm_lp)

FEAS_TOL = 1e-8


def chebyshev_matrix(points, degree):
    table = np.empty((points.size, degree + 1))
    table[:, 0] = 1.0
    if degree >= 1:
        table[:, 1] = points
    for j in range(2, degree + 1):
        table[:, j] = 2.0 * points * table[:, j - 1] - table[:, j - 2]
    return table


def endpoint_problem(degree, count=2001):
    """max p'(1) over degree-bounded polynomials with |p| <= 1 on a grid:
    the constraint rows and the objective."""
    xs = chebyshev_grid(-1.0, 1.0, count)
    matrix = chebyshev_matrix(xs, degree)
    derivative = np.zeros(degree + 1)
    derivative[1:] = np.arange(1, degree + 1) ** 2  # T_m'(1) = m**2
    return matrix, derivative


@pytest.mark.parametrize("degree", range(1, 11))
def test_endpoint_value_matches_chebyshev_derivative(degree):
    constraints, objective = endpoint_problem(degree)
    solution = solve_sup_norm_lp(constraints, objective)
    assert solution.value == pytest.approx(degree ** 2, rel=1e-5)
    assert solution.max_residual <= FEAS_TOL
    # The extremal polynomial alternates on degree + 1 points, giving
    # degree + 1 active constraint rows in the support.
    assert len(solution.support) == degree + 1


def test_solution_is_feasible_and_consistent():
    constraints, objective = endpoint_problem(6)
    solution = solve_sup_norm_lp(constraints, objective)
    values = constraints @ solution.coefficients
    assert np.max(np.abs(values)) <= 1.0 + FEAS_TOL
    assert solution.value == pytest.approx(objective @ solution.coefficients,
                                           rel=1e-12, abs=1e-12)
    assert solution.iterations > 0


def test_zero_objective_is_free():
    constraints, _ = endpoint_problem(4)
    solution = solve_sup_norm_lp(constraints, np.zeros(5))
    assert solution.value == 0.0


def test_unbounded_when_samples_too_thin():
    # 3 sample points cannot pin down 6 coefficients.
    xs = chebyshev_grid(-1.0, 1.0, 3)
    matrix = chebyshev_matrix(xs, 5)
    objective = np.zeros(6)
    objective[1] = 1.0
    with pytest.raises(UnboundedProblemError):
        solve_sup_norm_lp(matrix, objective)


def test_entering_column_without_positive_pivot_is_not_unbounded():
    # Column 1 prices in, but its only entry, like its mirror's (column
    # 3), is zero: the ratio test has no row.  Both phases are bounded
    # below, so this is a numerical breakdown, not the thin-sample
    # unboundedness.  Number 4 is the artificial, which is neither
    # stored nor priced.
    tableau = np.array([[1.0, 0.0, 1.0]])
    basis = np.array([0])
    costs = np.array([0.0, -1.0, 0.0, -1.0, 0.0])
    with pytest.raises(SimplexError, match="more sample points") as info:
        _pivot_loop(tableau, basis, costs, 1e-9, 10)
    assert not isinstance(info.value, UnboundedProblemError)


def test_pivot_budget_raises_pivot_limit(monkeypatch):
    # The tableau has one row per coefficient, and its basis numbering
    # one column per constraint row, mirror and artificial: 11 and
    # 2 * 2001 + 11.
    monkeypatch.setattr(lp, "MAX_ITERATIONS", 3)
    with pytest.raises(PivotLimitError, match="after 3 pivots on a tableau "
                       "of 11 rows and 4013 variable columns"):
        solve_sup_norm_lp(*endpoint_problem(10))


def endpoint_crash(degree, count=2001):
    matrix, derivative = endpoint_problem(degree, count)
    return matrix, derivative, markov_lp._reduce_columns(matrix).crash_rows


def stored_rows(tableau):
    """How many constraint columns a [C | b] tableau stores."""
    return tableau.shape[1] - 1


@pytest.mark.parametrize("count, first", [(201, 201), (2001, 7)],
                         ids=["full", "row_generated"])
def test_every_tableau_holds_its_stored_columns_and_the_rhs(monkeypatch,
                                                            count, first):
    # [C | b], with no block of artificial columns: the width is the
    # stored constraint columns plus one, which the basis numbering of
    # costs (columns, mirrors, then the m artificials) confirms.
    pivot_loop = lp._pivot_loop
    shapes = []

    def recording(tableau, basis, costs, *args, **kwargs):
        shapes.append((tableau.shape, len(costs)))
        return pivot_loop(tableau, basis, costs, *args, **kwargs)

    monkeypatch.setattr(lp, "_pivot_loop", recording)
    matrix, derivative, crash = endpoint_crash(6, count)
    for rows, stored in ((None, count), (crash, first)):
        shapes.clear()
        solve_sup_norm_lp(matrix, derivative, crash_rows=rows)
        assert shapes[0][0] == (7, stored + 1)
        for (m, width), numbered in shapes:
            assert numbered == 2 * (width - 1) + m


def test_negated_artificial_in_the_final_basis_leaves_w_signed(monkeypatch):
    # markov-scan's cusp_2_5 cell at degree 8, eps 0.25 and density 120,
    # mirrored objective: phase one negates its tableau rows where the
    # objective is negative, and one of them keeps its artificial basic
    # to the end, as the column -e_i.  No coordinate of A is negated,
    # so w needs no sign fix to reach the value and stay feasible.
    germ = builtin_germs()["cusp_2_5"]
    samples = sample_real_trace(germ, 0.25, 120)
    chebyshev = markov_lp.PolynomialBasis.from_points(samples, 8)
    reduction = markov_lp._reduce_columns(chebyshev.evaluate(samples))
    objective = -reduction.project(chebyshev.derivative_row(
        np.asarray(germ.basepoint), tangent_vector(germ)))
    pivot_loop = lp._pivot_loop
    final = {}

    def recording(tableau, basis, costs, *args, **kwargs):
        pivots = pivot_loop(tableau, basis, costs, *args, **kwargs)
        final.update(basis=basis.copy(),
                     priced=len(costs) - tableau.shape[0])
        return pivots

    monkeypatch.setattr(lp, "_pivot_loop", recording)
    solution = solve_sup_norm_lp(reduction.matrix, objective)
    chosen = final["basis"]
    artificials = chosen[chosen >= final["priced"]] - final["priced"]
    assert np.any(objective[artificials] < 0)
    assert solution.value > 0.0
    assert objective @ solution.coefficients == pytest.approx(
        solution.value, rel=1e-9)
    levels = reduction.matrix @ solution.coefficients
    assert np.all(np.abs(levels) <= 1.0 + lp.FEASIBILITY_TOL)


@pytest.mark.parametrize("degree", range(1, 11))
def test_crash_start_reaches_the_phase_one_optimum(degree):
    matrix, derivative, crash = endpoint_crash(degree)
    assert sorted(set(crash)) == sorted(crash)
    assert len(crash) == degree + 1
    two_phase = solve_sup_norm_lp(matrix, derivative)
    assert two_phase.certified
    for objective in (derivative, -derivative):
        solution = solve_sup_norm_lp(matrix, objective, crash_rows=crash)
        assert solution.value == pytest.approx(two_phase.value, rel=1e-12)
        assert solution.max_residual <= FEAS_TOL
        assert len(solution.support) == degree + 1
        assert solution.certified


def scan_lp(germ_id, degree, density):
    """The reduced matrix and derivative functional of a markov-scan
    cell at epsilon 0.5."""
    germ = builtin_germs()[germ_id]
    samples = sample_real_trace(germ, 0.5, density)
    chebyshev = markov_lp.PolynomialBasis.from_points(samples, degree)
    reduction = markov_lp._reduce_columns(chebyshev.evaluate(samples))
    return reduction.matrix, reduction.project(chebyshev.derivative_row(
        np.asarray(germ.basepoint), tangent_vector(germ)))


@pytest.mark.parametrize("germ_id, degree, density, generated", [
    ("cusp_2_3", 6, 120, False), ("interval_interior", 3, 300, True)],
    ids=["full", "row_generated"])
def test_crash_start_at_an_optimal_basis_takes_no_pivot(germ_id, degree,
                                                        density, generated):
    # How a scaling study's warm cell starts: from the rows of a
    # certified optimum, for a power-of-two multiple of its objective.
    constraints, objective = scan_lp(germ_id, degree, density)
    count, size = constraints.shape
    assert (count >= lp.ROW_GENERATION_CUT * size) == generated
    optimum = solve_sup_norm_lp(constraints, objective)
    assert optimum.certified
    values = []
    for scale in (4.0, 16.0):
        solution = solve_sup_norm_lp(constraints, scale * objective,
                                     crash_rows=optimum.support % count)
        assert solution.iterations == 0
        assert solution.certified
        assert np.array_equal(solution.support, optimum.support)
        values.append(solution.value)
    assert values[1] == 4.0 * values[0]


@pytest.mark.parametrize("malformed", [
    lambda crash: crash[:-1],
    lambda crash: np.r_[crash[:-1], 201],
    lambda crash: np.r_[crash[:-1], -1],
    lambda crash: crash + 0.5,
    lambda crash: np.r_[crash[:-1], crash[0]],
], ids=["short", "out_of_range", "negative", "fractional", "repeated"])
def test_malformed_crash_rows_are_rejected(malformed):
    # Once SimplexError (exit 3), IndexError, a silent wrap-around and a
    # silent truncation; the crash rows also seed row generation.
    matrix, derivative, crash = endpoint_crash(6, count=201)
    with pytest.raises(ValueError, match=r"crash_rows must hold 7 distinct "
                       r"integer row indices in \[0, 201\)"):
        solve_sup_norm_lp(matrix, derivative, crash_rows=malformed(crash))


def with_entry(array, index, value):
    changed = np.array(array, dtype=float)
    changed[index] = value
    return changed


@pytest.mark.parametrize("spoil", [
    lambda matrix, objective: (with_entry(matrix, 5, np.nan), objective),
    lambda matrix, objective: (matrix, with_entry(objective, 2, np.nan)),
    lambda matrix, objective: (with_entry(matrix, (7, 3), np.inf),
                               objective),
], ids=["nan_row", "nan_objective", "inf_entry"])
@pytest.mark.parametrize("crash", [False, True], ids=["two_phase", "crash"])
def test_non_finite_input_rejected(spoil, crash):
    # Once a silent value of 1.0 (max(0.0, nan) hid the NaN row's
    # residual), a "numerical breakdown" SimplexError and a matmul
    # RuntimeWarning, which the test configuration turns into an error.
    matrix, derivative, rows = endpoint_crash(6, count=201)
    constraints, objective = spoil(matrix, derivative)
    with pytest.raises(DomainError, match="must be finite"):
        solve_sup_norm_lp(constraints, objective,
                          crash_rows=rows if crash else None)


@pytest.mark.parametrize("constraints, objective, empty", [
    (np.zeros((0, 2)), [1.0, -1.0], "rows"),
    (np.zeros((3, 0)), [], "columns"),
], ids=["no_rows", "no_columns"])
def test_empty_problem_rejected(constraints, objective, empty):
    # Once numpy's "argmin of an empty sequence" and "zero-size array to
    # reduction operation" from inside the simplex.
    with pytest.raises(DomainError, match=f"have no {empty}"):
        solve_sup_norm_lp(constraints, objective)


@pytest.mark.parametrize("count", [201, 2001], ids=["full", "row_generated"])
def test_solve_leaves_its_inputs_alone(count):
    # The tableaus read their columns straight from A and their last
    # column from the objective, and the two-phase start negates its
    # rows where the objective is negative: an in-place negation would
    # corrupt the caller's arrays.
    matrix, derivative, crash = endpoint_crash(6, count)
    objective = derivative * np.where(np.arange(7) % 2, -1.0, 1.0)
    before = matrix.tobytes(), objective.tobytes()
    matrix.flags.writeable = False
    objective.flags.writeable = False
    for rows in (None, crash):
        solution = solve_sup_norm_lp(matrix, objective, crash_rows=rows)
        assert solution.max_residual <= FEAS_TOL
        assert (matrix.tobytes(), objective.tobytes()) == before


def test_crash_start_rejects_an_infeasible_final_basis(monkeypatch):
    # Swapping a basic row for its mirror negates its entry of the fresh
    # basic solution, which _pivot_loop's clamped copy never shows.  The
    # solver rebuilds once at that basis, meets it again, and raises.
    # The 2,001-row problem crosses ROW_GENERATION_CUT and starts with
    # its 7 crash rows stored; the 201-row one stores every row.
    pivot_loop = lp._pivot_loop
    stored = []

    def perturbed(tableau, basis, *args, **kwargs):
        stored.append(stored_rows(tableau))
        pivots = pivot_loop(tableau, basis, *args, **kwargs)
        mirrors = stored_rows(tableau)
        basis[0] = (basis[0] + mirrors) % (2 * mirrors)
        return pivots

    monkeypatch.setattr(lp, "_pivot_loop", perturbed)
    for count, first in ((201, 201), (2001, 7)):
        matrix, derivative, crash = endpoint_crash(6, count)
        stored.clear()
        with pytest.raises(SimplexError, match="primal infeasible after a "
                           "rebuild"):
            solve_sup_norm_lp(matrix, derivative, crash_rows=crash)
        assert len(stored) == 2
        assert stored[0] == first


@pytest.mark.parametrize("degree", (4, 6, 8))
def test_residual_that_never_closes_raises(monkeypatch, degree):
    # With no pivots the crash basis stays where it started, feasible but
    # not optimal, so its w violates |A w| <= 1 after every rebuild.  The
    # solve must not hand back that w (and a value above degree**2).
    # On the 2,001-row problem, which crosses ROW_GENERATION_CUT, the
    # violated rows first join the tableau in a row round, which is not
    # one of the three rebuilds.
    stored = []

    def idle(tableau, *args, **kwargs):
        stored.append(stored_rows(tableau))
        return 0

    monkeypatch.setattr(lp, "_pivot_loop", idle)
    for count, first in ((201, 201), (2001, degree + 1)):
        matrix, derivative, crash = endpoint_crash(degree, count)
        stored.clear()
        with pytest.raises(SimplexError, match=r"violate \|A w\| <= 1 by "
                           r"[0-9.e+-]+ after 3 rebuilds"):
            solve_sup_norm_lp(matrix, derivative, crash_rows=crash)
        rounds = sum(later > earlier
                     for earlier, later in zip(stored, stored[1:]))
        assert stored[0] == first
        assert rounds == (count == 2001)
        assert len(stored) == 4 + rounds


def planar_star_problems(degree):
    """The planar Siciak LPs of green-eval's four-ray star, one per probe
    of GREEN_PROBES: 6,400 rows (density 200, 8 half phases)."""
    problems = []

    def recording(constraints, objective, crash_rows):
        problems.append((constraints, objective, crash_rows))
        return solve_sup_norm_lp(constraints, objective, crash_rows)

    points = extremal_green.star_points(
        (0.0, math.pi / 2, math.pi, 3 * math.pi / 2), 1.0, 200)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markov_lp, "solve_sup_norm_lp", recording)
        extremal_green.siciak_lp(points, extremal_green.GREEN_PROBES, degree)
    return problems


ROW_GENERATION_CASES = {
    **{f"planar_star_{degree}": functools.partial(planar_star_problems,
                                                  degree)
       for degree in (4, 8, 12)},
    "endpoint": lambda: [endpoint_crash(degree) for degree in range(1, 11)],
}


@pytest.mark.parametrize("name", ROW_GENERATION_CASES)
def test_row_generation_answers_the_full_lp(monkeypatch, name):
    for constraints, objective, crash in ROW_GENERATION_CASES[name]():
        count, size = constraints.shape
        assert count >= lp.ROW_GENERATION_CUT * size
        solution = solve_sup_norm_lp(constraints, objective, crash)
        with monkeypatch.context() as patch:
            patch.setattr(lp, "ROW_GENERATION_CUT", math.inf)
            full = solve_sup_norm_lp(constraints, objective, crash)
        assert solution.value == pytest.approx(full.value, rel=1e-12)
        levels = constraints @ solution.coefficients
        assert np.all(np.abs(levels) <= 1.0 + lp.FEASIBILITY_TOL)
        # Support in global numbering: row j where a_j w = 1, its mirror
        # count + j where a_j w = -1.
        assert len(solution.support) == size
        assert np.all(solution.support < 2 * count)
        signs = np.where(solution.support < count, 1.0, -1.0)
        assert signs * levels[solution.support % count] == pytest.approx(
            1.0, abs=lp.FEASIBILITY_TOL)


@pytest.mark.parametrize("name", ROW_GENERATION_CASES)
def test_row_generation_matches_highs(name):
    optimize = pytest.importorskip("scipy.optimize")
    for constraints, objective, crash in ROW_GENERATION_CASES[name]():
        solution = solve_sup_norm_lp(constraints, objective, crash)
        count = len(constraints)
        highs = optimize.linprog(
            -objective, A_ub=np.vstack([constraints, -constraints]),
            b_ub=np.ones(2 * count), bounds=(None, None), method="highs")
        assert highs.status == 0
        assert solution.value == pytest.approx(-highs.fun, rel=1e-9)


def test_row_generated_solve_holds_no_copy_of_the_matrix():
    # The degree-12 planar LPs of green_cross_star, 6,400 x 26.  Copying
    # A.T and a tableau of all of its columns on every solve peaked at
    # 3.8 times A; the stored rows alone, about a third of A, take less
    # than half that.
    for constraints, objective, crash in planar_star_problems(12):
        tracemalloc.start()
        try:
            solve_sup_norm_lp(constraints, objective, crash)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * constraints.nbytes


def brute_force_maximum(constraints, objective):
    """Enumerate basis vertices of {w : |C w| <= 1} and take the best."""
    stacked = np.vstack([constraints, -constraints])
    count, dim = stacked.shape
    best = None
    for rows in itertools.combinations(range(count), dim):
        block = stacked[list(rows)]
        try:
            vertex = np.linalg.solve(block, np.ones(dim))
        except np.linalg.LinAlgError:
            continue
        if np.max(stacked @ vertex) <= 1.0 + 1e-9:
            value = objective @ vertex
            best = value if best is None else max(best, value)
    return best


def small_problems():
    """Twelve random bounded problems small enough to enumerate."""
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 4))
        extra = rng.standard_normal((int(rng.integers(3, 7)), dim))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        # The box rows keep the feasible region bounded.
        constraints = np.vstack([np.eye(dim), extra])
        yield constraints, rng.standard_normal(dim)


def test_matches_vertex_enumeration_on_small_problems():
    for constraints, objective in small_problems():
        solution = solve_sup_norm_lp(constraints, objective)
        oracle = brute_force_maximum(constraints, objective)
        assert oracle is not None
        assert solution.value == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def textbook_pivot_loop(tableau, basis, costs, tol, budget, target=None):
    """The plain dense tableau loop, which lp._pivot_loop must match bit
    for bit: fresh arrays on every pivot, 2-d fancy indexing and
    ``np.outer``.  It stores every priced column: the tableau ``[C | b]``
    is pivoted as the stacked ``[C | -C | b]``, with mirror j numbered
    ``k + j`` in both.  The artificials, numbered after the mirrors,
    are never stored.
    """
    stored = tableau.shape[1] - 1
    stacked = np.hstack([tableau[:, :stored], -tableau[:, :stored],
                         tableau[:, stored:]])
    iterations = stacked_pivot_loop(stacked, basis, costs, tol, budget,
                                    target)
    tableau[:, :stored] = stacked[:, :stored]
    tableau[:, -1] = stacked[:, -1]
    return iterations


def stacked_pivot_loop(tableau, basis, costs, tol, budget, target):
    """textbook_pivot_loop on a tableau that stores every priced
    column."""
    m, width = tableau.shape
    n = width - 1
    body = tableau[:, :n]
    iterations = 0
    bland = False
    stall = 0
    previous = np.inf
    while True:
        objective = float(costs[basis] @ tableau[:, -1])
        if target is not None and objective <= target:
            return iterations
        if objective < previous - tol * (1.0 + abs(previous)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= lp.STALL_LIMIT:
                bland = True
        previous = objective

        # The artificials, numbered from n on, never enter.
        reduced = costs[:n] - costs[basis] @ body
        eligible = np.flatnonzero(reduced < -tol)
        if eligible.size == 0:
            return iterations
        if iterations >= budget:
            raise PivotLimitError(
                f"no optimum after {iterations} pivots "
                f"(m={m}, n={n}); problem may be badly scaled"
            )
        if bland:
            enter = int(eligible[0])
        else:
            enter = int(eligible[np.argmin(reduced[eligible])])
        column = tableau[:, enter]
        rows = np.flatnonzero(column > tol)
        if rows.size == 0:
            # Both phases are bounded below, so this is tableau drift, not
            # unboundedness.  Reached by markov_factor on cusp_2_3, n=12,
            # eps=0.0625, density 1500 (HiGHS solves it: 165890.29).
            raise SimplexError(
                "entering column has no positive pivot: numerical "
                "breakdown of the tableau; more sample points will not "
                "fix it")
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + tol * (1.0 + abs(best))]
        leave = int(ties[np.argmin(basis[ties])])
        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        other = column.copy()
        other[leave] = 0.0
        tableau -= np.outer(other, tableau[leave])
        # Clamp roundoff in the basic solution column.
        np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])
        basis[leave] = enter
        iterations += 1


def endpoint_problems():
    """The endpoint problem on the stacked rows {A; -A}: every row comes
    with a duplicate of its mirror, so the ratio test meets ties."""
    for degree in range(1, 11):
        matrix, derivative = endpoint_problem(degree)
        lp.solve_sup_norm_lp(np.vstack([matrix, -matrix]), derivative)


def symmetric_endpoint_problems():
    for degree in range(1, 11):
        matrix, derivative = endpoint_problem(degree)
        for objective in (derivative, -derivative):
            lp.solve_sup_norm_lp(matrix, objective)


def enumerable_problems():
    for problem in small_problems():
        lp.solve_sup_norm_lp(*problem)


def star_probe_family():
    """Criterion 9's trace Siciak LPs at one probe: 8 facet objectives."""
    germ = builtin_germs()["cusp_2_3"]
    points = sample_real_trace(germ, 0.25, 80)
    z = np.atleast_1d(germ.evaluate(0.2 * cmath.exp(1j * math.pi / 8)))
    basis = markov_lp.PolynomialBasis.from_points(points, 12)
    reduction = markov_lp._reduce_columns(basis.evaluate(points))
    functional = reduction.project(basis.evaluate(z[None, :]).ravel())
    for phase in extremal_green.HALF_FACET_PHASES:
        lp.solve_sup_norm_lp(reduction.matrix, np.real(phase * functional),
                             crash_rows=reduction.crash_rows)


def planar_siciak():
    """A planar Siciak LP on 2,240 rows and 14 columns, the widest of the
    cases, which crosses ROW_GENERATION_CUT: the loop pivots
    row-generated tableaux."""
    points = extremal_green.star_points(
        (0.0, math.pi / 2, math.pi, 3 * math.pi / 2), 0.5, 70)
    extremal_green.siciak_lp(points, [0.2 + 0.1j], degree=6)


def coefficient_problems():
    """Single-coefficient objectives: degenerate, with ratio-test ties,
    on the stacked rows {A; -A}."""
    matrix, _ = endpoint_problem(6, count=201)
    for objective in np.eye(7):
        lp.solve_sup_norm_lp(np.vstack([matrix, -matrix]), objective)


def symmetric_coefficient_problems():
    matrix, _ = endpoint_problem(6, count=201)
    for objective in np.eye(7):
        for signed in (objective, -objective):
            lp.solve_sup_norm_lp(matrix, signed)


def scan_cell():
    """One markov-scan cell at scan width: 600 samples, 36 columns."""
    germ = builtin_germs()["cusp_2_3"]
    markov_lp.markov_factor(markov_lp.MarkovProblem(
        samples=sample_real_trace(germ, 0.0625, 300), x0=germ.basepoint,
        v=tangent_vector(germ), degree=12))


# All but star_probe_family and planar_siciak start from phase one;
# those two start from a crash basis.
ORACLE_CASES = {
    "endpoint": endpoint_problems,
    "coefficients": coefficient_problems,
    "vertex_enumeration": enumerable_problems,
    "star_probe_family": star_probe_family,
    "planar_siciak": planar_siciak,
    "symmetric_endpoint": symmetric_endpoint_problems,
    "symmetric_coefficients": symmetric_coefficient_problems,
    "scan_cell": scan_cell,
}


def solutions_with(monkeypatch, loop, case):
    """Every solution the case computes with ``loop`` as the pivot loop."""
    solutions = []

    def recording(*args, **kwargs):
        solutions.append(solve_sup_norm_lp(*args, **kwargs))
        return solutions[-1]

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_pivot_loop", loop)
        for module in (lp, markov_lp):
            patch.setattr(module, "solve_sup_norm_lp", recording)
        case()
    return solutions


def assert_same_bits(solutions, expected):
    assert len(solutions) == len(expected) > 0
    for got, want in zip(solutions, expected):
        assert np.float64(got.value).tobytes() == \
            np.float64(want.value).tobytes()
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert np.array_equal(got.support, want.support)
        assert got.iterations == want.iterations


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_pivot_loop_matches_textbook_bit_for_bit(monkeypatch, name):
    case = ORACLE_CASES[name]
    assert_same_bits(solutions_with(monkeypatch, _pivot_loop, case),
                     solutions_with(monkeypatch, textbook_pivot_loop, case))


def test_bland_pivots_match_textbook_bit_for_bit(monkeypatch):
    cases = [ORACLE_CASES[name] for name in ("endpoint",
                                             "symmetric_endpoint")]
    dantzig = [solutions_with(monkeypatch, _pivot_loop, case)
               for case in cases]
    # Every non-improving pivot now switches to Bland's rule.
    monkeypatch.setattr(lp, "STALL_LIMIT", 1)
    for case, plain in zip(cases, dantzig):
        bland = solutions_with(monkeypatch, _pivot_loop, case)
        assert [s.iterations for s in bland] != \
            [s.iterations for s in plain]
        assert_same_bits(bland, solutions_with(monkeypatch,
                                               textbook_pivot_loop, case))
