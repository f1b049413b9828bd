"""Solver-level tests: optimality, feasibility, failure modes."""

import cmath
import itertools
import math

import numpy as np
import pytest

from markov_curves import extremal_green, lp, markov_lp
from markov_curves.curve_model import (builtin_germs, chebyshev_grid,
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


def endpoint_rows(degree, count=2001):
    """max p'(1) over degree-bounded polynomials with |p| <= 1 on a grid:
    the two-sided rows and the objective."""
    xs = chebyshev_grid(-1.0, 1.0, count)
    matrix = chebyshev_matrix(xs, degree)
    derivative = np.zeros(degree + 1)
    derivative[1:] = np.arange(1, degree + 1) ** 2  # T_m'(1) = m**2
    return matrix, derivative


def endpoint_problem(degree, count=2001):
    """The endpoint problem on the one-sided rows {A; -A}."""
    matrix, derivative = endpoint_rows(degree, count)
    return np.vstack([matrix, -matrix]), derivative


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
    assert np.max(values) <= 1.0 + FEAS_TOL
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
    constraints = np.vstack([matrix, -matrix])
    objective = np.zeros(6)
    objective[1] = 1.0
    with pytest.raises(UnboundedProblemError):
        solve_sup_norm_lp(constraints, objective)


def test_entering_column_without_positive_pivot_is_not_unbounded():
    # Column 1 prices in, but its only entry is negative: the ratio test
    # has no row.  Both phases are bounded below, so this is a numerical
    # breakdown, not the thin-sample unboundedness.  Column 2 is the
    # artificial, which is never priced.
    tableau = np.array([[1.0, -1.0, 1.0, 1.0]])
    basis = np.array([0])
    costs = np.array([0.0, -1.0, 0.0])
    with pytest.raises(SimplexError, match="more sample points") as info:
        _pivot_loop(tableau, basis, costs, 0, 1e-9, 10)
    assert not isinstance(info.value, UnboundedProblemError)


def test_pivot_budget_raises_pivot_limit(monkeypatch):
    # The tableau has one row per coefficient and one column per
    # constraint row and artificial: 11 and 2 * 2001 + 11.
    monkeypatch.setattr(lp, "MAX_ITERATIONS", 3)
    with pytest.raises(PivotLimitError, match="after 3 pivots on a tableau "
                       "of 11 rows and 4013 variable columns"):
        solve_sup_norm_lp(*endpoint_problem(10))


def endpoint_crash(degree):
    matrix, derivative = endpoint_rows(degree)
    return matrix, derivative, markov_lp._reduce_columns(matrix).crash_rows


@pytest.mark.parametrize("degree", range(1, 11))
def test_crash_start_reaches_the_phase_one_optimum(degree):
    matrix, derivative, crash = endpoint_crash(degree)
    assert sorted(set(crash)) == sorted(crash)
    assert len(crash) == degree + 1
    two_phase = solve_sup_norm_lp(matrix, derivative, symmetric=True)
    for objective in (derivative, -derivative):
        solution = solve_sup_norm_lp(matrix, objective, symmetric=True,
                                     crash_rows=crash)
        assert solution.value == pytest.approx(two_phase.value, rel=1e-12)
        assert solution.max_residual <= FEAS_TOL
        assert len(solution.support) == degree + 1


def test_crash_rows_need_a_symmetric_problem():
    matrix, derivative, crash = endpoint_crash(4)
    with pytest.raises(ValueError, match="symmetric"):
        solve_sup_norm_lp(matrix, derivative, crash_rows=crash)


def test_crash_start_rejects_an_infeasible_final_basis(monkeypatch):
    # Swapping a basic row for its mirror negates its entry of the fresh
    # basic solution, which _pivot_loop's clamped copy never shows.  The
    # solver rebuilds once at that basis, meets it again, and raises.
    matrix, derivative, crash = endpoint_crash(6)
    pivot_loop = lp._pivot_loop
    calls = []

    def perturbed(tableau, basis, costs, mirrors, *args, **kwargs):
        calls.append(pivot_loop(tableau, basis, costs, mirrors, *args,
                                **kwargs))
        basis[0] = (basis[0] + mirrors) % (2 * mirrors)
        return calls[-1]

    monkeypatch.setattr(lp, "_pivot_loop", perturbed)
    with pytest.raises(SimplexError, match="primal infeasible after a "
                       "rebuild"):
        solve_sup_norm_lp(matrix, derivative, symmetric=True,
                          crash_rows=crash)
    assert len(calls) == 2


def brute_force_maximum(constraints, objective):
    """Enumerate basis vertices of {w : Gw <= 1} and take the best."""
    count, dim = constraints.shape
    best = None
    for rows in itertools.combinations(range(count), dim):
        block = constraints[list(rows)]
        try:
            vertex = np.linalg.solve(block, np.ones(dim))
        except np.linalg.LinAlgError:
            continue
        if np.max(constraints @ vertex) <= 1.0 + 1e-9:
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
        constraints = np.vstack([np.eye(dim), -np.eye(dim), extra])
        yield constraints, rng.standard_normal(dim)


def test_matches_vertex_enumeration_on_small_problems():
    for constraints, objective in small_problems():
        solution = solve_sup_norm_lp(constraints, objective)
        oracle = brute_force_maximum(constraints, objective)
        assert oracle is not None
        assert solution.value == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def textbook_pivot_loop(tableau, basis, costs, mirrors, tol, budget,
                        target=None):
    """The plain dense tableau loop, which lp._pivot_loop must match bit
    for bit: fresh arrays on every pivot, 2-d fancy indexing and
    ``np.outer``.  It stores every column: a tableau with mirrors (a
    crash start) is pivoted as the stacked ``[C | -C | I | b]``, with
    mirror j numbered ``k + j`` in both.
    """
    m, width = tableau.shape
    if mirrors:
        stored = width - 1 - m
        stacked = np.hstack([tableau[:, :stored], -tableau[:, :stored],
                             tableau[:, stored:]])
        iterations = textbook_pivot_loop(stacked, basis, costs, 0, tol,
                                         budget, target)
        tableau[:, :stored] = stacked[:, :stored]
        tableau[:, stored:] = stacked[:, 2 * stored:]
        return iterations
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

        reduced = costs - costs[basis] @ body
        # The last m columns are the artificials, which never enter.
        reduced[n - m:] = 0.0
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
    for degree in range(1, 11):
        lp.solve_sup_norm_lp(*endpoint_problem(degree))


def enumerable_problems():
    for problem in small_problems():
        lp.solve_sup_norm_lp(*problem)


def star_probe_family():
    """Criterion 9's trace Siciak LPs at one probe: 8 facet objectives."""
    germ = builtin_germs()["cusp_2_3"]
    points = sample_real_trace(germ, 0.25, 80)
    z = np.atleast_1d(germ.evaluate(0.2 * cmath.exp(1j * math.pi / 8)))
    sampled = markov_lp.SampledLp(points, 12)
    functional = sampled.reduction.project(
        sampled.basis.evaluate(z[None, :]).ravel())
    for phase in extremal_green.HALF_FACET_PHASES:
        lp.solve_sup_norm_lp(sampled.constraints,
                             np.real(phase * functional), symmetric=True,
                             crash_rows=sampled.reduction.crash_rows)


def planar_siciak():
    """A planar Siciak LP on 4,480 rows: the widest tableau of the cases."""
    points = extremal_green.star_points(
        (0.0, math.pi / 2, math.pi, 3 * math.pi / 2), 0.5, 70)
    extremal_green.siciak_lp(points, [0.2 + 0.1j], degree=6)


def coefficient_problems():
    """Single-coefficient objectives: degenerate, with ratio-test ties."""
    constraints, _ = endpoint_problem(6, count=201)
    for objective in np.eye(7):
        lp.solve_sup_norm_lp(constraints, objective)


def symmetric_endpoint_problems():
    for degree in range(1, 11):
        matrix, derivative = endpoint_rows(degree)
        for objective in (derivative, -derivative):
            lp.solve_sup_norm_lp(matrix, objective, symmetric=True)


def symmetric_coefficient_problems():
    matrix, _ = endpoint_rows(6, count=201)
    for objective in np.eye(7):
        for signed in (objective, -objective):
            lp.solve_sup_norm_lp(matrix, signed, symmetric=True)


def scan_cell():
    """One markov-scan cell at scan width: 600 samples, 36 columns."""
    germ = builtin_germs()["cusp_2_3"]
    markov_lp.markov_factor(markov_lp.MarkovProblem(
        samples=sample_real_trace(germ, 0.0625, 300), x0=germ.basepoint,
        v=tangent_vector(germ), degree=12))


# The symmetric cases and scan_cell solve |A w| <= 1 in the two-sided
# form from phase one, which the textbook loop meets as {A; -A};
# star_probe_family and planar_siciak start from a crash basis.
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
    """Every solution the case computes with ``loop`` as the pivot loop.

    The textbook loop stores every column, so it gets a two-sided
    problem solved from phase one as the one-sided rows {A; -A}, and a
    crash start as the stacked columns of the same crash tableau; rows
    of -A count from M in both forms.
    """
    solutions = []

    def recording(constraints, objective, symmetric=False,
                  crash_rows=None):
        if (symmetric and crash_rows is None
                and loop is textbook_pivot_loop):
            constraints = np.vstack([constraints, -constraints])
            symmetric = False
        solutions.append(solve_sup_norm_lp(constraints, objective,
                                           symmetric=symmetric,
                                           crash_rows=crash_rows))
        return solutions[-1]

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_pivot_loop", loop)
        for module in (lp, markov_lp, extremal_green):
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
