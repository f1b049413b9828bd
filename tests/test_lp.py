"""Solver-level tests: optimality, feasibility, failure modes."""

import itertools

import numpy as np
import pytest

from markov_curves.curve_model import chebyshev_grid
from markov_curves.lp import (SimplexError, UnboundedProblemError,
                              _pivot_loop, solve_sup_norm_lp)

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
    """max p'(1) over degree-bounded polynomials with |p| <= 1 on a grid."""
    xs = chebyshev_grid(-1.0, 1.0, count)
    matrix = chebyshev_matrix(xs, degree)
    derivative = np.zeros(degree + 1)
    derivative[1:] = np.arange(1, degree + 1) ** 2  # T_m'(1) = m**2
    constraints = np.vstack([matrix, -matrix])
    return constraints, derivative


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
    # breakdown, not the thin-sample unboundedness.
    tableau = np.array([[1.0, -1.0, 1.0]])
    basis = np.array([0])
    costs = np.array([0.0, -1.0])
    blocked = np.zeros(2, dtype=bool)
    with pytest.raises(SimplexError, match="more sample points") as info:
        _pivot_loop(tableau, basis, costs, blocked, 1e-9, 10)
    assert not isinstance(info.value, UnboundedProblemError)


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


def test_matches_vertex_enumeration_on_small_problems():
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 4))
        extra = rng.standard_normal((int(rng.integers(3, 7)), dim))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        # The box rows keep the feasible region bounded.
        constraints = np.vstack([np.eye(dim), -np.eye(dim), extra])
        objective = rng.standard_normal(dim)
        solution = solve_sup_norm_lp(constraints, objective)
        oracle = brute_force_maximum(constraints, objective)
        assert oracle is not None
        assert solution.value == pytest.approx(oracle, rel=1e-8, abs=1e-8)
