"""Discrete Markov factors, scaling fits, and the Cauchy-integral check."""

import itertools
import math
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from markov_curves import extremal_green, markov_lp
from markov_curves.curve_model import DomainError, builtin_germs, \
    sample_real_trace, tangent_vector
from markov_curves.lp import (FEASIBILITY_TOL, SimplexError,
                              UnboundedProblemError, solve_sup_norm_lp)
from markov_curves.markov_lp import (ConditioningError, MarkovProblem,
                                     NumericError, PolynomialBasis,
                                     TooFewPointsError, _chebyshev_table,
                                     cauchy_derivative_check, fit_scaling,
                                     markov_factor, scaling_study)


def interval_problem(degree, epsilon=1.0, density=400, x0=1.0):
    germ = builtin_germs()["interval_interior"]
    samples = sample_real_trace(germ, epsilon, density)
    return MarkovProblem(samples=samples, x0=np.array([x0, 0.0]),
                         v=np.array([1.0, 0.0]), degree=degree)


def reduce_samples(samples, degree):
    """The basis on the samples and the reduction of its sample matrix."""
    basis = PolynomialBasis.from_points(samples, degree)
    return basis, markov_lp._reduce_columns(basis.evaluate(samples))


def derivative_lp(problem):
    """The reduced constraint matrix and derivative functional that
    markov_factor solves for ``problem``."""
    basis, reduction = reduce_samples(problem.samples, problem.degree)
    functional = reduction.project(basis.derivative_row(
        np.asarray(problem.x0, dtype=float),
        np.asarray(problem.v, dtype=float)))
    return reduction.matrix, functional


def germ_problem(germ_id, epsilon, density, degree):
    """The lone MarkovProblem of one scaling-study cell."""
    germ = builtin_germs()[germ_id]
    return MarkovProblem(samples=sample_real_trace(germ, epsilon, density),
                         x0=germ.basepoint, v=tuple(tangent_vector(germ)),
                         degree=degree)


def looped_derivative_table(u, degree):
    """The second-kind recurrence written out on its own."""
    out = np.zeros(degree + 1, dtype=np.asarray(u).dtype)
    if degree >= 1:
        # Second-kind values U_0..U_{degree-1}.
        second = np.empty(degree, dtype=out.dtype)
        second[0] = 1.0
        if degree >= 2:
            second[1] = 2.0 * u
        for j in range(2, degree):
            second[j] = 2.0 * u * second[j - 1] - second[j - 2]
        out[1:] = np.arange(1, degree + 1) * second
    return out


def looped_derivative_row(basis, x0, v):
    """PolynomialBasis.derivative_row as a loop over the multi-indices.

    The reference for the vectorized method, which must match it bit for
    bit: v[d] * D_d first, then the other coordinates in increasing
    order, summed over d in increasing order.
    """
    u = (x0 - np.asarray(basis.center)) / np.asarray(basis.half_width)
    values = [_chebyshev_table(np.asarray(u[d]), basis.degree)
              for d in range(basis.ambient_dim)]
    derivs = [looped_derivative_table(u[d], basis.degree) /
              basis.half_width[d]
              for d in range(basis.ambient_dim)]
    row = np.zeros(basis.count)
    for pos, alpha in enumerate(basis.indices):
        for d in range(basis.ambient_dim):
            if v[d] == 0.0:
                continue
            term = v[d] * derivs[d][alpha[d]]
            for other in range(basis.ambient_dim):
                if other != d:
                    term *= values[other][alpha[other]]
            row[pos] += term
    return row


@pytest.mark.parametrize("call", [
    lambda: PolynomialBasis.from_points(np.eye(2), 2.0),
    lambda: MarkovProblem(samples=np.eye(2), x0=(0.0, 0.0), v=(1.0, 0.0),
                          degree=2.0),
    lambda: extremal_green.siciak_lp([0.0, 0.5, 0.5j], [0.2 + 0.1j], 2.5),
    lambda: scaling_study(builtin_germs()["cusp_2_3"], (2.5, 3, 4),
                          (0.5, 0.25), 40),
    lambda: extremal_green.star_domination_check(
        builtin_germs()["cusp_2_3"], 0.25, 8.5),
], ids=["basis", "problem", "planar_siciak", "scaling_study",
        "star_domination"])
def test_non_integer_degree_rejected(call):
    # Once a TypeError from range, or a silent truncation to degree 2 and
    # to degrees (8, 12).
    with pytest.raises(DomainError, match="degree must be an integer"):
        call()


class TestPolynomialBasis:
    def test_count_is_binomial(self):
        pts = np.random.default_rng(3).uniform(-1, 1, size=(40, 2))
        basis = PolynomialBasis.from_points(pts, 4)
        assert basis.count == math.comb(2 + 4, 4)

    def test_flat_dimension_is_frozen(self):
        pts = np.zeros((20, 2))
        pts[:, 0] = np.linspace(-1, 1, 20)
        basis = PolynomialBasis.from_points(pts, 3)
        assert basis.frozen == (False, True)
        assert basis.count == 4

    def test_complex_evaluation_matches_real_on_real_input(self):
        pts = np.random.default_rng(5).uniform(-1, 1, size=(15, 2))
        basis = PolynomialBasis.from_points(pts, 3)
        real = basis.evaluate(pts)
        lifted = basis.evaluate(pts.astype(complex))
        np.testing.assert_allclose(lifted.real, real.real, atol=1e-14)
        assert np.max(np.abs(lifted.imag)) < 1e-14

    def test_derivative_row_matches_central_differences(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(30, 2))
        basis = PolynomialBasis.from_points(pts, 4)
        for trial in range(6):
            x0 = rng.uniform(-0.5, 0.5, size=2)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            row = basis.derivative_row(x0, v)
            coeffs = rng.uniform(-1, 1, basis.count)
            h = 1e-6
            plus = basis.evaluate((x0 + h * v)[None, :]) @ coeffs
            minus = basis.evaluate((x0 - h * v)[None, :]) @ coeffs
            finite = (plus[0] - minus[0]) / (2 * h)
            assert row @ coeffs == pytest.approx(finite.real, abs=1e-6)

    @pytest.mark.parametrize("germ_id", sorted(builtin_germs()))
    def test_derivative_row_matches_the_loop_bit_for_bit(self, germ_id):
        germ = builtin_germs()[germ_id]
        samples = sample_real_trace(germ, 0.5, 120)
        # At the basepoint the scaled coordinates are often 0 or -1, where
        # every product is exact; a sample point off the box grid is not.
        points = (np.asarray(germ.basepoint), samples[40])
        for degree in range(1, 13):
            basis = PolynomialBasis.from_points(samples, degree)
            directions = [tangent_vector(germ)]
            if not any(basis.frozen):
                directions.append(np.array([0.6, 0.8]))
            for x0, v in itertools.product(points, directions):
                assert np.array_equal(basis.derivative_row(x0, v),
                                      looped_derivative_row(basis, x0, v))

    def test_frozen_direction_rejected(self):
        pts = np.zeros((20, 2))
        pts[:, 0] = np.linspace(-1, 1, 20)
        basis = PolynomialBasis.from_points(pts, 3)
        with pytest.raises(DomainError):
            basis.derivative_row(np.zeros(2), np.array([0.0, 1.0]))


class TestMarkovFactor:
    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    def test_endpoint_factor_is_degree_squared(self, degree):
        result = markov_factor(interval_problem(degree, density=600))
        assert result.factor == pytest.approx(degree**2, rel=1e-2)

    def test_interior_factor_matches_chebyshev_derivative(self):
        # sup |p'(0)| over the unit ball is |T_3'(0)| = 3; the discrete
        # grid relaxes the sup norm slightly so allow a small excess.
        result = markov_factor(interval_problem(3, density=2001, x0=0.0))
        assert result.factor == pytest.approx(3.0, rel=5e-3)
        assert result.factor >= 3.0 - 1e-9

    def test_cusp_quadratic_factor(self):
        germ = builtin_germs()["cusp_2_3"]
        samples = sample_real_trace(germ, 0.5, 240)
        problem = MarkovProblem(samples=samples, x0=np.zeros(2),
                                v=tangent_vector(germ), degree=2)
        result = markov_factor(problem)
        # [t**2] T_6(t) = 18 pinned to epsilon**2 = 1/4.
        assert result.factor == pytest.approx(72.0, rel=1e-2)

    def test_factor_monotone_in_degree(self):
        factors = [markov_factor(interval_problem(n, density=800)).factor
                   for n in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_density_refinement_is_stable(self):
        coarse = markov_factor(interval_problem(6, density=500)).factor
        fine = markov_factor(interval_problem(6, density=1000)).factor
        assert abs(fine - coarse) / fine < 5e-3

    def test_degree_zero_has_no_derivative(self):
        result = markov_factor(interval_problem(0, density=50))
        assert result.factor == 0.0

    def test_too_few_samples(self):
        germ = builtin_germs()["interval_interior"]
        samples = sample_real_trace(germ, 1.0, 2)
        problem = MarkovProblem(samples=samples, x0=np.array([1.0, 0.0]),
                                v=np.array([1.0, 0.0]), degree=8)
        with pytest.raises(TooFewPointsError, match="unresolved component"):
            markov_factor(problem)

    def test_fewer_samples_than_basis_resolve_a_flat_derivative(self):
        # On {-1, 0, 1} the cubics reduce to the quadratics plus x**3 - x,
        # whose derivative vanishes at 1/sqrt(3), so the functional is
        # resolved: the quadratic through (-1, -1), (0, 1), (1, -1) gives
        # |p'(x0)| = 4 x0.
        x0 = 1.0 / math.sqrt(3.0)
        problem = MarkovProblem(samples=np.array([[-1.0], [0.0], [1.0]]),
                                x0=(x0,), v=(1.0,), degree=3)
        factor = markov_factor(problem).factor
        assert factor == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)

    def test_thin_cusp_trace_resolves_its_trace_space(self):
        # 48 samples, fewer than the 91 plane polynomials of degree 12:
        # the cusp's trace space has dimension 3n = 36.
        germ = builtin_germs()["cusp_2_3"]
        samples = sample_real_trace(germ, 0.25, 24)
        assert samples.shape[0] == 48
        _, reduction = reduce_samples(samples, 12)
        assert reduction.matrix.shape[1] == 36
        problem = MarkovProblem(samples=samples, x0=germ.basepoint,
                                v=tangent_vector(germ), degree=12)
        assert markov_factor(problem).factor > 0.0

    def test_ill_conditioned_basis_is_reported(self):
        germ = builtin_germs()["cusp_2_5"]
        samples = sample_real_trace(germ, 0.5, 120)
        problem = MarkovProblem(samples=samples, x0=np.zeros(2),
                                v=tangent_vector(germ), degree=12)
        with pytest.raises(ConditioningError):
            markov_factor(problem)

    def test_failed_svd_is_a_conditioning_error(self):
        # The NaN is caught before LAPACK: on a tall matrix the QR would
        # spread it, and the SVD of R would fail to converge.
        matrix = np.ones((10, 3))
        matrix[1, 0] = np.nan
        with pytest.raises(ConditioningError, match="non-finite entries"):
            markov_lp._reduce_columns(matrix)

    def test_svd_error_is_a_conditioning_error(self, monkeypatch):
        def failing(matrix, full_matrices):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(ConditioningError, match="SVD did not converge"):
            markov_lp._reduce_columns(np.ones((10, 3)))

    def test_infinite_entry_is_a_conditioning_error(self):
        # Caught before LAPACK, whose SVD converges to NaN singular values
        # here; read as rank 0, they made project report an unresolved
        # component instead.
        matrix = np.ones((4, 2))
        matrix[1, 0] = np.inf
        with pytest.raises(ConditioningError, match="non-finite"):
            markov_lp._reduce_columns(matrix)

    def test_rank_cutoff_does_not_overflow_near_the_float_maximum(self):
        # The largest singular value, about 1.41e308, times max(M, N) = 2
        # overflows; the cutoff scales eps first, so the matrix keeps
        # both its columns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduction = markov_lp._reduce_columns(
                np.array([[1e308, -1e308], [1e308, 1e308]]))
        assert reduction.back_map.shape == (2, 2)
        assert reduction.condition == pytest.approx(1.0)

    def test_unbounded_solve_is_not_too_few_samples(self, monkeypatch):
        def unbounded(constraints, objective):
            raise UnboundedProblemError("phase one ended above zero")

        monkeypatch.setattr(markov_lp, "solve_sup_norm_lp", unbounded)
        with pytest.raises(UnboundedProblemError):
            markov_factor(interval_problem(3, density=50))

    @pytest.mark.parametrize("x0", [(float("nan"),), (float("inf"),)],
                             ids=["nan", "inf"])
    def test_non_finite_basepoint_rejected(self, x0):
        with pytest.raises(DomainError, match="x0 must be finite"):
            MarkovProblem(samples=np.array([[-1.0], [0.0], [1.0]]), x0=x0,
                          v=(1.0,), degree=3)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")],
                             ids=["inf", "nan"])
    def test_non_finite_sample_rejected(self, bad):
        # An inf sample used to read as a flat coordinate ("direction
        # leaves the sampled slice"), a NaN one as a failed SVD.
        problem = MarkovProblem(samples=np.array([[-1.0], [0.0], [bad]]),
                                x0=(0.0,), v=(1.0,), degree=2)
        with pytest.raises(DomainError, match="samples must be finite"):
            markov_factor(problem)

    def test_empty_sample_array_rejected(self):
        problem = MarkovProblem(samples=np.empty((0, 1)), x0=(0.0,),
                                v=(1.0,), degree=3)
        with pytest.raises(DomainError, match="sample array is empty"):
            markov_factor(problem)

    def test_unit_direction_required(self):
        germ = builtin_germs()["interval_interior"]
        samples = sample_real_trace(germ, 1.0, 40)
        with pytest.raises(DomainError):
            MarkovProblem(samples=samples, x0=np.array([0.0, 0.0]),
                          v=np.array([2.0, 0.0]), degree=3)

    def test_extremal_trace_stays_inside_unit_band(self):
        problem = interval_problem(7, density=700)
        result = markov_factor(problem)
        basis = result.basis
        values = basis.evaluate(problem.samples) @ result.coefficients
        assert np.max(np.abs(values)) <= 1.0 + 1e-6

    def test_constraints_hold_one_row_per_sample(self):
        # The solver bounds both signs itself; no {A; -A} is stacked.
        problem = interval_problem(5, density=300)
        _, reduction = reduce_samples(problem.samples, problem.degree)
        assert reduction.matrix.shape == \
            (problem.samples.shape[0], reduction.back_map.shape[1])


class TestScalingStudy:
    def test_interval_interior_exponent_near_one(self):
        germ = builtin_germs()["interval_interior"]
        fit = scaling_study(germ, degrees=(3, 5, 7, 9),
                            epsilons=(0.5, 0.25, 0.125, 0.0625),
                            density=160)
        assert fit.alpha_deg == pytest.approx(1.0, abs=0.1)
        assert len(fit.design) == 16

    def test_largest_epsilon_excluded_from_fit(self):
        germ = builtin_germs()["interval_interior"]
        fit = scaling_study(germ, degrees=(3, 5, 7),
                            epsilons=(0.5, 0.25, 0.125, 0.0625),
                            density=120)
        excluded = [row for row in fit.design if not row[3]]
        assert len(excluded) == 3
        assert all(row[1] == 0.5 for row in excluded)

    def test_needs_three_distinct_degrees(self):
        germ = builtin_germs()["interval_interior"]
        with pytest.raises(DomainError):
            scaling_study(germ, degrees=(3, 5),
                          epsilons=(0.5, 0.25, 0.125, 0.0625), density=80)

    def test_cell_failure_names_the_cell(self):
        germ = builtin_germs()["interval_interior"]
        with pytest.raises(NumericError) as info:
            scaling_study(germ, degrees=(3, 5, 7),
                          epsilons=(0.5, 0.25, 0.125, 0.0625), density=2)
        assert "scaling cell degree=" in str(info.value)

    @pytest.mark.parametrize("epsilon", [0.0, -0.25, 1.5, math.nan,
                                         math.inf])
    def test_epsilon_outside_unit_interval_rejected(self, monkeypatch,
                                                    epsilon):
        # epsilon 0 once sampled the basepoint alone and failed in the
        # basis ("direction leaves the sampled slice").
        sampled = []
        monkeypatch.setattr(markov_lp, "sample_real_trace",
                            lambda *args: sampled.append(args))
        with pytest.raises(DomainError, match=r"epsilon must lie in"):
            scaling_study(builtin_germs()["cusp_2_3"], (2, 3, 4),
                          (0.5, 0.25, 0.125, epsilon), 40)
        assert sampled == []

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_rejected(self, monkeypatch, degree):
        # Degree 0 once solved every cell and failed in the fit
        # ("nonpositive Markov factor"); degree -1 sampled first.
        sampled = []
        monkeypatch.setattr(markov_lp, "sample_real_trace",
                            lambda *args: sampled.append(args))
        with pytest.raises(DomainError, match=r"degree must be at least 1"):
            scaling_study(builtin_germs()["cusp_2_3"], (2, 3, 4, degree),
                          (0.5, 0.25, 0.125), 40)
        assert sampled == []

    def test_programming_errors_are_not_numeric_failures(self,
                                                          monkeypatch):
        def broken(problem):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(markov_lp, "markov_factor", broken)
        germ = builtin_germs()["interval_interior"]
        with pytest.raises(TypeError, match="not a numeric failure"):
            scaling_study(germ, degrees=(3, 5, 7),
                          epsilons=(0.5, 0.25, 0.125, 0.0625), density=80)

    def test_fit_scaling_recovers_planted_exponents(self):
        rng = np.random.default_rng(21)
        rows = []
        for n in (2, 3, 5, 8, 13):
            for eps in (0.5, 0.25, 0.125, 0.0625):
                value = 3.0 * n**1.7 / eps**0.9
                value *= 1.0 + 1e-4 * rng.uniform(-1, 1)
                rows.append((n, eps, value, True))
        fit = fit_scaling(rows)
        assert fit.alpha_deg == pytest.approx(1.7, abs=1e-3)
        assert fit.alpha_eps == pytest.approx(0.9, abs=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_factor_rejected(self, bad):
        # Both once slipped past the nonpositive test and gave a fit
        # whose exponents were all NaN.
        rows = [(n, eps, n * n / eps, True)
                for n in (2, 3, 4) for eps in (0.5, 0.25, 0.125)]
        rows[4] = rows[4][:2] + (bad, True)
        with pytest.raises(NumericError, match="non-finite Markov factor"):
            fit_scaling(rows)


CUSP_DEGREES = (2, 3, 4, 6, 8, 12)
DYADIC_EPSILONS = (0.5, 0.25, 0.125, 0.0625)
NON_DYADIC_EPSILONS = (0.5, 0.3, 0.2, 0.1)


def counted_reductions(monkeypatch):
    """Record the shape of every matrix _reduce_columns reduces."""
    shapes = []
    original = markov_lp._reduce_columns

    def counted(matrix):
        shapes.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(markov_lp, "_reduce_columns", counted)
    return shapes


def cold_cell_factors(germ, degrees, epsilons, density):
    """Each grid cell solved as a fresh _StudyCell, with its own
    _Study and so no basis to start from: the cold path."""
    samples = {eps: sample_real_trace(germ, eps, density)
               for eps in epsilons}
    direction = tuple(tangent_vector(germ))
    return [markov_factor(markov_lp._StudyCell(
        samples=samples[eps], x0=germ.basepoint, v=direction, degree=n,
        study=markov_lp._Study())).factor
        for n in degrees for eps in epsilons]


def same_bits(first, second):
    return np.float64(first).tobytes() == np.float64(second).tobytes()


class TestReductionReuse:
    """scaling_study reduces each distinct sample matrix once, exactly."""

    @pytest.mark.parametrize("epsilons",
                             [DYADIC_EPSILONS, NON_DYADIC_EPSILONS])
    def test_factors_match_fresh_study_cells_bit_for_bit(self, monkeypatch,
                                                         epsilons):
        # A cell that kept a certified warm solve is within 1e-9 of the
        # cold path; every other cell has its bits.
        germ = builtin_germs()["cusp_2_3"]
        cells = recorded_cells(monkeypatch)
        fit = scaling_study(germ, CUSP_DEGREES, epsilons, density=120)
        monkeypatch.undo()
        expected = cold_cell_factors(germ, CUSP_DEGREES, epsilons, 120)
        assert [row[:2] for row in fit.design] == \
            [(n, eps) for n in CUSP_DEGREES for eps in epsilons]
        assert any(map(kept_warm, cells))
        for (_, _, factor, _), solves, cold in zip(fit.design, cells,
                                                   expected):
            if kept_warm(solves):
                assert math.isclose(factor, cold, rel_tol=1e-9,
                                    abs_tol=0.0)
            else:
                assert same_bits(factor, cold)

    def test_dyadic_grid_reduces_once_per_degree(self, monkeypatch):
        shapes = counted_reductions(monkeypatch)
        sampled = []
        original = markov_lp.sample_real_trace

        def counted(germ, epsilon, density):
            sampled.append(epsilon)
            return original(germ, epsilon, density)

        monkeypatch.setattr(markov_lp, "sample_real_trace", counted)
        scaling_study(builtin_germs()["cusp_2_3"], CUSP_DEGREES,
                      DYADIC_EPSILONS, density=120)
        assert len(shapes) == len(CUSP_DEGREES)
        assert sampled == list(DYADIC_EPSILONS)

    def test_distinct_matrices_get_their_own_reduction(self, monkeypatch):
        # 0.3 is no dyadic multiple of 0.5 or 0.2, but 0.1 is half of 0.2,
        # so each degree has three distinct sample matrices.
        shapes = counted_reductions(monkeypatch)
        scaling_study(builtin_germs()["cusp_2_3"], CUSP_DEGREES,
                      NON_DYADIC_EPSILONS, density=120)
        assert len(shapes) == 3 * len(CUSP_DEGREES)

    @pytest.mark.parametrize("change", ["zero_sign", "one_ulp"])
    def test_one_bit_apart_is_not_the_same_matrix(self, monkeypatch,
                                                  change):
        matrix = np.array([[1.0, 0.0, 0.25], [1.0, 0.5, -0.75],
                           [1.0, -0.5, 0.5], [1.0, 1.0, 1.0]])
        other = matrix.copy()
        if change == "zero_sign":
            other[0, 1] = -0.0
            # np.array_equal would take the two for one.
            assert np.array_equal(matrix, other)
        else:
            other[1, 1] = np.nextafter(0.5, 1.0)
        shapes = counted_reductions(monkeypatch)
        study = markov_lp._Study()
        first = study.reduce(matrix)
        assert study.reduce(matrix.copy()) is first
        second = study.reduce(other)
        assert second is not first
        assert second.matrix is other
        assert study.reduce(matrix) is not second
        assert len(shapes) == 3

    def test_comparison_copies_no_matrix(self):
        samples = sample_real_trace(builtin_germs()["cusp_2_3"], 0.5, 300)
        matrix = PolynomialBasis.from_points(samples, 12).evaluate(samples)
        other = matrix.copy()
        study = markov_lp._Study()
        first = study.reduce(matrix)
        tracemalloc.start()
        try:
            assert study.reduce(other) is first
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes / 8

    def test_old_reduction_is_dropped_before_the_next(self, monkeypatch):
        study = markov_lp._Study()
        old = weakref.ref(study.reduce(np.eye(3)))
        alive = []
        original = markov_lp._reduce_columns

        def recording(matrix):
            alive.append(old() is not None)
            return original(matrix)

        monkeypatch.setattr(markov_lp, "_reduce_columns", recording)
        study.reduce(2.0 * np.eye(3))
        assert alive == [False]


def direct_reduction(matrix):
    """(condition, back_map, matrix) of _reduce_columns, taken from the
    direct SVD of the whole matrix."""
    singular, vt = np.linalg.svd(matrix, full_matrices=False)[1:]
    cutoff = singular[0] * max(matrix.shape) * np.finfo(float).eps
    rank = int(np.sum(singular > cutoff))
    condition = float(singular[0] / singular[rank - 1])
    if rank == matrix.shape[1]:
        return condition, np.eye(rank), matrix
    return condition, vt[:rank].T, matrix @ vt[:rank].T


def planar_star_matrix(degree):
    """The matrix _siciak_planar reduces for green_cross_star's four
    rays: 6,400 rows (density 200, 8 half phases)."""
    matrices = []
    reduce_columns = extremal_green._reduce_columns

    def recording(matrix):
        matrices.append(matrix.copy())
        return reduce_columns(matrix)

    points = extremal_green.star_points(
        (0.0, math.pi / 2, math.pi, 3 * math.pi / 2), 1.0, 200)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extremal_green, "_reduce_columns", recording)
        extremal_green.siciak_lp(points, extremal_green.GREEN_PROBES[:1],
                                 degree)
    (matrix,) = matrices
    return matrix


class TestReductionPaths:
    """_reduce_columns takes a tall matrix's SVD from its R factor, which
    is the path LAPACK's dgesdd takes inside the direct SVD, so the bits
    are those of the direct SVD."""

    def assert_direct_bits(self, monkeypatch, matrix, tall):
        factored = []
        qr = np.linalg.qr

        def recording(array, mode="reduced"):
            factored.append(array.shape)
            return qr(array, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        reduction = markov_lp._reduce_columns(matrix)
        assert factored == ([matrix.shape] if tall else [])
        condition, back_map, reduced = direct_reduction(matrix)
        assert np.float64(reduction.condition).tobytes() == \
            np.float64(condition).tobytes()
        for got, expected in ((reduction.back_map, back_map),
                              (reduction.matrix, reduced)):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degree", range(2, 13))
    @pytest.mark.parametrize("density", [120, 300])
    @pytest.mark.parametrize("germ_id", sorted(builtin_germs()))
    def test_germ_trace_keeps_the_direct_bits(self, monkeypatch, germ_id,
                                              density, degree):
        samples = sample_real_trace(builtin_germs()[germ_id], 0.5, density)
        matrix = PolynomialBasis.from_points(samples, degree).evaluate(
            samples)
        rows, cols = matrix.shape
        assert rows >= int(cols * 11 / 6)
        self.assert_direct_bits(monkeypatch, matrix, tall=True)

    @pytest.mark.parametrize("degree", [4, 8, 12])
    def test_planar_star_keeps_the_direct_bits(self, monkeypatch, degree):
        matrix = planar_star_matrix(degree)
        assert matrix.shape == (6400, 2 * (degree + 1))
        self.assert_direct_bits(monkeypatch, matrix, tall=True)

    def test_short_matrix_takes_the_direct_path(self, monkeypatch):
        # Degree 12 on 160 cusp samples: 160 < int(91 * 11 / 6) = 166,
        # where dgesdd bidiagonalizes the matrix itself.
        samples = sample_real_trace(builtin_germs()["cusp_2_3"], 0.5, 80)
        matrix = PolynomialBasis.from_points(samples, 12).evaluate(samples)
        assert matrix.shape == (160, 91)
        self.assert_direct_bits(monkeypatch, matrix, tall=False)


def box_basis(germ, degree=4):
    """Degree-``degree`` basis on the box of half-width 1 around x0."""
    x0 = np.asarray(germ.basepoint)
    return PolynomialBasis.from_points(np.array([x0 - 1.0, x0 + 1.0]), degree)


class TestCauchyDerivativeCheck:
    def test_coordinate_polynomial_is_extremal(self):
        germ = builtin_germs()["cusp_2_3"]
        basis = box_basis(germ)
        # T_1 of the first coordinate: p(x, y) = x on this box.
        coeffs = np.array([alpha == (1, 0) for alpha in basis.indices],
                          dtype=float)
        report = cauchy_derivative_check(germ, basis, coeffs, radius=0.5)
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-12)
        assert report.order == 2

    def test_random_polynomials_satisfy_bound(self):
        germ = builtin_germs()["cusp_2_3"]
        basis = box_basis(germ)
        rng = np.random.default_rng(40)
        for trial in range(30):
            coeffs = rng.uniform(-1, 1, basis.count)
            report = cauchy_derivative_check(germ, basis, coeffs, radius=0.6)
            assert report.holds, f"trial {trial}: slack {report.slack}"

    @pytest.mark.parametrize("seed", range(10))
    def test_random_polynomials_hold_on_every_cusp(self, seed):
        # 50 random polynomials per cusp on its degree-4 box basis at
        # radius 0.25, where the tangent coordinate is tight.
        rng = np.random.default_rng(seed)
        for germ_id in ("cusp_2_3", "cusp_2_5", "cusp_3_4"):
            germ = builtin_germs()[germ_id]
            basis = box_basis(germ)
            for trial in range(50):
                coeffs = rng.uniform(-1.0, 1.0, basis.count)
                report = cauchy_derivative_check(germ, basis, coeffs, 0.25)
                assert report.holds, (germ_id, trial, report.slack)

    @pytest.mark.parametrize("degree", [4, 6, 8])
    def test_markov_extremal_polynomial_satisfies_bound(self, degree):
        germ = builtin_germs()["cusp_2_3"]
        result = markov_factor(MarkovProblem(
            samples=sample_real_trace(germ, 0.25, 120), x0=germ.basepoint,
            v=tangent_vector(germ), degree=degree))
        report = cauchy_derivative_check(germ, result.basis,
                                         result.coefficients, radius=0.25)
        assert report.holds, f"slack {report.slack}"
        assert report.lhs == pytest.approx(result.factor, rel=1e-11)

    def test_radius_must_sit_inside_unit_disk(self):
        germ = builtin_germs()["cusp_2_3"]
        basis = box_basis(germ)
        with pytest.raises(DomainError):
            cauchy_derivative_check(germ, basis, np.ones(basis.count),
                                    radius=1.0)


def recorded_solves(monkeypatch):
    """Record every solution markov_lp's solver returns, in order."""
    solutions = []
    original = markov_lp.solve_sup_norm_lp

    def recording(constraints, objective, crash_rows=None):
        solutions.append(original(constraints, objective,
                                  crash_rows=crash_rows))
        return solutions[-1]

    monkeypatch.setattr(markov_lp, "solve_sup_norm_lp", recording)
    return solutions


def recorded_cells(monkeypatch):
    """One list per markov_factor call, in order, of the (warm,
    solution) pairs of its solves; warm ones were crash-started."""
    cells = []
    solve = markov_lp.solve_sup_norm_lp
    factor = markov_lp.markov_factor

    def recording_solve(constraints, objective, crash_rows=None):
        solution = solve(constraints, objective, crash_rows=crash_rows)
        cells[-1].append((crash_rows is not None, solution))
        return solution

    def recording_factor(problem):
        cells.append([])
        return factor(problem)

    monkeypatch.setattr(markov_lp, "solve_sup_norm_lp", recording_solve)
    monkeypatch.setattr(markov_lp, "markov_factor", recording_factor)
    return cells


def kept_warm(solves):
    """Whether a cell kept its warm solve: it is first, and certified."""
    warm, solution = solves[0]
    return warm and solution.certified


def basic_solution(constraints, objective, solution):
    """The basic solution ``u`` at a full support: row j, or the
    negated row for its mirror M + j, is one column of the basis."""
    rows = constraints.shape[0]
    support = solution.support
    assert support.size == objective.size
    signs = np.where(support < rows, 1.0, -1.0)
    return np.linalg.solve((signs[:, None] * constraints[support % rows]).T,
                           objective)


def passes_sign_test(u):
    return u.min() >= -FEASIBILITY_TOL * (1.0 + np.abs(u).sum())


class TestCertificate:
    """Solves that miss SupNormSolution.certified on the residual or on
    the sign of u; TestPhaseTwoArtificials has one with a basic
    artificial."""

    def test_residual_fails_the_certificate(self):
        constraints, functional = derivative_lp(
            germ_problem("cusp_2_5", 0.25, 120, 6))
        forward = solve_sup_norm_lp(constraints, functional)
        assert passes_sign_test(
            basic_solution(constraints, functional, forward))
        assert forward.max_residual > FEASIBILITY_TOL
        assert not forward.certified
        # The mirrored value is larger, so the fallback matters here.
        mirrored = solve_sup_norm_lp(constraints, -functional)
        assert mirrored.value > forward.value * (1.0 + 1e-12)

    def test_negative_basic_solution_fails_the_certificate(self):
        constraints, functional = derivative_lp(
            germ_problem("cusp_2_5", 0.125, 120, 6))
        forward = solve_sup_norm_lp(constraints, functional)
        assert forward.max_residual <= FEASIBILITY_TOL
        assert not passes_sign_test(
            basic_solution(constraints, functional, forward))
        assert not forward.certified
        mirrored = solve_sup_norm_lp(constraints, -functional)
        assert mirrored.certified
        assert mirrored.value > forward.value


class TestOrientations:
    """markov_factor solves both orientations unless a study cell's
    forward solve is certified."""

    def test_lone_problem_solves_both_orientations(self, monkeypatch):
        solutions = recorded_solves(monkeypatch)
        result = markov_factor(germ_problem("interval_interior", 0.5, 120,
                                            6))
        assert len(solutions) == 2
        assert solutions[0].certified
        assert result.factor == max(s.value for s in solutions)

    @pytest.mark.parametrize("germ_id, epsilon, solves", [
        ("interval_interior", 0.5, 1), ("cusp_2_5", 0.125, 2)])
    def test_study_cell_stops_at_a_certified_forward_solve(
            self, monkeypatch, germ_id, epsilon, solves):
        # Degree 6, density 120: cusp_2_5's forward solve at eps 0.125
        # has a negative basic solution.
        problem = germ_problem(germ_id, epsilon, 120, 6)
        cell = markov_lp._StudyCell(
            samples=problem.samples, x0=problem.x0, v=problem.v,
            degree=problem.degree, study=markov_lp._Study())
        solutions = recorded_solves(monkeypatch)
        result = markov_factor(cell)
        assert len(solutions) == solves
        assert solutions[0].certified == (solves == 1)
        assert result.factor == max(s.value for s in solutions)

    def test_study_is_the_only_switch(self):
        names = [field.name for field in fields(MarkovProblem)]
        assert names == ["samples", "x0", "v", "degree"]
        for name in ("reduce_columns", "one_orientation"):
            assert not hasattr(MarkovProblem, name)
            assert not hasattr(markov_lp._StudyCell, name)
        assert [field.name for field in fields(markov_lp._StudyCell)] == \
            names + ["study"]

    def test_lone_calls_share_no_state(self, monkeypatch):
        problem = germ_problem("interval_interior", 0.5, 120, 6)
        cells = recorded_cells(monkeypatch)
        first = markov_lp.markov_factor(problem)
        second = markov_lp.markov_factor(problem)
        assert [[warm for warm, _ in cell] for cell in cells] == \
            [[False, False], [False, False]]
        assert same_bits(first.factor, second.factor)

    @pytest.mark.parametrize("density", [120, 300])
    @pytest.mark.parametrize("germ_id", sorted(builtin_germs()))
    def test_study_cells_match_markov_factor(self, monkeypatch, germ_id,
                                             density):
        # The scan workload's grid: cusp_2_5 and cusp_3_4 exceed
        # CONDITION_LIMIT at degree 12.
        germ = builtin_germs()[germ_id]
        degrees = CUSP_DEGREES[:-1] if germ_id in ("cusp_2_5", "cusp_3_4") \
            else CUSP_DEGREES
        cells = recorded_cells(monkeypatch)
        fit = scaling_study(germ, degrees, DYADIC_EPSILONS, density)
        monkeypatch.undo()
        for (n, eps, factor, _), solves in zip(fit.design, cells):
            expected = markov_factor(
                germ_problem(germ_id, eps, density, n)).factor
            # A warm solve that is not certified gives way to the cold
            # path, whose first solve is the forward one.
            if not kept_warm(solves):
                solves = [pair for pair in solves if not pair[0]]
            solution = solves[0][1]
            if solution.certified:
                assert factor == solution.value
                assert math.isclose(factor, expected, rel_tol=1e-9,
                                    abs_tol=0.0)
            else:
                assert same_bits(factor, expected)


class TestWarmStart:
    """A study cell after the first on a reduction is crash-started from
    the last certified basis on it, and keeps that solve if certified."""

    def test_later_cells_of_a_degree_are_warm(self, monkeypatch):
        cells = recorded_cells(monkeypatch)
        fit = scaling_study(builtin_germs()["cusp_2_3"], CUSP_DEGREES,
                            DYADIC_EPSILONS, density=120)
        width = len(DYADIC_EPSILONS)
        for start in range(0, len(cells), width):
            first, *later = cells[start:start + width]
            assert [warm for warm, _ in first] == [False]
            row = fit.design[start + 1:start + width]
            for (n, _, factor, _), solves in zip(row, later):
                ((warm, solution),) = solves
                assert warm and solution.certified
                assert factor == solution.value
                # At degree 12 (condition 4.8e8) the crash tableau reads
                # reduced costs down to -6.7e-9 at the certified basis:
                # three columns price in on that noise and leave again.
                assert solution.iterations <= (3 if n == 12 else 0)
            # eps halves and the factor grows 4-fold, exactly: at
            # degree 12, 41721.651192398385 * 4 = 166886.60476959354.
            factors = [cell[2] for cell in row]
            assert factors[1:] == [4.0 * factor for factor in factors[:-1]]

    @pytest.mark.parametrize("failure", ["uncertified", "raises"])
    def test_failed_warm_solve_takes_the_cold_path(self, monkeypatch,
                                                   failure):
        germ = builtin_germs()["cusp_2_3"]
        degrees = (2, 3, 4)
        expected = cold_cell_factors(germ, degrees, DYADIC_EPSILONS, 120)
        original = markov_lp.solve_sup_norm_lp
        warm = []

        def failing(constraints, objective, crash_rows=None):
            solution = original(constraints, objective,
                                crash_rows=crash_rows)
            if crash_rows is None:
                return solution
            warm.append(solution)
            if failure == "raises":
                raise SimplexError("warm start failed")
            return replace(solution, certified=False)

        monkeypatch.setattr(markov_lp, "solve_sup_norm_lp", failing)
        fit = scaling_study(germ, degrees, DYADIC_EPSILONS, density=120)
        assert len(warm) == len(degrees) * (len(DYADIC_EPSILONS) - 1)
        assert all(same_bits(row[2], cold)
                   for row, cold in zip(fit.design, expected))

    def test_matrix_one_bit_apart_gets_no_warm_start(self, monkeypatch):
        problem = germ_problem("cusp_2_3", 0.5, 120, 4)
        samples = np.asarray(problem.samples)
        nudged = samples.copy()
        nudged[5, 1] = np.nextafter(nudged[5, 1], np.inf)
        study = markov_lp._Study()
        cells = recorded_cells(monkeypatch)
        for cell_samples in (samples, nudged, samples, samples.copy()):
            markov_lp.markov_factor(markov_lp._StudyCell(
                samples=cell_samples, x0=problem.x0, v=problem.v,
                degree=problem.degree, study=study))
        assert all(solution.certified for cell in cells
                   for _, solution in cell)
        assert [cell[0][0] for cell in cells] == [False, False, False,
                                                  True]
        study.reduce(nudged)
        assert study.rows is None


class TestPhaseTwoArtificials:
    """A cell where the forward simplex solve alone ends on a wrong basis.

    Artificials left basic at zero after phase one grow during phase
    two, so the forward objective returns 0.0 while the mirrored one
    (and HiGHS) reach the optimum.  ``markov_factor`` is right only
    because it takes the larger of both orientations.
    """

    OPTIMUM = 184.0444695071

    def problem(self):
        germ = builtin_germs()["parabola_regular"]
        return MarkovProblem(samples=sample_real_trace(germ, 0.125, 300),
                             x0=germ.basepoint, v=tangent_vector(germ),
                             degree=12)

    def test_markov_factor_reaches_optimum(self):
        result = markov_factor(self.problem())
        assert result.factor == pytest.approx(self.OPTIMUM, rel=1e-9)

    def test_forward_solve_is_not_certified(self):
        constraints, functional = derivative_lp(self.problem())
        forward = solve_sup_norm_lp(constraints, functional)
        # An artificial is basic: the support is short of a full basis.
        assert forward.support.size < functional.size
        assert not forward.certified
        assert solve_sup_norm_lp(constraints, -functional).certified

    @pytest.mark.xfail(strict=True, reason="phase two lets basic "
                       "artificials grow; the forward solve returns 0.0")
    def test_forward_solve_reaches_optimum(self):
        constraints, functional = derivative_lp(self.problem())
        forward = solve_sup_norm_lp(constraints, functional)
        assert forward.value == pytest.approx(self.OPTIMUM, rel=1e-9)
