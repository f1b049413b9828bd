"""Discrete Markov factors, scaling fits, and the Cauchy-integral check."""

import itertools
import math

import numpy as np
import pytest

from markov_curves import markov_lp
from markov_curves.curve_model import DomainError, builtin_germs, \
    sample_real_trace, tangent_vector
from markov_curves.lp import UnboundedProblemError, solve_sup_norm_lp
from markov_curves.markov_lp import (ConditioningError, MarkovProblem,
                                     NumericError, PolynomialBasis, SampledLp,
                                     TooFewPointsError, _chebyshev_table,
                                     cauchy_derivative_check, fit_scaling,
                                     markov_factor, scaling_study)


def interval_problem(degree, epsilon=1.0, density=400, x0=1.0):
    germ = builtin_germs()["interval_interior"]
    samples = sample_real_trace(germ, epsilon, density)
    return MarkovProblem(samples=samples, x0=np.array([x0, 0.0]),
                         v=np.array([1.0, 0.0]), degree=degree)


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
        sampled = SampledLp(samples, 12)
        assert sampled.constraints.shape[1] == 36
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
        matrix = np.ones((10, 3))
        matrix[1, 0] = np.nan
        with pytest.raises(ConditioningError, match="SVD did not converge"):
            markov_lp._reduce_columns(matrix)

    def test_infinite_entry_is_a_conditioning_error(self):
        # The SVD converges to NaN singular values here; read as rank 0,
        # they made project report an unresolved component instead.
        matrix = np.ones((4, 2))
        matrix[1, 0] = np.inf
        with pytest.raises(ConditioningError, match="non-finite"):
            markov_lp._reduce_columns(matrix)

    def test_unbounded_solve_is_not_too_few_samples(self, monkeypatch):
        def unbounded(constraints, objective):
            raise UnboundedProblemError("phase one ended above zero")

        monkeypatch.setattr(markov_lp, "solve_sup_norm_lp", unbounded)
        with pytest.raises(UnboundedProblemError):
            markov_factor(interval_problem(3, density=50))

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
        sampled = SampledLp(problem.samples, problem.degree)
        assert sampled.constraints.shape == \
            (problem.samples.shape[0], sampled.reduction.back_map.shape[1])


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

    @pytest.mark.xfail(strict=True, reason="phase two lets basic "
                       "artificials grow; the forward solve returns 0.0")
    def test_forward_solve_reaches_optimum(self):
        problem = self.problem()
        x0 = np.asarray(problem.x0, dtype=float)
        v = np.asarray(problem.v, dtype=float)
        sampled = SampledLp(problem.samples, problem.degree)
        functional = sampled.reduction.project(
            sampled.basis.derivative_row(x0, v))
        forward = solve_sup_norm_lp(sampled.constraints, functional)
        assert forward.value == pytest.approx(self.OPTIMUM, rel=1e-9)
