"""Discrete Markov factors, scaling fits, and the Cauchy-integral check."""

import itertools
import math

import numpy as np
import pytest

from markov_curves import markov_lp
from markov_curves.curve_model import DomainError, builtin_germs, \
    sample_real_trace, tangent_vector
from markov_curves.markov_lp import (ConditioningError, MarkovProblem,
                                     NumericError, PolynomialBasis, SampledLp,
                                     TooFewSamplesError, _chebyshev_table,
                                     cauchy_derivative_check,
                                     evaluate_monomials, fit_scaling,
                                     markov_factor, monomial_gradient,
                                     scaling_study)
from markov_curves.rng import Lcg, random_bivariate


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
        lcg = Lcg(7)
        pts = rng.uniform(-1, 1, size=(30, 2))
        basis = PolynomialBasis.from_points(pts, 4)
        for trial in range(6):
            x0 = rng.uniform(-0.5, 0.5, size=2)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            row = basis.derivative_row(x0, v)
            coeffs = np.array([lcg.uniform() for _ in range(basis.count)])
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
        with pytest.raises(TooFewSamplesError):
            markov_factor(problem)

    def test_ill_conditioned_basis_is_reported(self):
        germ = builtin_germs()["cusp_2_5"]
        samples = sample_real_trace(germ, 0.5, 120)
        problem = MarkovProblem(samples=samples, x0=np.zeros(2),
                                v=tangent_vector(germ), degree=12)
        with pytest.raises(ConditioningError):
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
        lcg = Lcg(21)
        rows = []
        for n in (2, 3, 5, 8, 13):
            for eps in (0.5, 0.25, 0.125, 0.0625):
                value = 3.0 * n**1.7 / eps**0.9
                value *= 1.0 + 1e-4 * lcg.uniform()
                rows.append((n, eps, value, True))
        fit = fit_scaling(rows)
        assert fit.alpha_deg == pytest.approx(1.7, abs=1e-3)
        assert fit.alpha_eps == pytest.approx(0.9, abs=1e-3)


class TestMonomialHelpers:
    def test_evaluate_monomials_oracle(self):
        coeffs = {(0, 0): 1.0, (2, 1): -3.0}
        pts = np.array([[0.5, 2.0], [1.0, -1.0]])
        np.testing.assert_allclose(evaluate_monomials(coeffs, pts),
                                   [1.0 - 3.0 * 0.25 * 2.0, 4.0])

    def test_monomial_gradient_oracle(self):
        coeffs = {(1, 0): 2.0, (1, 1): 1.0, (0, 2): -1.0}
        grad = monomial_gradient(coeffs, np.array([0.5, 3.0]))
        np.testing.assert_allclose(grad, [2.0 + 3.0, 0.5 - 6.0])


class TestCauchyDerivativeCheck:
    def test_coordinate_polynomial_is_extremal(self):
        germ = builtin_germs()["cusp_2_3"]
        report = cauchy_derivative_check(germ, {(1, 0): 1.0}, radius=0.5)
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-12)
        assert report.order == 2

    def test_random_polynomials_satisfy_bound(self):
        germ = builtin_germs()["cusp_2_3"]
        lcg = Lcg(40)
        for trial in range(30):
            coeffs = random_bivariate(lcg, 4)
            report = cauchy_derivative_check(germ, coeffs, radius=0.6)
            assert report.holds, f"trial {trial}: slack {report.slack}"

    def test_radius_must_sit_inside_unit_disk(self):
        germ = builtin_germs()["cusp_2_3"]
        with pytest.raises(DomainError):
            cauchy_derivative_check(germ, {(1, 0): 1.0}, radius=1.0)


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
        forward = sampled.solve(sampled.basis.derivative_row(x0, v),
                                phases=(1.0,))
        assert forward.value == pytest.approx(self.OPTIMUM, rel=1e-9)
