"""Green functions, the Siciak LP, HCP fits, and the inequality checkers."""

import math

import numpy as np
import pytest

from markov_curves.curve_model import (DomainError, builtin_germs,
                                       chebyshev_grid, sample_real_trace)
from markov_curves.extremal_green import (DegenerateSegmentError,
                                          GreenEvaluation, ProbeRuleError,
                                          TooFewPointsError,
                                          bernstein_walsh_check,
                                          green_interval, green_segment,
                                          hcp_fit, segment_disk_bound_check,
                                          siciak_lp, star_domination_check,
                                          star_points)

LOG_2_PLUS_SQRT3 = 1.3169578969248166
LOG_1_PLUS_SQRT2 = 0.8813735870195430
LOG_3_PLUS_2SQRT2 = 1.7627471740390861


class TestClosedForms:
    def test_frozen_values(self):
        assert green_interval(2.0) == pytest.approx(LOG_2_PLUS_SQRT3,
                                                    abs=1e-15)
        assert green_interval(1j) == pytest.approx(LOG_1_PLUS_SQRT2,
                                                   abs=1e-15)
        # [0, eps] probed at -eps maps to -3 on the reference interval.
        assert green_segment(-0.25, 0.0, 0.25) == pytest.approx(
            LOG_3_PLUS_2SQRT2, abs=1e-14)

    def test_vanishes_on_the_interval(self):
        for x in chebyshev_grid(-1.0, 1.0, 41):
            assert green_interval(x) == 0.0

    def test_symmetries(self):
        for z in (1.7, 0.4 + 1.2j, -2.0 + 0.1j):
            assert green_interval(z) == pytest.approx(green_interval(-z),
                                                      abs=1e-14)
            assert green_interval(z) == pytest.approx(
                green_interval(z.conjugate()), abs=1e-14)

    def test_growth_is_logarithmic(self):
        big = 1e8
        assert green_interval(big) == pytest.approx(math.log(2 * big),
                                                    rel=1e-9)

    def test_segment_reduces_to_interval(self):
        for z in (2.0, 1 + 1j, -3.0):
            assert green_segment(z, -1.0, 1.0) == pytest.approx(
                green_interval(z), abs=1e-14)

    def test_segment_affine_invariance(self):
        a, b = 0.3 - 0.4j, 1.1 + 0.2j
        mid = (a + b) / 2
        half = (b - a) / 2
        for w in (2.0, -1.5 + 0.7j):
            assert green_segment(mid + half * w, a, b) == pytest.approx(
                green_interval(w), abs=1e-13)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            green_segment(1.0, 0.5, 0.5)


def test_green_evaluation_validates_fields():
    GreenEvaluation(value=0.1)
    with pytest.raises(DomainError):
        GreenEvaluation(value=-0.1)


class TestStarPoints:
    def test_counts_and_radii(self):
        pts = star_points((0.0, math.pi), 0.5, 8)
        assert pts.shape == (16,)
        assert np.max(np.abs(pts)) <= 0.5 + 1e-15
        assert np.any(pts == 0.0)
        assert np.any(np.isclose(pts, 0.5))
        assert np.any(np.isclose(pts, -0.5))

    def test_validation(self):
        with pytest.raises(DomainError):
            star_points((), 0.5, 8)
        with pytest.raises(DomainError):
            star_points((0.0,), -1.0, 8)
        with pytest.raises(DomainError):
            star_points((0.0,), 0.5, 1)


class TestSiciakLp:
    def test_matches_interval_green_at_reference_points(self):
        samples = chebyshev_grid(-1.0, 1.0, 2001)
        for z in (2.0, 1 + 1j, -3.0):
            ev = siciak_lp(samples, z, degree=16, facets=16)
            target = green_interval(z)
            assert abs(ev.value - target) <= 0.02 + ev.facet_slack

    def test_zero_at_a_sample_point(self):
        samples = chebyshev_grid(-1.0, 1.0, 101)
        inside = siciak_lp(samples, complex(samples[30]), degree=10)
        assert inside.value <= inside.facet_slack + 1e-12

    def test_monotone_under_point_removal(self):
        samples = chebyshev_grid(-1.0, 1.0, 201)
        full = siciak_lp(samples, 2.0, degree=12).value
        thinned = siciak_lp(samples[::4], 2.0, degree=12).value
        assert thinned >= full - 1e-12

    def test_planar_star_at_member_point(self):
        pts = star_points((0.0, math.pi / 2, math.pi, 3 * math.pi / 2),
                          0.5, 30)
        ev = siciak_lp(pts, 0.0, degree=6, facets=16)
        assert ev.value <= ev.facet_slack + 1e-9

    def test_polar_configuration_is_reported(self):
        samples = np.array([0.0, 0.1, 0.2])
        with pytest.raises(TooFewPointsError):
            siciak_lp(samples, 2.0, degree=8)

    @pytest.mark.parametrize("z", [(1.0, 0.0), (1.0 + 1.0j, 0.0)],
                             ids=["real", "nonreal"])
    def test_unresolved_evaluation_is_too_few_points(self, z):
        # Samples on the line y = x span only the polynomials in t, so
        # evaluation off the line has a component they cannot see.
        t = np.linspace(-1.0, 1.0, 40)
        samples = np.column_stack([t, t])
        with pytest.raises(TooFewPointsError, match="unresolved component"):
            siciak_lp(samples, np.array(z), degree=2)

    def test_argument_validation(self):
        samples = chebyshev_grid(-1.0, 1.0, 50)
        with pytest.raises(DomainError):
            siciak_lp(samples, 2.0, degree=0)
        with pytest.raises(DomainError):
            siciak_lp(samples, 2.0, degree=8, facets=4)


class TestHcpFit:
    def test_interval_endpoint_exponent_is_half(self):
        deltas = np.logspace(-4, -1, 10)
        fit = hcp_fit(green_interval, deltas, lambda d: 1.0 + d)
        assert fit.alpha == pytest.approx(0.5, abs=0.03)
        assert fit.r_squared > 0.999
        assert fit.deltas[0] > fit.deltas[-1]

    def test_interval_interior_exponent_is_one(self):
        deltas = np.logspace(-4, -1, 8)
        fit = hcp_fit(green_interval, deltas, lambda d: complex(0.0, d))
        assert fit.alpha == pytest.approx(1.0, abs=0.03)

    def test_needs_four_deltas_spanning_two_decades(self):
        with pytest.raises(DomainError):
            hcp_fit(green_interval, [0.1, 0.05, 0.02], lambda d: 1.0 + d)
        with pytest.raises(DomainError):
            hcp_fit(green_interval, [0.1, 0.09, 0.08, 0.07],
                    lambda d: 1.0 + d)

    def test_probe_inside_the_set_is_an_error(self):
        deltas = np.logspace(-4, -1, 6)
        with pytest.raises(ProbeRuleError):
            hcp_fit(green_interval, deltas, lambda d: 0.5)


class TestBernsteinWalsh:
    def test_chebyshev_saturates_the_envelope(self):
        coeffs = np.polynomial.chebyshev.cheb2poly([0.0] * 8 + [1.0])
        samples = chebyshev_grid(-1.0, 1.0, 400)
        report = bernstein_walsh_check(coeffs, samples, 2.0,
                                       green_interval(2.0))
        assert report.holds
        assert report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_constant_polynomial(self):
        samples = chebyshev_grid(-1.0, 1.0, 50)
        report = bernstein_walsh_check([3.0], samples, 5.0, green_interval(5.0))
        assert report.holds
        assert report.lhs == pytest.approx(3.0)
        assert report.envelope == pytest.approx(3.0)

    def test_random_polynomials_hold(self):
        from markov_curves.rng import Lcg, random_polynomial
        samples = chebyshev_grid(-1.0, 1.0, 600)
        lcg = Lcg(4)
        for trial in range(30):
            coeffs = random_polynomial(lcg, 9)
            for z in (1.5, 2.0 + 1.0j, -4.0):
                report = bernstein_walsh_check(coeffs, samples, z,
                                               green_interval(z))
                assert report.holds, f"trial {trial} at {z}"


class TestSegmentDiskBound:
    @pytest.mark.parametrize("b,eps,r", [
        (0.0, 1.0, 0.5), (0.9, 1.0, 0.05), (-0.3, 0.5, 0.1),
    ])
    def test_bound_holds(self, b, eps, r):
        report = segment_disk_bound_check(b, r, eps)
        assert report.violations == 0
        assert report.supremum <= report.bound

    def test_bound_and_supremum_vanish_together(self):
        wide = segment_disk_bound_check(0.0, 0.4, 1.0)
        narrow = segment_disk_bound_check(0.0, 0.004, 1.0)
        assert narrow.supremum < wide.supremum
        assert narrow.bound < wide.bound

    def test_preconditions(self):
        with pytest.raises(DomainError):
            segment_disk_bound_check(1.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            segment_disk_bound_check(0.9, 0.2, 1.0)


class TestStarDomination:
    def test_interval_ratios_stay_near_one(self):
        germ = builtin_germs()["interval_interior"]
        report = star_domination_check(germ, 0.25, 6, grid=6)
        assert max(report.max_ratios) <= 1.01
        assert report.relative_change <= 0.1

    def test_cusp_example_is_stable(self):
        germ = builtin_germs()["cusp_2_3"]
        report = star_domination_check(germ, 0.25, 8, grid=8)
        assert report.degrees == (8, 12)
        assert report.excluded == 0
        assert report.relative_change <= 0.1
        assert report.probe_count > 0

    def test_argument_validation(self):
        germ = builtin_germs()["cusp_2_3"]
        with pytest.raises(DomainError):
            star_domination_check(germ, 0.0, 8)
        with pytest.raises(DomainError):
            star_domination_check(germ, 0.25, 8, grid=2)


def test_siciak_accepts_sample_sets():
    germ = builtin_germs()["interval_interior"]
    samples = sample_real_trace(germ, 1.0, 800)
    ev = siciak_lp(samples, np.array([2.0, 0.0]), degree=12, facets=16)
    assert abs(ev.value - green_interval(2.0)) <= 0.02 + ev.facet_slack
