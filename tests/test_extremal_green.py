"""Green functions, the Siciak LP, HCP fits, and the inequality checkers."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from markov_curves import extremal_green, markov_lp
from markov_curves.curve_model import (CurveGerm, DomainError, NumericError,
                                       PuiseuxBranch, TruncatedSeries,
                                       builtin_germs, chebyshev_grid,
                                       sample_real_trace)
from markov_curves.extremal_green import (GREEN_PROBES, HCP_DELTAS,
                                          GreenEvaluation, TooFewPointsError,
                                          bernstein_walsh_check,
                                          green_interval, green_segment,
                                          hcp_fit, segment_disk_bound_check,
                                          siciak_lp, star_domination_check,
                                          star_points)
from markov_curves.lp import FEASIBILITY_TOL

LOG_2_PLUS_SQRT3 = 1.3169578969248166
LOG_1_PLUS_SQRT2 = 0.8813735870195430
LOG_3_PLUS_2SQRT2 = 1.7627471740390861


def interval_green(points):
    return [green_interval(z) for z in points]


def dot_exactly(row, w):
    return sum(Fraction(x) * c for x, c in zip(row, w, strict=True))


def solve_exactly(matrix, rhs):
    """Solve a square system in rationals by Gauss-Jordan elimination."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs, strict=True)]
    size = len(rows)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][size] / rows[r][r] for r in range(size)]


def record_solves(monkeypatch):
    """(constraints, objective, solution) of every Siciak LP solve."""
    solves = []
    solve = extremal_green.solve_sup_norm_lp

    def recording(constraints, objective, **options):
        solves.append((constraints, objective,
                       solve(constraints, objective, **options)))
        return solves[-1][2]

    monkeypatch.setattr(extremal_green, "solve_sup_norm_lp", recording)
    return solves


def count_calls(monkeypatch, *names):
    """Count calls of each LP layer function, at every module it is bound."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(markov_lp, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (markov_lp, extremal_green):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


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
        with pytest.raises(DomainError):
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
        probes = (2.0, 1 + 1j, -3.0)
        for z, ev in zip(probes, siciak_lp(samples, probes, degree=16)):
            target = green_interval(z)
            assert abs(ev.value - target) <= 0.02 + ev.facet_slack

    def test_zero_at_a_sample_point(self):
        samples = chebyshev_grid(-1.0, 1.0, 101)
        (inside,) = siciak_lp(samples, [complex(samples[30])], degree=10)
        assert inside.value <= inside.facet_slack + 1e-12

    @pytest.mark.parametrize("samples, degree", [
        (np.array([0.0, 0.1, 0.2]), 8),
        (np.array([0.0, 0.5, 0.5j]), 6),
    ], ids=["real", "planar"])
    def test_zero_at_a_sample_point_of_a_thin_set(self, monkeypatch,
                                                  samples, degree):
        # Fewer samples than polynomials of the degree: evaluation at a
        # sample point is still resolved, so the value is 0 in exact
        # arithmetic.  The rounded planar LP's optimum exceeds 1 by a few
        # ulps (f.w = 1 + 1.9e-16 at the final basis), so there the
        # returned M must be at least f.w, with w the final basis's
        # coefficients in rationals and |A w| <= 1 exactly.
        solves = record_solves(monkeypatch)
        (inside,) = siciak_lp(samples, [complex(samples[-1])],
                              degree=degree)
        if np.isrealobj(samples):
            assert inside.value == 0.0
            return
        ((constraints, objective, solution),) = solves
        count, size = constraints.shape
        assert len(solution.support) == size
        basis = [[Fraction(x) if j < count else -Fraction(x)
                  for x in constraints[j % count]] for j in solution.support]
        w = solve_exactly(basis, [Fraction(1)] * len(basis))
        assert max(abs(dot_exactly(row, w)) for row in constraints) <= 1
        value = dot_exactly(objective, w)
        assert value > 1
        assert Fraction(solution.value) >= value
        assert inside.value == math.acosh(solution.value) / degree

    def test_monotone_under_point_removal(self):
        samples = chebyshev_grid(-1.0, 1.0, 201)
        (full,) = siciak_lp(samples, [2.0], degree=12)
        (thinned,) = siciak_lp(samples[::4], [2.0], degree=12)
        assert thinned.value >= full.value - 1e-12

    def test_planar_star_at_member_point(self):
        pts = star_points((0.0, math.pi / 2, math.pi, 3 * math.pi / 2),
                          0.5, 30)
        (ev,) = siciak_lp(pts, [0.0], degree=6)
        assert ev.value <= ev.facet_slack + 1e-9

    def test_polar_configuration_is_reported(self):
        samples = np.array([0.0, 0.1, 0.2])
        with pytest.raises(TooFewPointsError, match="unresolved component"):
            siciak_lp(samples, [2.0], degree=8)

    @pytest.mark.parametrize("z", [(1.0, 0.0), (1.0 + 1.0j, 0.0)],
                             ids=["real", "nonreal"])
    def test_unresolved_evaluation_is_too_few_points(self, z):
        # Samples on the line y = x span only the polynomials in t, so
        # evaluation off the line has a component they cannot see.
        t = np.linspace(-1.0, 1.0, 40)
        samples = np.column_stack([t, t])
        with pytest.raises(TooFewPointsError, match="unresolved component"):
            siciak_lp(samples, [z], degree=2)

    def test_argument_validation(self):
        samples = chebyshev_grid(-1.0, 1.0, 50)
        with pytest.raises(DomainError):
            siciak_lp(samples, [2.0], degree=0)
        with pytest.raises(DomainError):
            siciak_lp(samples, 2.0, degree=4)

    @pytest.mark.parametrize("case", ["trace", "planar_star"])
    def test_batch_matches_one_point_calls_bit_for_bit(self, monkeypatch,
                                                       case):
        if case == "trace":
            germ = builtin_germs()["cusp_2_3"]
            samples = sample_real_trace(germ, 0.25, 80)
            # Beyond the sampled trace, then off the real plane.
            points = [germ.evaluate(0.4),
                      germ.evaluate(0.2 * cmath.exp(1j * math.pi / 8))]
        else:
            samples = star_points((0.0, math.pi / 2, math.pi,
                                   3 * math.pi / 2), 0.5, 30)
            points = [0.2 + 0.1j, -0.3, 0.1j]
        singles = [siciak_lp(samples, [z], degree=6)[0] for z in points]
        calls = count_calls(monkeypatch, "_reduce_columns")
        batch = siciak_lp(samples, points, degree=6)
        assert calls == {"_reduce_columns": 1}
        assert batch == singles
        assert len({ev.facet_slack for ev in batch}) == (
            2 if case == "trace" else 1)

    @pytest.mark.parametrize("angles", [(0.0, math.pi),
                                        (0.0, 2 * math.pi / 3,
                                         4 * math.pi / 3)],
                             ids=["real", "planar"])
    def test_dilation_invariant(self, angles):
        # V_{eps K}(eps z) = V_K(z): the star is a cone and siciak_lp
        # normalizes by the samples' center and scale, so a dyadic
        # epsilon reproduces the unit star's LP exactly, and any other
        # epsilon up to roundoff.
        def values(epsilon, degree):
            return [ev.value for ev in siciak_lp(
                star_points(angles, epsilon, 60),
                [probe * epsilon for probe in GREEN_PROBES], degree)]

        for degree in (4, 8):
            unit = values(1.0, degree)
            for epsilon in (0.5, 0.0625):
                assert values(epsilon, degree) == unit
            for epsilon in (0.1, 0.3):
                assert values(epsilon, degree) == pytest.approx(unit,
                                                                rel=1e-13)


class TestHcpFit:
    def test_interval_endpoint_exponent_is_half(self):
        fit = hcp_fit(interval_green, lambda d: 1.0 + d)
        assert fit.alpha == pytest.approx(0.5, abs=0.03)
        assert fit.r_squared > 0.999
        assert fit.deltas == tuple(sorted(HCP_DELTAS, reverse=True))

    def test_interval_interior_exponent_is_one(self):
        fit = hcp_fit(interval_green, lambda d: complex(0.0, d))
        assert fit.alpha == pytest.approx(1.0, abs=0.03)

    def test_probe_inside_the_set_is_an_error(self):
        with pytest.raises(NumericError):
            hcp_fit(interval_green, lambda d: 0.5)

    def test_probe_error_names_the_largest_failing_delta(self):
        # Probes below 0.01 land on the set; HCP_DELTAS puts a point at
        # 10**-2, so the largest failing one is 10**(-7/3).
        seen = []

        def green(points):
            seen.extend(points)
            return [0.0 if z < 0.01 else z for z in points]

        with pytest.raises(NumericError, match="distance 0.00464159 "):
            hcp_fit(green, lambda d: d)
        assert seen == sorted(HCP_DELTAS, reverse=True)


def criterion_nine_case(degree):
    """Criterion 9's trace samples and 24 probes on cusp_2_3."""
    germ = builtin_germs()["cusp_2_3"]
    count = extremal_green.STAR_PROBE_ANGLES
    angles = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    probes = [germ.evaluate(0.25 * rho * cmath.exp(1j * theta))
              for rho in (0.4, 0.6, 0.8) for theta in angles]
    samples = sample_real_trace(germ, 0.25, extremal_green.STAR_DENSITY)
    return samples, probes, degree


def hcp_case(name, degree):
    """hcp-fit's trace samples and probes, largest distance first, of
    one germ at density 120."""
    germ = builtin_germs()[name]
    order = germ.branch.k
    probes = [germ.evaluate(1j * delta ** (1.0 / order))
              for delta in reversed(HCP_DELTAS)]
    return sample_real_trace(germ, 0.25, 120), probes, degree


PRUNING_CASES = {
    "star_n8": lambda: criterion_nine_case(8),
    "star_n12": lambda: criterion_nine_case(12),
    "hcp_cusp_2_3_n8": lambda: hcp_case("cusp_2_3", 8),
    "hcp_cusp_2_5_n6": lambda: hcp_case("cusp_2_5", 6),
    "hcp_cusp_3_4_n6": lambda: hcp_case("cusp_3_4", 6),
}


@pytest.fixture(scope="module", params=PRUNING_CASES)
def every_phase(request):
    """(samples, probes, degree, value of each of the 8 phases per probe)."""
    samples, probes, degree = PRUNING_CASES[request.param]()
    lp = markov_lp.SampledLp(samples, degree)
    values = []
    for z in probes:
        functional = lp.reduction.project(lp.basis.evaluate(z[None, :])
                                          .ravel())
        values.append([
            extremal_green.solve_sup_norm_lp(
                lp.constraints, np.real(phase * functional),
                crash_rows=lp.reduction.crash_rows).value
            for phase in extremal_green.HALF_FACET_PHASES])
    return samples, probes, degree, values


class TestFacetPruning:
    def test_pruned_value_is_the_best_phase(self, every_phase):
        samples, probes, degree, values = every_phase
        peaks = extremal_green._siciak_real(samples, probes, degree)
        assert [peak for peak, _ in peaks] == [max(row) for row in values]

    def test_every_phase_is_below_its_neighbour_bounds(self, every_phase):
        # h(t) <= (sin(b - t) h(a) + sin(t - a) h(b)) / sin(b - a) for
        # a < t < b, b - a < pi, with h pi-periodic: every bound the
        # search can use from two solved phases around t.  The solved
        # values overshoot it by up to 2.3e-11 relative (star_n8, whose
        # solves end with primal residuals up to 1.7e-10), so the margin
        # is the search's own: it stops FEASIBILITY_TOL below the best.
        count = len(extremal_green.HALF_FACET_PHASES)
        step = math.pi / count
        for row in every_phase[3]:
            for m in range(count):
                for a in range(m - count + 1, m):
                    for b in range(m + 1, a + count):
                        bound = ((math.sin((b - m) * step) * row[a % count]
                                  + math.sin((m - a) * step)
                                  * row[b % count])
                                 / math.sin((b - a) * step))
                        assert row[m] <= bound * (1.0 + FEASIBILITY_TOL)

    @pytest.mark.parametrize("name, alpha", [("cusp_2_5", 0.4784),
                                             ("cusp_3_4", 0.3131)])
    def test_degree_eight_hcp_fit_solves(self, name, alpha):
        # Phase one called these bounded LPs unbounded ("looks polar");
        # the crash start runs no phase one.
        germ = builtin_germs()[name]
        samples = sample_real_trace(germ, 0.25, 120)
        fit = hcp_fit(lambda points: [ev.value for ev
                                      in siciak_lp(samples, points, 8)],
                      lambda delta: germ.evaluate(
                          1j * delta ** (1.0 / germ.branch.k)))
        assert fit.alpha == pytest.approx(alpha, abs=5e-5)


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
        report = bernstein_walsh_check([3.0], samples, 5.0,
                                       green_interval(5.0))
        assert report.holds
        assert report.lhs == pytest.approx(3.0)
        assert report.envelope == pytest.approx(3.0)

    def test_random_polynomials_hold(self):
        samples = chebyshev_grid(-1.0, 1.0, 600)
        rng = np.random.default_rng(4)
        for trial in range(30):
            coeffs = rng.uniform(-1, 1, 10)
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
        report = star_domination_check(germ, 0.25, 6)
        assert max(report.max_ratios) <= 1.01
        assert report.relative_change <= 0.1

    def test_cusp_example_is_stable(self, monkeypatch):
        calls = count_calls(monkeypatch, "_reduce_columns",
                            "solve_sup_norm_lp")
        germ = builtin_germs()["cusp_2_3"]
        report = star_domination_check(germ, 0.25, 8)
        # One LP build per degree; 24 probes, each solving only the
        # facet phases its support-function bound cannot exclude.
        assert calls == {"_reduce_columns": 2, "solve_sup_norm_lp": 216}
        assert report.degrees == (8, 12)
        assert report.excluded == 0
        assert report.relative_change <= 0.1
        assert report.probe_count > 0

    def test_three_ray_star_goes_through_the_lp(self, monkeypatch):
        # Rays 2 pi / 3 apart form no segment, so the star's values come
        # from the planar Siciak LP instead of a closed form.
        calls = count_calls(monkeypatch, "_reduce_columns")
        branch = PuiseuxBranch(k=3, c=1.0,
                               tail=(TruncatedSeries(terms=((6, 1.0),)),))
        germ = CurveGerm(basepoint=(0.0, 0.0), branch=branch,
                         star_plus=(0, 1, 2), star_minus=())
        report = star_domination_check(germ, 0.25, 4)
        # One reduction for the star, one per trace degree.
        assert calls == {"_reduce_columns": 3}
        assert report.degrees == (4, 6)
        assert report.excluded == 0
        assert report.max_ratios == pytest.approx((5.346, 5.352), abs=1e-3)
        assert report.relative_change <= 0.1

    def test_argument_validation(self):
        germ = builtin_germs()["cusp_2_3"]
        with pytest.raises(DomainError):
            star_domination_check(germ, 0.0, 8)


def test_siciak_accepts_sample_sets():
    germ = builtin_germs()["interval_interior"]
    samples = sample_real_trace(germ, 1.0, 800)
    (ev,) = siciak_lp(samples, [np.array([2.0, 0.0])], degree=12)
    assert abs(ev.value - green_interval(2.0)) <= 0.02 + ev.facet_slack
