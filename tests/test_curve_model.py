"""Branch arithmetic, germ sampling, distances, and the germ grammar."""

import math

import numpy as np
import pytest

from markov_curves.curve_model import (CurveGerm, DomainError, FormatError,
                                       GermError, PuiseuxBranch,
                                       TruncatedSeries,
                                       builtin_germs, chebyshev_grid,
                                       geodesic_distance, load_germ,
                                       norm_lower_bound_check,
                                       parse_germ_text, sample_real_trace,
                                       tangent_vector)

CUSP_TEXT = """\
# (2,3) cusp with a monomial tail
ambient_dim = 2
k = 2
c_re = 1.0
star_plus = 0
star_minus = 0
point_class = singular
term.2.3 = 1.0
"""


def test_chebyshev_grid_includes_endpoints():
    grid = chebyshev_grid(-1.0, 1.0, 9)
    assert grid.shape == (9,)
    assert grid[0] == pytest.approx(-1.0)
    assert grid[-1] == pytest.approx(1.0)
    assert np.all(np.diff(grid) > 0)


def test_chebyshev_grid_takes_numpy_integer_counts():
    assert np.array_equal(chebyshev_grid(0.0, 1.0, np.int64(5)),
                          chebyshev_grid(0.0, 1.0, 5))


@pytest.mark.parametrize("a, b", [(0.0, float("nan")),
                                  (-float("inf"), 1.0)],
                         ids=["nan_end", "infinite_start"])
def test_chebyshev_grid_rejects_non_finite_endpoints(a, b):
    with pytest.raises(DomainError, match="non-finite endpoint"):
        chebyshev_grid(a, b, 5)


@pytest.mark.parametrize("sample", [
    lambda: chebyshev_grid(0.0, 1.0, 2.5),
    lambda: chebyshev_grid(0.0, 1.0, 3.0),
    lambda: sample_real_trace(builtin_germs()["cusp_2_3"], 0.25, 10.0),
    lambda: sample_real_trace(builtin_germs()["cusp_2_3"], 0.0, 2.5),
], ids=["grid_fraction", "grid_float", "trace_float", "trace_at_zero"])
def test_non_integer_count_rejected(sample):
    with pytest.raises(DomainError, match="must be an integer"):
        sample()


class TestTruncatedSeries:
    def test_evaluates_like_a_sparse_polynomial(self):
        series = TruncatedSeries(terms=((3, 1.0), (5, -2.0)))
        for z in (0.3, -0.7, 0.2 + 0.1j):
            assert series.evaluate(z) == pytest.approx(z**3 - 2 * z**5)
            assert series.evaluate_derivative(z) == pytest.approx(
                3 * z**2 - 10 * z**4)

    def test_rejects_disordered_exponents(self):
        with pytest.raises(GermError):
            TruncatedSeries(terms=((5, 1.0), (3, 1.0)))


class TestPuiseuxBranch:
    def test_zero_leading_coefficient_rejected(self):
        tail = (TruncatedSeries(terms=((3, 1.0),)),)
        with pytest.raises(GermError):
            PuiseuxBranch(k=2, c=0.0, tail=tail)

    def test_tail_must_start_past_k(self):
        tail = (TruncatedSeries(terms=((2, 1.0),)),)
        with pytest.raises(GermError):
            PuiseuxBranch(k=2, c=1.0, tail=tail)

    def test_evaluate_and_leading_vector(self):
        branch = builtin_germs()["cusp_2_3"].branch
        z = 0.3
        point = branch.evaluate(z)
        assert point[0] == pytest.approx(z**2)
        assert point[1] == pytest.approx(z**3)
        np.testing.assert_allclose(branch.leading_vector(), [1.0, 0.0])

    def test_eval_branch_rejects_points_outside_disk(self):
        germ = builtin_germs()["cusp_2_3"]
        with pytest.raises(DomainError, match="closed unit disk"):
            germ.evaluate(1.5)

    @pytest.mark.parametrize("z", [
        float("nan"),
        complex(0.1, float("nan")),
        [0.1, float("nan")],
        np.array([0.2j, complex(float("inf"), 0.0)]),
    ], ids=["nan", "nan_imaginary", "nan_in_list", "inf_in_array"])
    def test_eval_rejects_non_finite_parameters(self, z):
        # NaN passes the unit-disk check, which alone would let it
        # through as NaN trace points.
        germ = builtin_germs()["cusp_2_3"]
        with pytest.raises(DomainError, match="parameter is not a number"):
            germ.evaluate(z)


#: The point class of each built-in germ.
BUILTIN_POINT_CLASSES = {
    "interval_interior": "regular_interior",
    "interval_boundary": "regular_boundary",
    "parabola_regular": "regular_interior",
    "cusp_2_3": "singular", "cusp_2_5": "singular", "cusp_3_4": "singular",
}


@pytest.mark.parametrize("germ_id,expected", [
    ("interval_interior", 1), ("parabola_regular", 1),
    ("cusp_2_3", 2), ("cusp_2_5", 2), ("cusp_3_4", 3),
    ("interval_boundary", 1),
])
def test_multiplicity_of_builtins(germ_id, expected):
    germ = builtin_germs()[germ_id]
    assert germ.branch.k == expected
    assert germ.point_class == BUILTIN_POINT_CLASSES[germ_id]


def test_tangent_vector_is_unit_with_positive_leading_entry():
    for germ in builtin_germs().values():
        v = tangent_vector(germ)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        leading = v[np.nonzero(v)[0][0]]
        assert leading > 0
    np.testing.assert_allclose(tangent_vector(builtin_germs()["cusp_2_3"]),
                               [1.0, 0.0], atol=1e-14)


class TestGermStars:
    def germ(self, star_plus, star_minus=()):
        branch = builtin_germs()["cusp_2_3"].branch
        return CurveGerm(basepoint=(0.0, 0.0), branch=branch,
                         star_plus=star_plus, star_minus=star_minus)

    def test_angle_indices_must_fit_k(self):
        with pytest.raises(GermError) as info:
            self.germ((0, 1, 1))
        assert info.value.field == "star_plus"
        with pytest.raises(GermError) as info:
            self.germ((0,), (2,))
        assert info.value.field == "star_minus"
        with pytest.raises(GermError):
            self.germ((), ())

    def test_rotation_offsets_angles(self):
        germ = self.germ((0, 1), (0, 1))
        np.testing.assert_allclose(germ.ray_angles(),
                                   [0.0, math.pi, math.pi, 2 * math.pi])

    def test_term_not_real_on_a_realized_ray(self):
        # On the ray at angle pi/2 of k = 4, z**5 picks up the phase i.
        branch = PuiseuxBranch(k=4, c=1.0,
                               tail=(TruncatedSeries(((5, 1.0),)),))
        with pytest.raises(GermError) as info:
            CurveGerm(basepoint=(0.0, 0.0), branch=branch,
                      star_plus=(0, 1), star_minus=())
        assert info.value.field == "term.2.5"
        # A complex leading coefficient is never real on a realized ray.
        with pytest.raises(GermError) as info:
            CurveGerm(basepoint=(0.0, 0.0),
                      branch=PuiseuxBranch(k=2, c=1.0 + 0.5j,
                                           tail=branch.tail),
                      star_plus=(0,), star_minus=())
        assert info.value.field == "c_re"

    def test_complex_term_real_on_its_rays(self):
        # (i z)**5 is real on the ray at angle pi/2: i * i**5 = -1.
        branch = PuiseuxBranch(k=4, c=1.0,
                               tail=(TruncatedSeries(((5, 1j),)),))
        germ = CurveGerm(basepoint=(0.0, 0.0), branch=branch,
                         star_plus=(1,), star_minus=())
        assert sample_real_trace(germ, 0.5, 5).shape == (5, 2)


class TestSampleRealTrace:
    def test_interval_covers_both_sides(self):
        germ = builtin_germs()["interval_interior"]
        sample = sample_real_trace(germ, 0.5, 5)
        xs = sorted(sample[:, 0])
        assert xs[0] == pytest.approx(-0.5)
        assert xs[-1] == pytest.approx(0.5)
        assert np.allclose(sample[:, 1], 0.0)

    def test_cusp_realizes_both_branches(self):
        germ = builtin_germs()["cusp_2_3"]
        sample = sample_real_trace(germ, 1.0, 9)
        ys = sample[:, 1]
        assert ys.max() > 0.5 and ys.min() < -0.5
        # x = t**2 on the curve regardless of branch.
        np.testing.assert_allclose(sample[:, 0] ** 3,
                                   sample[:, 1] ** 2, atol=1e-12)

    def test_boundary_germ_has_one_ray(self):
        germ = builtin_germs()["interval_boundary"]
        sample = sample_real_trace(germ, 0.5, 4)
        assert sample.shape == (4, 2)
        assert sample[:, 0].min() >= 0.0

    def test_zero_epsilon_collapses_to_basepoint(self):
        germ = builtin_germs()["interval_interior"]
        sample = sample_real_trace(germ, 0.0, 4)
        assert sample.shape == (1, 2)
        np.testing.assert_allclose(sample[0], [0.0, 0.0])

    def test_nonreal_trace_is_reported(self):
        # Caught where the germ is built, at the offending term's line.
        with pytest.raises(FormatError,
                           match="z\\*\\*3 term of coordinate 2 is not real"
                           ) as info:
            parse_germ_text(CUSP_TEXT.replace("term.2.3 = 1.0",
                                              "term.2.3 = 1.0,0.5"))
        assert info.value.line == 8

    def test_epsilon_beyond_disk_rejected(self):
        germ = builtin_germs()["cusp_2_3"]
        with pytest.raises(DomainError):
            sample_real_trace(germ, 1.5, 5)


class TestGeodesicDistance:
    def test_symmetric_and_zero_at_equal_points(self):
        branch = builtin_germs()["cusp_2_3"].branch
        a, b = 0.1 + 0.2j, -0.3 + 0.1j
        forward = geodesic_distance(branch, a, b)
        assert forward == geodesic_distance(branch, b, a)
        assert geodesic_distance(branch, a, a) == 0.0
        assert forward > 0.0

    def test_distance_grows_with_radius(self):
        branch = builtin_germs()["cusp_3_4"].branch
        radii = [0.1, 0.2, 0.4, 0.8]
        distances = [geodesic_distance(branch, 0.0, r) for r in radii]
        assert all(d1 < d2 for d1, d2 in zip(distances, distances[1:]))

    @pytest.mark.parametrize("germ_id,k", [("cusp_2_3", 2), ("cusp_3_4", 3)])
    def test_coarse_slope_near_multiplicity(self, germ_id, k):
        branch = builtin_germs()[germ_id].branch
        near = geodesic_distance(branch, 0.0, 2.0 ** -10)
        far = geodesic_distance(branch, 0.0, 2.0 ** -3)
        slope = (math.log(far) - math.log(near)) / (7 * math.log(2.0))
        assert abs(slope - k) <= 0.05

    @pytest.mark.parametrize("z1, z2", [
        (0.0, float("nan")),
        (complex(float("nan"), 0.1), 0.2),
    ], ids=["nan_end", "nan_start"])
    def test_nan_parameter_rejected(self, z1, z2):
        # NaN passes the unit-disk check; the quadrature would then
        # exhaust MAX_SUBDIVISIONS before failing.
        branch = builtin_germs()["cusp_2_3"].branch
        with pytest.raises(DomainError, match="not a number"):
            geodesic_distance(branch, z1, z2)


def test_norm_lower_bound_holds_for_builtins():
    for germ in builtin_germs().values():
        report = norm_lower_bound_check(germ.branch)
        assert report.violations == 0
        assert report.infimum > 0.0
    cusp = norm_lower_bound_check(builtin_germs()["cusp_2_3"].branch)
    # |phi(z)| / |z|**2 = sqrt(1 + |z|**2 ...) >= 1 for the monomial cusp.
    assert cusp.infimum >= 1.0 - 1e-9


class TestGermGrammar:
    def test_round_trip_matches_builtin(self):
        germ = parse_germ_text(CUSP_TEXT)
        builtin = builtin_germs()["cusp_2_3"]
        assert germ.branch.k == 2
        assert germ.point_class == builtin.point_class
        np.testing.assert_allclose(germ.evaluate(0.4), builtin.evaluate(0.4))
        assert sorted(germ.ray_angles()) == sorted(builtin.ray_angles())

    def test_load_germ_reads_files(self, tmp_path):
        path = tmp_path / "cusp.germ"
        path.write_text(CUSP_TEXT, encoding="utf-8")
        germ = load_germ(path)
        assert germ.branch.k == 2

    def test_load_germ_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "cusp.germ"
        path.write_text(CUSP_TEXT, encoding="utf-8-sig")
        assert load_germ(path) == parse_germ_text(CUSP_TEXT)

    def test_unknown_key_reports_line(self):
        with pytest.raises(FormatError) as info:
            parse_germ_text(CUSP_TEXT + "wibble = 3\n")
        assert info.value.line == 9

    def test_duplicate_key_reports_line(self):
        with pytest.raises(FormatError) as info:
            parse_germ_text(CUSP_TEXT + "k = 3\n")
        assert info.value.line == 9

    def test_bad_float_names_key(self):
        with pytest.raises(FormatError) as info:
            parse_germ_text(CUSP_TEXT.replace("c_re = 1.0", "c_re = one"))
        assert "c_re" in str(info.value)

    def test_missing_required_key(self):
        broken = CUSP_TEXT.replace("c_re = 1.0\n", "")
        with pytest.raises(FormatError) as info:
            parse_germ_text(broken)
        assert "c_re" in str(info.value)

    def test_star_index_out_of_range(self):
        with pytest.raises(FormatError):
            parse_germ_text(CUSP_TEXT.replace("star_plus = 0",
                                              "star_plus = 5"))

    def test_singular_class_requires_k_at_least_two(self):
        broken = CUSP_TEXT.replace("k = 2", "k = 1").replace(
            "term.2.3 = 1.0", "term.2.2 = 1.0")
        with pytest.raises(FormatError):
            parse_germ_text(broken)

    @pytest.mark.parametrize("old, new, line, message", [
        ("term.2.3 = 1.0", "term.2.2 = 1.0", 8, "vanishes to order 2"),
        ("c_re = 1.0", "c_re = 0.0", 4, "leading coefficient is zero"),
        ("term.2.3 = 1.0", "term.2.3 = 1.0\nterm.2.03 = 2.0", 9,
         "coordinate 2: series exponents must strictly increase"),
        ("term.2.3 = 1.0", "term.2.3 = 1.0\nterm.3.4 = 1.0", 9,
         "term coordinate 3 outside 2..2"),
    ], ids=["order", "leading", "series", "coordinate"])
    def test_branch_errors_report_the_key_line(self, old, new, line,
                                               message):
        with pytest.raises(FormatError, match=message) as info:
            parse_germ_text(CUSP_TEXT.replace(old, new))
        assert info.value.line == line

    def test_sections_are_not_allowed(self):
        with pytest.raises(FormatError, match="no \\[sections\\]") as info:
            parse_germ_text("[cusp]\n" + CUSP_TEXT)
        assert info.value.line == 1

    def test_load_germ_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.germ"
        path.write_text(CUSP_TEXT.replace("k = 2", "k = two"),
                        encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_germ(path)
        assert str(info.value).startswith(
            f"{path}:3:1: key 'k' expects an integer, got 'two'")

    def test_point_class_is_optional(self):
        germ = parse_germ_text(CUSP_TEXT.replace("point_class = singular\n",
                                                 ""))
        assert germ.point_class == "singular"

    def test_point_class_contradicting_the_stars_reports_line(self):
        # One ray at k = 1 makes a boundary point, not an interior one.
        text = CUSP_TEXT.replace("k = 2", "k = 1").replace(
            "star_minus = 0", "star_minus = none").replace(
            "point_class = singular", "point_class = regular_interior")
        with pytest.raises(FormatError) as info:
            parse_germ_text(text)
        assert info.value.line == 7
        assert "regular_boundary" in str(info.value)


def test_ray_angles_rotates_minus_star():
    germ = builtin_germs()["cusp_2_3"]
    angles = sorted(a % (2 * math.pi) for a in germ.ray_angles())
    np.testing.assert_allclose(angles, [0.0, math.pi], atol=1e-12)


def test_germ_evaluate_offsets_basepoint():
    germ = builtin_germs()["cusp_2_3"]
    shifted = CurveGerm(basepoint=(1.0, -2.0), branch=germ.branch,
                        star_plus=germ.star_plus, star_minus=germ.star_minus)
    np.testing.assert_allclose(shifted.evaluate(0.5),
                               germ.evaluate(0.5) + np.array([1.0, -2.0]))
