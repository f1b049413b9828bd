"""Green functions with pole at infinity and their inequality checks.

Segments get the exact closed form log|w| with w = z + sqrt(z*z - 1)
on the branch with |w| >= 1.  General finite sample sets get a lower
bound through the discrete extremal problem

    M(z) = sup { |p(z)| : deg p <= n,  |p| <= 1 on the samples },

solved as a linear program, with value acosh(M)/n.  For a segment the
degree-n extremal polynomial has modulus cosh(n V) at z, so this
normalization is exact there at every degree, and it is a monotone,
clipped-at-zero transform of the raw LP optimum everywhere else.

Complex moduli are relaxed polygonally: |p| <= 1 becomes
Re(exp(2 pi i m / 16) p) <= 1 over the 16 facet directions, and an
objective |p(z)| for nonreal z becomes the best facet orientation of
Re(p(z)).  The relaxation slack log(1/cos(pi/16))/degree is reported,
never silently absorbed.

The LP is built once per sample set and degree: siciak_lp takes a
sequence of evaluation points, and its basis, constraint matrix and
rank reduction serve every point, which then costs only its own
objective and solves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve_model import DomainError, chebyshev_grid, sample_real_trace
from .lp import UnboundedProblemError, solve_sup_norm_lp
from .markov_lp import (SampledLp, TooFewSamplesError, _chebyshev_table,
                        _reduce_columns)

#: Ratio reports ignore probe points whose reference value is below this.
RHS_TOLERANCE = 1e-6

#: Facet directions of the polygonal relaxation, in opposite pairs; its
#: slack at degree n is FACET_SLACK / n.
FACETS = 16
FACET_SLACK = math.log(1.0 / math.cos(math.pi / FACETS))

#: One phase per opposite pair: on real samples the constraints are +/-
#: symmetric, so opposite phases give the same value.
HALF_FACET_PHASES = tuple(cmath.exp(1j * (2.0 * math.pi * m / FACETS))
                          for m in range(FACETS // 2))

#: Probe points of the Siciak checks, in units of the set's scale.
GREEN_PROBES = (2.0, 1.0 + 1.0j, -3.0)

#: Largest accepted gap between a Siciak LP value and the closed form
#: (plus the facet slack on star sets); beyond it a row is a violation.
GREEN_TOLERANCE = 0.02

#: Probe distances of every HCP fit: 1e-4 .. 1e-1, log-spaced.
HCP_DELTAS = tuple(np.logspace(-4.0, -1.0, 10))

#: Angles per circle of segment_disk_bound_check (DISK_GRID // 16 circles).
DISK_GRID = 64

#: Probe angles per circle and samples per ray of star_domination_check.
STAR_PROBE_ANGLES = 8
STAR_DENSITY = 80

#: (probe rule, exponent window) of the interval's closed-form HCP fit
#: by germ point class: V grows like delta**0.5 off 1, like delta off 0.
INTERVAL_HCP_RULES = {
    "regular_boundary": (lambda delta: 1.0 + delta, (0.47, 0.53)),
    "regular_interior": (lambda delta: 1j * delta, (0.9, 1.1)),
}


class DegenerateSegmentError(ValueError):
    """Segment endpoints coincide; no Green function to pull back."""


class TooFewPointsError(ValueError):
    """Sample set cannot bound the polynomial space at this degree."""


class ProbeRuleError(ValueError):
    """An HCP probe landed on the set (nonpositive Green value)."""


class ProbeGridError(ValueError):
    """Every probe point fell on the reference set."""


def green_interval(z):
    """Green function of [-1, 1] at z; exact, zero on the interval.

    The square root is exp(half the principal log) and |w| >= 1 is
    enforced by flipping to the reciprocal root, which keeps the value
    stable across the branch cut along the interval itself.
    """
    z = complex(z)
    root = cmath.sqrt(z * z - 1.0)
    w = z + root
    if abs(w) < 1.0:
        w = z - root
    return max(0.0, math.log(abs(w)))


def green_segment(z, a, b):
    """Green function of the segment [a, b] via affine pullback."""
    a = complex(a)
    b = complex(b)
    if abs(b - a) <= 1e-300 + 1e-15 * (abs(a) + abs(b)):
        raise DegenerateSegmentError(f"segment [{a}, {b}] has no interior")
    return green_interval((2.0 * z - a - b) / (b - a))


@dataclass(frozen=True)
class GreenEvaluation:
    """One discrete Green-function value.

    ``facet_slack`` bounds how far below the true modulus the polygonal
    relaxation can sit; it is zero on the real-sample real-point path,
    where no relaxation happens.
    """

    value: float
    facet_slack: float = 0.0

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError("Green values are nonnegative")


def star_points(angles, epsilon, count):
    """Planar samples of a union of rays [0, epsilon*e^{i angle}]."""
    if not angles:
        raise DomainError("need at least one ray angle")
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if count < 2:
        raise DomainError("need at least 2 points per ray")
    radii = chebyshev_grid(0.0, epsilon, count)
    rays = [radii * cmath.exp(1j * angle) for angle in angles]
    return np.concatenate(rays)


def _coerce_samples(samples):
    """Split input into ('real', (m,n) floats) or ('planar', (m,) complex)."""
    array = np.asarray(samples)
    if np.iscomplexobj(array):
        if array.ndim != 1:
            raise DomainError("planar point lists must be one-dimensional")
        if np.max(np.abs(array.imag)) <= 1e-14 * (1.0 + np.max(np.abs(array))):
            return "real", array.real.reshape(-1, 1)
        return "planar", array.astype(complex)
    array = array.astype(float)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise DomainError("sample array must have shape (m,) or (m, n)")
    return "real", array


def _siciak_real(points, targets, degree):
    """(LP optimum, facet slack) per target on one real sample set."""
    dims = points.shape[1]
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim == 1 and dims == 1:
        targets = targets[:, None]
    if targets.ndim != 2 or targets.shape[1] != dims:
        raise DomainError(
            f"expected a sequence of evaluation points of dimension {dims}")
    lp = SampledLp(points, degree)
    peaks = []
    for z in targets:
        row = lp.basis.evaluate(z[None, :]).ravel()
        if np.max(np.abs(z.imag)) <= 1e-14 * (1.0 + np.max(np.abs(z))):
            peaks.append((lp.solve(row).value, 0.0))
        else:
            peaks.append((lp.solve(row, HALF_FACET_PHASES).value,
                          FACET_SLACK / degree))
    return peaks


def _siciak_planar(points, targets, degree):
    """(LP optimum, facet slack) per target on one planar point list."""
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim != 1:
        raise DomainError("expected a sequence of complex evaluation points")
    if points.shape[0] < degree + 1:
        raise TooFewPointsError(
            f"{points.shape[0]} planar samples cannot bound degree {degree}")
    center = complex(points.mean())
    scale = float(np.max(np.abs(points - center)))
    if scale <= 0.0:
        raise TooFewPointsError("all planar samples coincide")
    columns = _complex_chebyshev(points, degree, center, scale)
    # Filled in place and dropped once reduced: only the reduced matrix
    # lives through the solves of the batch.
    rows = points.shape[0]
    constraints = np.empty((FACETS * rows, 2 * (degree + 1)))
    for m in range(FACETS):
        phase = cmath.exp(2j * math.pi * m / FACETS)
        rotated = phase * columns
        block = constraints[m * rows:(m + 1) * rows]
        block[:, :degree + 1] = rotated.real
        block[:, degree + 1:] = -rotated.imag
    reduction = _reduce_columns(constraints)
    del constraints
    peaks = []
    for z in targets:
        target = _complex_chebyshev(np.asarray([z]), degree,
                                    center, scale).ravel()
        objective = np.concatenate([target.real, -target.imag])
        solution = solve_sup_norm_lp(reduction.matrix,
                                     reduction.project(objective))
        peaks.append((solution.value, FACET_SLACK / degree))
    return peaks


def _complex_chebyshev(points, degree, center, scale):
    """Chebyshev columns T_j((zeta - c)/s), shape (m, degree + 1)."""
    return _chebyshev_table((np.asarray(points, dtype=complex) - center)
                            / scale, degree)


def siciak_lp(samples, points, degree):
    """Discrete extremal lower bounds of the Green function at points.

    ``samples`` is a real (m, n) array, such as the output of
    sample_real_trace, or a planar list of complex points.  ``points``
    is a sequence of evaluation points: n-vectors on an (m, n) set
    (scalars when n = 1), complex numbers on a planar list.  The LP
    maximizes |p(z)| over polynomials bounded by 1 on the samples; each
    value is acosh(max(M, 1))/degree, which reproduces the closed form
    exactly on segments and never goes negative.  The polygonal
    relaxation slack is carried in each result, not folded into the
    value.

    The constraint matrix and its rank reduction are built once for all
    points; returns one GreenEvaluation per point, in order.
    """
    if degree < 1:
        raise DomainError("degree must be at least 1")
    kind, sample_points = _coerce_samples(samples)
    try:
        if kind == "real":
            peaks = _siciak_real(sample_points, points, degree)
        else:
            peaks = _siciak_planar(sample_points, points, degree)
    except UnboundedProblemError as exc:
        raise TooFewPointsError(
            f"discrete set looks polar at degree {degree}: {exc}") from exc
    except TooFewSamplesError as exc:
        raise TooFewPointsError(str(exc)) from exc
    return [GreenEvaluation(value=math.acosh(max(float(peak), 1.0)) / degree,
                            facet_slack=slack)
            for peak, slack in peaks]


@dataclass(frozen=True)
class HcpFit:
    """Least-squares exponent of V against the probe distance."""

    deltas: tuple
    values: tuple
    alpha: float
    constant: float
    r_squared: float

    def __post_init__(self):
        if any(v < 0.0 for v in self.values):
            raise DomainError("Green values are nonnegative")
        if not math.isfinite(self.alpha):
            raise DomainError("fitted exponent must be finite")


def hcp_fit(green, probe_rule):
    """Fit  V(probe(delta)) ~ constant * delta**alpha  by least squares
    over the distances HCP_DELTAS.

    ``probe_rule`` maps a distance to a probe point and ``green`` maps
    the sequence of probe points, largest distance first, to their
    Green values, so an LP-backed evaluator builds its matrix once.  A
    nonpositive value at positive distance means the probe rule walked
    onto the set, and the error names the largest such distance.
    """
    deltas = [float(d) for d in reversed(HCP_DELTAS)]
    values = [float(value)
              for value in green([probe_rule(delta) for delta in deltas])]
    for delta, value in zip(deltas, values, strict=True):
        if value <= 0.0:
            raise ProbeRuleError(
                f"probe at distance {delta:g} landed on the set "
                f"(value {value:g})")
    log_d = np.log(deltas)
    log_v = np.log(values)
    design = np.column_stack([log_d, np.ones_like(log_d)])
    (slope, intercept), *_ = np.linalg.lstsq(design, log_v, rcond=None)
    predicted = design @ (slope, intercept)
    ss_res = float(np.sum((log_v - predicted) ** 2))
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return HcpFit(deltas=tuple(deltas), values=tuple(values),
                  alpha=float(slope), constant=float(math.exp(intercept)),
                  r_squared=r_squared)


@dataclass(frozen=True)
class BernsteinWalshReport:
    lhs: float
    envelope: float
    ratio: float
    slack: float
    holds: bool


def bernstein_walsh_check(coefficients, samples, z, green_value):
    """Check |p(z)| against the growth envelope of the sampled set.

    ``coefficients`` are monomial coefficients, constant term first.
    The envelope is cosh(deg * V) times the sample sup norm; a degree-n
    segment extremal polynomial meets it with equality, and it implies
    the classical exp(deg * V) bound.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    nonzero = np.nonzero(coeffs)[0]
    degree = int(nonzero[-1]) if nonzero.size else 0
    kind, points = _coerce_samples(samples)
    if kind != "real" or points.shape[1] != 1:
        raise DomainError("expected one-dimensional real samples")
    if green_value < 0.0:
        raise DomainError("green_value must be nonnegative")
    xs = points.ravel()
    sample_norm = float(np.max(np.abs(np.polynomial.polynomial.polyval(
        xs, coeffs))))
    lhs = abs(complex(np.polynomial.polynomial.polyval(complex(z), coeffs)))
    envelope = sample_norm * math.cosh(degree * green_value)
    ratio = lhs / envelope if envelope > 0.0 else (0.0 if lhs == 0.0
                                                   else math.inf)
    holds = lhs <= envelope * (1.0 + 1e-9) + 1e-15
    return BernsteinWalshReport(lhs=lhs, envelope=envelope, ratio=ratio,
                                slack=envelope - lhs, holds=bool(holds))


@dataclass(frozen=True)
class DiskBoundReport:
    supremum: float
    bound: float
    constant: float
    slack: float
    violations: int


def segment_disk_bound_check(b, r, epsilon):
    """Sup of V_{[-eps, eps]} over the disk D(b, r) against c*log(1+r).

    The constant is c = max(1, 2/dist(b, endpoints)).  Needs a real
    center strictly inside the segment with the disk clear of the
    endpoints (r < eps - |b|).
    """
    b = float(b)
    r = float(r)
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if abs(b) == epsilon:
        raise DomainError("disk center must avoid the segment endpoints")
    if r <= 0.0 or r >= epsilon - abs(b):
        raise DomainError(
            "disk radius must be positive and keep the disk away from "
            "the segment endpoints (r < epsilon - |b|)")
    angles = 2.0 * math.pi * np.arange(DISK_GRID) / DISK_GRID
    rings = r * np.linspace(0.25, 1.0, DISK_GRID // 16)
    supremum = 0.0
    for ring in rings:
        zs = b + ring * np.exp(1j * angles)
        for z in zs:
            supremum = max(supremum, green_segment(z, -epsilon, epsilon))
    distance = epsilon - abs(b)
    constant = max(1.0, 2.0 / distance)
    bound = constant * math.log1p(r)
    violations = int(supremum > bound * (1.0 + 1e-12))
    return DiskBoundReport(supremum=supremum, bound=bound, constant=constant,
                           slack=bound - supremum, violations=violations)


@dataclass(frozen=True)
class StarDominationReport:
    """Ratio of trace Green values to star Green values over a probe grid.

    ``max_ratios`` holds the grid maximum at the two probe degrees and
    ``relative_change`` their relative difference; a bounded, stable
    ratio is the testable content.
    """

    epsilon: float
    degrees: tuple
    max_ratios: tuple
    relative_change: float
    probe_count: int
    excluded: int


def segment_closed_form(angles, epsilon):
    """Exact Green evaluator of a star of rays of length epsilon.

    ``angles`` are the ray angles in [0, 2 pi), sorted.  One ray, or
    two opposite rays, form a segment with a closed form; any other
    star returns None.
    """
    if len(angles) == 1:
        end = epsilon * cmath.exp(1j * angles[0])
        return lambda z: green_segment(z, 0.0, end)
    if len(angles) == 2 and math.isclose(angles[1] - angles[0], math.pi,
                                         rel_tol=0.0, abs_tol=1e-12):
        end = epsilon * cmath.exp(1j * angles[0])
        return lambda z: green_segment(z, -end, end)
    return None


def _star_green(germ, epsilon, degree, probes):
    """Green values of the realized star of a germ at parameter scale eps."""
    angles = sorted(a % (2.0 * math.pi) for a in germ.ray_angles())
    closed = segment_closed_form(angles, epsilon)
    if closed is not None:
        return [closed(z) for z in probes]
    points = star_points(angles, epsilon, STAR_DENSITY)
    return [result.value for result in siciak_lp(points, probes, degree)]


def star_domination_check(germ, epsilon, degree):
    """Bounded-ratio check between trace and star Green functions.

    For probe parameters z in the disk of radius epsilon (off the star
    rays), compares the trace value siciak(phi(z)) against the star
    value at z, at ``degree`` and at degree + degree//2, and reports
    the maximum ratio and its stability.  Probes where the star value
    is below RHS_TOLERANCE are excluded and counted.
    """
    if epsilon <= 0.0 or epsilon > 1.0:
        raise DomainError("epsilon must lie in (0, 1]")
    degrees = (int(degree), int(degree) + max(1, int(degree) // 2))
    samples = sample_real_trace(germ, epsilon, STAR_DENSITY)
    probe_angles = (2.0 * math.pi * (np.arange(STAR_PROBE_ANGLES) + 0.5)
                    / STAR_PROBE_ANGLES)
    probes = [epsilon * rho * cmath.exp(1j * theta)
              for rho in (0.4, 0.6, 0.8) for theta in probe_angles]
    reference = _star_green(germ, epsilon, degrees[0], probes)
    kept = [(z, rhs) for z, rhs in zip(probes, reference)
            if rhs > RHS_TOLERANCE]
    excluded = len(probes) - len(kept)
    if not kept:
        raise ProbeGridError(
            "every probe point fell on the star set")
    trace_points = [germ.evaluate(z) for z, _ in kept]
    max_ratios = []
    for deg in degrees:
        worst = 0.0
        results = siciak_lp(samples, trace_points, deg)
        for result, (_, rhs) in zip(results, kept):
            worst = max(worst, result.value / rhs)
        max_ratios.append(worst)
    base = max(max_ratios[0], 1e-12)
    change = abs(max_ratios[1] - max_ratios[0]) / base
    return StarDominationReport(epsilon=float(epsilon), degrees=degrees,
                                max_ratios=tuple(max_ratios),
                                relative_change=change,
                                probe_count=len(probes), excluded=excluded)
