"""Green functions with pole at infinity and their inequality checks.

Segments get the exact closed form log|w| with w = z + sqrt(z*z - 1)
on the branch with |w| >= 1.  General finite sample sets S go through
the discrete extremal problem

    M(z) = sup { |p(z)| : deg p <= n,  |p| <= 1 on the samples },

solved as a linear program, with value acosh(M)/n.  For a segment the
degree-n extremal polynomial has modulus cosh(n V) at z, so this
normalization is exact there at every degree, and it is a monotone,
clipped-at-zero transform of the raw LP optimum everywhere else.  The
samples lie on the set K they are drawn from, so fewer polynomials are
excluded on S than on K: the value is at least the degree-n extremal
value on the continuous trace, and no certified lower bound of the
Green function of K.

Complex moduli are relaxed polygonally, and each relaxation errs one
way, by a factor of at most 1/cos(pi/16) in M, that is at most
FACET_SLACK/n on the (1/n) log scale:

* On real samples a nonreal probe's objective |p(z)| becomes the best
  of 8 phases of Re(p(z)); it sits at most that much *below* the exact
  modulus.  Phases that a support-function bound from the solved ones
  excludes from the maximum are never solved.
* On a planar list |p| <= 1 becomes Re(exp(2 pi i m / 16) p) <= 1 over
  the 16 facet directions.  The 16-gon circumscribes the unit disk, so
  the value sits at most that much *above* the disk-constrained value.

The slack is reported, never silently absorbed.

The LP is built once per sample set and degree: siciak_lp takes a
sequence of evaluation points, and its basis, constraint matrix and
rank reduction serve every point, which then costs only its own
objective and solves.
Samples and probes are normalized by the samples' own center and
scale, so the values are dilation invariant, V_{eps K}(eps z) = V_K(z):
on a star of rays, a cone, one LP at epsilon 1 serves every epsilon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve_model import (DomainError, NumericError, chebyshev_grid,
                          sample_real_trace)
from .lp import FEASIBILITY_TOL, solve_sup_norm_lp
from .markov_lp import (SampledLp, TooFewPointsError, _chebyshev_table,
                        _reduce_columns)

#: Ratio reports ignore probe points whose reference value is below this.
RHS_TOLERANCE = 1e-6

#: Facet directions of the polygonal relaxation, in opposite pairs; its
#: slack at degree n is FACET_SLACK / n.
FACETS = 16
FACET_SLACK = math.log(1.0 / math.cos(math.pi / FACETS))

#: One phase per opposite pair.  On real samples the constraints are
#: +/- symmetric, so opposite phases give the same value, and _facet_peak
#: never solves a phase whose support-function bound excludes it from
#: the best.  On a planar list these 8 facets and their mirrors are all
#: 16.
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
        raise DomainError(f"segment [{a}, {b}] has no interior")
    return green_interval((2.0 * z - a - b) / (b - a))


@dataclass(frozen=True)
class GreenEvaluation:
    """One discrete Green-function value.

    ``facet_slack`` bounds how far the polygonal relaxation moves the
    value: below the exact modulus for a nonreal point on real samples,
    above the disk-constrained value on a planar list.  It is zero on
    the real-sample real-point path, where no relaxation happens.
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
        functional = lp.reduction.project(lp.basis.evaluate(z[None, :])
                                          .ravel())
        if np.max(np.abs(z.imag)) <= 1e-14 * (1.0 + np.max(np.abs(z))):
            # +f and -f pose the same two-sided LP: one solve.
            peaks.append((_crash_peak(lp.reduction, np.real(functional)),
                          0.0))
        else:
            peaks.append((_facet_peak(lp.reduction, functional),
                          FACET_SLACK / degree))
    return peaks


def _crash_peak(reduction, objective):
    """Value of max objective.w s.t. |reduction.matrix w| <= 1.

    The solve starts from the reduction's crash rows, so no Siciak LP
    runs phase one.
    """
    return solve_sup_norm_lp(reduction.matrix, objective,
                             crash_rows=reduction.crash_rows).value


def _facet_peak(reduction, functional):
    """Best LP value over HALF_FACET_PHASES, solving only phases that can win.

    Phase m maximizes h(t_m) = max Re(exp(i t_m) f.w) over |A w| <= 1,
    t_m = m pi / 8.  h is the support function of the centrally
    symmetric convex set {f.w} in C, so h(t + pi) = h(t), and between
    solved angles a < t < b with b - a < pi, writing exp(i t) as a
    nonnegative combination of exp(i a) and exp(i b) gives

        h(t) <= (sin(b - t) h(a) + sin(t - a) h(b)) / sin(b - a).

    Phases 0 and 4 are solved first, then the unsolved phase of largest
    bound, until every bound is below the best value by more than the
    LP tolerance.  Each solve is the same crash-started solve of the
    same objective, so the winning phase gives the same number.
    ``functional`` is the probe's evaluation row, already projected.
    """
    count = len(HALF_FACET_PHASES)
    step = math.pi / count
    values = {}

    def solve(m):
        values[m] = _crash_peak(reduction,
                                np.real(HALF_FACET_PHASES[m] * functional))

    def bound(m):
        # Phase 0 is always solved, so it closes the cycle at count.
        left = max(a for a in values if a < m)
        right = min((b for b in values if b > m), default=count)
        return ((math.sin((right - m) * step) * values[left]
                 + math.sin((m - left) * step) * values[right % count])
                / math.sin((right - left) * step))

    solve(0)
    solve(count // 2)
    while True:
        best = max(values.values())
        bounds = {m: bound(m) for m in range(count) if m not in values}
        m = max(bounds, key=bounds.get, default=None)
        if m is None or bounds[m] < best * (1.0 - FEASIBILITY_TOL):
            return best
        solve(m)


def _siciak_planar(points, targets, degree):
    """(LP optimum, facet slack) per target on one planar point list."""
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim != 1:
        raise DomainError("expected a sequence of complex evaluation points")
    center = complex(points.mean())
    scale = float(np.max(np.abs(points - center)))
    if scale <= 0.0:
        raise TooFewPointsError("all planar samples coincide")
    columns = _complex_chebyshev(points, degree, center, scale)
    # Filled in place and dropped once reduced: only the reduced matrix
    # lives through the solves of the batch.
    rows = points.shape[0]
    constraints = np.empty((FACETS // 2 * rows, 2 * (degree + 1)))
    # Facet m + 8 is the exact negation of facet m, so the 8 half phases,
    # bounded on both sides, pose all 16 facets on half the matrix.  From
    # the crash start, green_cross_star takes 730 pivots this way; the
    # two-phase solver took 1,079 on the 16 facets rotated one by one.
    for m, phase in enumerate(HALF_FACET_PHASES):
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
        peaks.append((_crash_peak(reduction, reduction.project(objective)),
                      FACET_SLACK / degree))
    return peaks


def _complex_chebyshev(points, degree, center, scale):
    """Chebyshev columns T_j((zeta - c)/s), shape (m, degree + 1)."""
    return _chebyshev_table((np.asarray(points, dtype=complex) - center)
                            / scale, degree)


def siciak_lp(samples, points, degree):
    """Discrete extremal values of the Green function at points.

    ``samples`` is a real (m, n) array, such as the output of
    sample_real_trace, or a planar list of complex points.  ``points``
    is a sequence of evaluation points: n-vectors on an (m, n) set
    (scalars when n = 1), complex numbers on a planar list.  The LP
    maximizes |p(z)| over polynomials bounded by 1 on the samples; each
    value is acosh(max(M, 1))/degree, which reproduces the closed form
    exactly on segments and never goes negative.  Since the samples lie
    on the set, it is at least the degree-n extremal value on the set,
    and no certified lower bound of its Green function.  The polygonal
    relaxation slack, and the way it errs, is carried in each result,
    not folded into the value.

    The constraint matrix and its rank reduction are built once for all
    points; returns one GreenEvaluation per point, in order.  Any
    number of samples is accepted; TooFewPointsError is raised for a
    point they do not resolve ("unresolved component").  The reduced LP
    has full column rank and so is bounded, and its solves start from
    a crash basis, so no phase one can call it unbounded.
    """
    if degree < 1:
        raise DomainError("degree must be at least 1")
    kind, sample_points = _coerce_samples(samples)
    if kind == "real":
        peaks = _siciak_real(sample_points, points, degree)
    else:
        peaks = _siciak_planar(sample_points, points, degree)
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
            raise NumericError(
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
        raise NumericError("every probe point fell on the star set")
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
