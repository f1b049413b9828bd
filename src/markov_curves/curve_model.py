"""Puiseux-form curve germs, their real traces, and germ geometry.

A germ is a parametrized analytic arc through a basepoint,

    phi(z) = x0 + (c * z**k,  psi_2(z), ..., psi_n(z)),      |z| <= 1,

where the tail series psi_j vanish to order greater than k (order at
least 1 when k = 1).  The exponent k is both the vanishing order of the
parametrization and the multiplicity of the germ at the basepoint.

Real points of the trace sit over finitely many parameter rays.  A star
set records which rays: indices l with 0 <= l_1 < ... < l_r <= k - 1
realize the rays ``[0, eps * exp(2*pi*i*l/k)]``.  A germ carries two
stars; the "minus" star is realized after an extra rotation by pi, so a
regular germ (k = 1) can reach the reflected half of its trace.

This module owns the germ data model, Chebyshev-distributed sampling of
the real trace, arc-length (geodesic) distances inside the complexified
curve, and the empirical check that ``norm(phi(z))`` dominates
``|z|**k`` near the basepoint.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Relative tolerance for declaring a sampled image real.
REAL_TRACE_TOL = 1e-12

#: Geodesic quadrature knobs.
QUADRATURE_TOL = 1e-10
MAX_SUBDIVISIONS = 2 ** 16

POINT_CLASSES = ("singular", "regular_interior", "regular_boundary")


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class InvalidBranchError(ValueError):
    """Branch data that does not describe a curve germ."""


class InconsistentGermError(ValueError):
    """Star angles that do not produce a real trace for the branch."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge."""


class GermFormatError(ValueError):
    """Malformed germ definition text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def chebyshev_grid(a, b, count):
    """``count`` Chebyshev-distributed points of [a, b], endpoints included."""
    if count < 1:
        raise DomainError("grid needs at least one point")
    if count == 1:
        return np.array([0.5 * (a + b)])
    j = np.arange(count)
    u = 0.5 * (1.0 + np.cos(np.pi * (count - 1 - j) / (count - 1)))
    return a + (b - a) * u


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial truncation of a power series, sparse in the exponents.

    ``terms`` holds (exponent, coefficient) pairs with strictly
    increasing positive exponents, all bounded by ``truncation_degree``.
    """

    terms: tuple
    truncation_degree: int

    def __post_init__(self):
        cleaned = tuple((int(e), complex(a)) for e, a in self.terms if a != 0)
        exps = [e for e, _ in cleaned]
        if any(e < 1 for e in exps):
            raise InvalidBranchError("series exponents must be >= 1")
        if any(x >= y for x, y in zip(exps, exps[1:])):
            raise InvalidBranchError("series exponents must strictly increase")
        if exps and exps[-1] > self.truncation_degree:
            raise InvalidBranchError(
                f"exponent {exps[-1]} exceeds truncation degree "
                f"{self.truncation_degree}")
        object.__setattr__(self, "terms", cleaned)

    def order(self):
        """Smallest exponent with a nonzero coefficient, or None."""
        return self.terms[0][0] if self.terms else None

    def coefficient(self, exponent):
        for e, a in self.terms:
            if e == exponent:
                return a
        return 0j

    def evaluate(self, z):
        """Evaluate by Horner steps over the exponent gaps."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        prev = 0
        for e, a in reversed(self.terms):
            if prev:
                acc = acc * z ** (prev - e)
            acc = acc + a
            prev = e
        if prev:
            acc = acc * z ** prev
        return acc

    def evaluate_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        prev = 0
        for e, a in reversed(self.terms):
            if prev:
                acc = acc * z ** (prev - e)
            acc = acc + e * a
            prev = e
        if prev:
            acc = acc * z ** (prev - 1)
        return acc


@dataclass(frozen=True)
class PuiseuxBranch:
    """Normalized branch ``z -> (c*z**k, psi_2(z), ..., psi_n(z))``."""

    k: int
    c: complex
    tail: tuple  # TruncatedSeries for coordinates 2..n

    def __post_init__(self):
        if self.k < 1:
            raise InvalidBranchError("k must be a positive integer")
        if self.c == 0:
            raise InvalidBranchError(
                "leading coefficient is zero: the branch would collapse")
        if not self.tail:
            raise InvalidBranchError("ambient dimension must be at least 2")
        object.__setattr__(self, "tail", tuple(self.tail))
        floor = self.k if self.k >= 2 else 0
        for j, series in enumerate(self.tail, start=2):
            order = series.order()
            if order is not None and order <= floor:
                raise InvalidBranchError(
                    f"coordinate {j} vanishes to order {order}, "
                    f"which must exceed {floor} for k = {self.k}")

    @property
    def ambient_dim(self):
        return 1 + len(self.tail)

    def evaluate(self, z):
        """phi(z) without domain checks; see :func:`eval_branch`."""
        z = np.asarray(z, dtype=complex)
        coords = [self.c * z ** self.k]
        coords += [series.evaluate(z) for series in self.tail]
        return np.stack(coords, axis=-1)

    def evaluate_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        coords = [self.k * self.c * z ** (self.k - 1)]
        coords += [series.evaluate_derivative(z) for series in self.tail]
        return np.stack(coords, axis=-1)

    def leading_vector(self):
        """Coefficient vector of z**m at the lowest order m."""
        m = multiplicity(self)
        lead = np.zeros(self.ambient_dim, dtype=complex)
        if self.k == m:
            lead[0] = self.c
        for j, series in enumerate(self.tail, start=1):
            lead[j] = series.coefficient(m)
        return m, lead


def eval_branch(branch, z):
    """Evaluate phi at parameters z in the closed unit disk."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise DomainError("parameter outside the closed unit disk")
    return branch.evaluate(z)


def multiplicity(branch):
    """Minimum vanishing order of the coordinates at z = 0.

    Equals k for every valid branch; recomputed from the data rather
    than read off the field.
    """
    orders = [branch.k]
    orders += [s.order() for s in branch.tail if s.order() is not None]
    if not orders:
        raise InvalidBranchError("all coordinates identically zero")
    return int(min(orders))


@dataclass(frozen=True)
class StarSet:
    """Indices l of the parameter rays ``[0, eps*exp(2*pi*i*l/k)]``."""

    k: int
    angle_indices: tuple

    def __post_init__(self):
        idx = tuple(int(l) for l in self.angle_indices)
        if not idx:
            raise DomainError("a star set carries at least one ray")
        if len(idx) > self.k:
            raise DomainError("a star set has at most k rays")
        if any(x >= y for x, y in zip(idx, idx[1:])):
            raise DomainError("angle indices must strictly increase")
        if idx[0] < 0 or idx[-1] > self.k - 1:
            raise DomainError("angle indices must lie in [0, k-1]")
        object.__setattr__(self, "angle_indices", idx)

    def angles(self, rotation=0.0):
        """Realized ray angles, with an optional extra rotation."""
        return tuple(rotation + 2.0 * math.pi * l / self.k
                     for l in self.angle_indices)


@dataclass(frozen=True)
class CurveGerm:
    """A pointed real-curve germ with its parameter stars."""

    basepoint: tuple
    branch: PuiseuxBranch
    star_plus: StarSet
    star_minus: object  # StarSet or None (boundary germs have one side)
    point_class: str
    label: str = ""

    def __post_init__(self):
        if self.point_class not in POINT_CLASSES:
            raise DomainError(
                f"point_class must be one of {POINT_CLASSES}")
        if self.point_class == "singular" and self.branch.k < 2:
            raise DomainError("a singular germ needs k >= 2")
        if self.point_class != "singular" and self.branch.k != 1:
            raise DomainError("a regular germ needs k = 1")
        basepoint = tuple(float(v) for v in self.basepoint)
        if len(basepoint) != self.branch.ambient_dim:
            raise DomainError("basepoint dimension != ambient dimension")
        for star in (self.star_plus, self.star_minus):
            if star is not None and star.k != self.branch.k:
                raise DomainError("star set k differs from branch k")
        if self.star_plus is None and self.star_minus is None:
            raise DomainError("a germ needs at least one star")
        object.__setattr__(self, "basepoint", basepoint)

    @property
    def multiplicity(self):
        return multiplicity(self.branch)

    def ray_angles(self):
        """All realized ray angles: plus star direct, minus star after
        a rotation by pi."""
        angles = []
        if self.star_plus is not None:
            angles.extend(self.star_plus.angles(0.0))
        if self.star_minus is not None:
            angles.extend(self.star_minus.angles(math.pi))
        return tuple(angles)

    def evaluate(self, z):
        """Trace point at parameter z (basepoint included)."""
        values = eval_branch(self.branch, z)
        return values + np.asarray(self.basepoint, dtype=complex)


def tangent_vector(germ):
    """Unit tangent of the real trace at the basepoint.

    Direction of the lowest-order term of t -> phi(t * e^{i*theta})
    along the germ's first realized ray, normalized to unit Euclidean
    length, with the first nonzero component made positive.
    """
    m, lead = germ.branch.leading_vector()
    theta = germ.ray_angles()[0]
    vec = lead * cmath.exp(1j * m * theta)
    if np.max(np.abs(vec.imag)) > REAL_TRACE_TOL * (1.0 + np.linalg.norm(vec.real)):
        raise InconsistentGermError(
            "leading direction is not real along the first star ray")
    v = vec.real
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise InvalidBranchError("zero leading direction")
    v = v / norm
    for comp in v:
        if comp != 0.0:
            if comp < 0.0:
                v = -v
            break
    return v


def sample_real_trace(germ, epsilon, density):
    """Chebyshev-distributed samples of the real trace near the basepoint.

    For every realized ray angle theta, parameters run over a Chebyshev
    grid of [0, epsilon] (clustering at 0 and epsilon), and the images
    phi(t * e^{i*theta}) are checked to be real within
    ``REAL_TRACE_TOL * (1 + |Re|)`` and coerced.  Returns the (m, n)
    array of images, ray by ray.

    epsilon = 0 degenerates to the single sample at the basepoint.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise DomainError("epsilon must lie in [0, 1]")
    if density < 1:
        raise DomainError("density must be at least 1")
    if epsilon == 0.0:
        return np.asarray([germ.basepoint], dtype=float)

    grid = chebyshev_grid(0.0, epsilon, density)
    rows = []
    for theta in germ.ray_angles():
        ray = grid * cmath.exp(1j * theta)
        values = germ.evaluate(ray)
        scale = 1.0 + np.linalg.norm(values.real, axis=-1)
        worst = np.max(np.abs(values.imag) / scale[:, None])
        if worst > REAL_TRACE_TOL:
            raise InconsistentGermError(
                f"ray at angle {theta:.6f} leaves the real trace "
                f"(residual imaginary part {worst:.3e})")
        rows.append(values.real)
    return np.vstack(rows).astype(float)


def _adaptive_simpson(f, tol, max_subdivisions):
    """Adaptive Simpson integral of f over [0, 1]."""
    fa, fm, fb = f(0.0), f(0.5), f(1.0)
    whole = (fa + 4.0 * fm + fb) / 6.0
    stack = [(0.0, 1.0, fa, fm, fb, whole)]
    total = 0.0
    splits = 0
    while stack:
        a, b, fa, fm, fb, estimate = stack.pop()
        mid = 0.5 * (a + b)
        flm = f(0.5 * (a + mid))
        frm = f(0.5 * (mid + b))
        left = (mid - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - mid) * (fm + 4.0 * frm + fb) / 6.0
        error = (left + right - estimate) / 15.0
        if abs(error) <= tol * max(b - a, 1e-3):
            total += left + right + error
            continue
        splits += 1
        if splits > max_subdivisions:
            raise NumericError(
                f"quadrature did not converge after {splits} subdivisions "
                f"(tol {tol:g}, interval [{a:g}, {b:g}])")
        stack.append((a, mid, fa, flm, fm, left))
        stack.append((mid, b, fm, frm, fb, right))
    return total


def geodesic_distance(branch, z1, z2, *, tol=QUADRATURE_TOL,
                      max_subdivisions=MAX_SUBDIVISIONS):
    """Arc length of the curve between phi(z1) and phi(z2).

    The path follows the straight parameter segment from z1 to z2, so
    the value is an upper surrogate of the intrinsic geodesic distance;
    it is symmetric and vanishes exactly when z1 == z2.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    if max(abs(z1), abs(z2)) > 1.0 + 1e-12:
        raise DomainError("parameter outside the closed unit disk")
    if z1 == z2:
        return 0.0
    # Canonical endpoint order makes the result exactly symmetric.
    if (z2.real, z2.imag) < (z1.real, z1.imag):
        z1, z2 = z2, z1
    step = z2 - z1

    def speed(t):
        dphi = branch.evaluate_derivative(z1 + t * step)
        return float(np.linalg.norm(dphi * step))

    return _adaptive_simpson(speed, tol, max_subdivisions)


@dataclass(frozen=True)
class NormBoundReport:
    """Empirical lower bound of ``norm(phi(z)) / |z|**k`` near 0."""

    infimum: float
    coarse_infimum: float
    violations: int
    rho: float


def _ratio_infimum(branch, rho, radial, angular):
    k = branch.k
    radii = rho * 0.5 ** np.arange(radial)
    angles = 2.0 * math.pi * np.arange(angular) / angular
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    values = branch.evaluate(z)
    norms = np.linalg.norm(values, axis=-1)
    return float(np.min(norms / np.abs(z) ** k))


def norm_lower_bound_check(branch, rho=0.5, radial=8, angular=16):
    """Check that norm(phi(z)) >= c |z|**k on the punctured disk D(0, rho).

    Samples a polar grid, reports the infimum of the ratio, and flags a
    violation only when the infimum degrades markedly under one grid
    refinement (evidence against a positive lower bound, rather than
    grid noise).
    """
    if not (0.0 < rho <= 1.0):
        raise DomainError("rho must lie in (0, 1]")
    coarse = _ratio_infimum(branch, rho, radial, angular)
    fine = _ratio_infimum(branch, rho, 2 * radial, 2 * angular)
    degraded = fine <= 0.0 or fine < 0.5 * coarse
    return NormBoundReport(
        infimum=fine,
        coarse_infimum=coarse,
        violations=int(degraded),
        rho=float(rho),
    )


def _monomial_series(exponent, coefficient=1.0):
    return TruncatedSeries(terms=((exponent, coefficient),),
                           truncation_degree=exponent)


def _zero_series(truncation_degree=1):
    return TruncatedSeries(terms=(), truncation_degree=truncation_degree)


def builtin_germs():
    """The built-in germ library keyed by id."""
    def cusp(p, q):
        return CurveGerm(
            basepoint=(0.0, 0.0),
            branch=PuiseuxBranch(k=p, c=1.0, tail=(_monomial_series(q),)),
            star_plus=StarSet(k=p, angle_indices=(0,)),
            star_minus=StarSet(k=p, angle_indices=(0,)),
            point_class="singular",
            label=f"cusp_{p}_{q}",
        )

    line = PuiseuxBranch(k=1, c=1.0, tail=(_zero_series(),))
    parabola = PuiseuxBranch(k=1, c=1.0, tail=(_monomial_series(2),))
    return {
        "interval_interior": CurveGerm(
            basepoint=(0.0, 0.0), branch=line,
            star_plus=StarSet(k=1, angle_indices=(0,)),
            star_minus=StarSet(k=1, angle_indices=(0,)),
            point_class="regular_interior", label="interval_interior"),
        "interval_boundary": CurveGerm(
            basepoint=(0.0, 0.0), branch=line,
            star_plus=StarSet(k=1, angle_indices=(0,)),
            star_minus=None,
            point_class="regular_boundary", label="interval_boundary"),
        "parabola_regular": CurveGerm(
            basepoint=(0.0, 0.0), branch=parabola,
            star_plus=StarSet(k=1, angle_indices=(0,)),
            star_minus=StarSet(k=1, angle_indices=(0,)),
            point_class="regular_interior", label="parabola_regular"),
        "cusp_2_3": cusp(2, 3),
        "cusp_2_5": cusp(2, 5),
        "cusp_3_4": cusp(3, 4),
    }


BUILTIN_GERM_IDS = tuple(builtin_germs().keys())


def _parse_scalar(text, line, kind, key):
    try:
        return kind(text)
    except ValueError:
        raise GermFormatError(f"key '{key}' expects {kind.__name__}, "
                              f"got '{text}'", line) from None


def parse_germ_text(text, source="<germ>"):
    """Parse the flat key=value germ grammar. See the README for the format."""
    scalars = {}
    terms = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise GermFormatError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise GermFormatError("empty key", lineno)
        if key in scalars or key in terms:
            raise GermFormatError(f"duplicate key '{key}'", lineno)
        if key.startswith("term."):
            pieces = key.split(".")
            if len(pieces) != 3:
                raise GermFormatError(
                    "term keys look like 'term.<coord>.<exponent>'", lineno)
            coord = _parse_scalar(pieces[1], lineno, int, key)
            exponent = _parse_scalar(pieces[2], lineno, int, key)
            parts = [p.strip() for p in value.split(",")]
            if len(parts) not in (1, 2):
                raise GermFormatError(
                    "term values are 're' or 're,im'", lineno)
            re_part = _parse_scalar(parts[0], lineno, float, key)
            im_part = _parse_scalar(parts[1], lineno, float, key) if len(parts) == 2 else 0.0
            terms.setdefault(coord, []).append((exponent, complex(re_part, im_part)))
        else:
            scalars[key] = value
            lines[key] = lineno
    known = {"ambient_dim", "k", "c_re", "c_im", "star_plus", "star_minus",
             "point_class", "basepoint"}
    for key in scalars:
        if key not in known:
            raise GermFormatError(f"unknown key '{key}'", lines[key])
    for key in ("ambient_dim", "k", "c_re", "point_class"):
        if key not in scalars:
            raise GermFormatError(f"missing required key '{key}'", None)

    n = _parse_scalar(scalars["ambient_dim"], lines["ambient_dim"], int, "ambient_dim")
    k = _parse_scalar(scalars["k"], lines["k"], int, "k")
    c_re = _parse_scalar(scalars["c_re"], lines["c_re"], float, "c_re")
    c_im = (_parse_scalar(scalars["c_im"], lines["c_im"], float, "c_im")
            if "c_im" in scalars else 0.0)
    if n < 2:
        raise GermFormatError("ambient_dim must be >= 2", lines["ambient_dim"])

    tail = []
    for coord in range(2, n + 1):
        pairs = sorted(terms.pop(coord, []))
        degree = max((e for e, _ in pairs), default=1)
        try:
            tail.append(TruncatedSeries(terms=tuple(pairs), truncation_degree=degree))
        except InvalidBranchError as exc:
            raise GermFormatError(f"coordinate {coord}: {exc}", None) from None
    if terms:
        bad = sorted(terms)[0]
        raise GermFormatError(
            f"term coordinate {bad} outside 2..{n}", None)

    def parse_star(key):
        if key not in scalars:
            return None
        value = scalars[key].strip()
        if not value or value.lower() == "none":
            return None
        indices = []
        for item in value.split(","):
            indices.append(_parse_scalar(item.strip(), lines[key], int, key))
        try:
            return StarSet(k=k, angle_indices=tuple(indices))
        except DomainError as exc:
            raise GermFormatError(str(exc), lines[key]) from None

    basepoint = tuple(0.0 for _ in range(n))
    if "basepoint" in scalars:
        parts = [p.strip() for p in scalars["basepoint"].split(",")]
        if len(parts) != n:
            raise GermFormatError(
                f"basepoint needs {n} coordinates", lines["basepoint"])
        basepoint = tuple(_parse_scalar(p, lines["basepoint"], float, "basepoint")
                          for p in parts)

    try:
        branch = PuiseuxBranch(k=k, c=complex(c_re, c_im), tail=tuple(tail))
        return CurveGerm(
            basepoint=basepoint,
            branch=branch,
            star_plus=parse_star("star_plus"),
            star_minus=parse_star("star_minus"),
            point_class=scalars["point_class"].strip(),
            label=source,
        )
    except (InvalidBranchError, DomainError) as exc:
        raise GermFormatError(str(exc), None) from None


def load_germ(path):
    """Load a germ definition file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_germ_text(text, source=str(path))
