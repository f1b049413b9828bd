"""Puiseux-form curve germs, their real traces, and germ geometry.

A germ is a parametrized analytic arc through a basepoint,

    phi(z) = x0 + (c * z**k,  psi_2(z), ..., psi_n(z)),      |z| <= 1,

where the tail series psi_j vanish to order greater than k (order at
least 1 when k = 1).  The exponent k is both the vanishing order of the
parametrization and the multiplicity of the germ at the basepoint.

Real points of the trace sit over finitely many parameter rays.  A germ
carries two stars, tuples of indices l with 0 <= l_1 < ... < l_r <= k - 1:
the "plus" star realizes the rays ``[0, eps * exp(2*pi*i*l/k)]`` and the
"minus" star the same rays after an extra rotation by pi, so a regular
germ (k = 1) can reach the reflected half of its trace.  Every term of
the branch must be real on every realized ray; ``CurveGerm`` checks this
once, where it is built.  The point class follows from k and the stars:
singular when k >= 2, else a regular interior point with two rays or a
boundary point with one.

This module owns the germ data model, the flat ``key = value`` reader
shared by germ files and scenario configs, Chebyshev-distributed
sampling of the real trace, arc-length (geodesic) distances inside the
complexified curve, and the empirical check that ``norm(phi(z))``
dominates ``|z|**k`` near the basepoint.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

#: Relative tolerance for declaring a sampled image real.
REAL_TRACE_TOL = 1e-12

#: Geodesic quadrature knobs.
QUADRATURE_TOL = 1e-10
MAX_SUBDIVISIONS = 2 ** 16

#: Coarse polar grid of norm_lower_bound_check, NORM_RADIAL radii
#: NORM_RHO * 2**-j by NORM_ANGULAR angles; the fine grid doubles both.
NORM_RHO = 0.5
NORM_RADIAL = 8
NORM_ANGULAR = 16


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class GermError(ValueError):
    """Germ data rejected where it is built.

    ``field`` names the germ-file key at fault (``k``, ``c_re``,
    ``term.<coord>.<exponent>``, ``star_plus``, ...), so a parser can
    point at that key's line; a TruncatedSeries, which knows no
    coordinate, names the exponent.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class InvalidBranchError(GermError):
    """Branch data that does not describe a curve germ."""


class InconsistentGermError(GermError):
    """Stars or a basepoint that do not fit the branch, or a realized
    ray whose image leaves R^n."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge."""


class FormatError(ValueError):
    """Malformed config or germ text, reported as ``source:line:column``."""

    def __init__(self, message, line, column, source):
        self.line = line
        self.column = column
        self.source = source
        where = source if line is None else f"{source}:{line}:{column}"
        super().__init__(f"{where}: {message}")


_SECTION = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")


def read_sections(text, source):
    """Split flat text into ``[(name, line, {key: (value, line, column)})]``.

    ``#`` starts a comment, a ``[name]`` line opens a section and
    ``key = value`` lines fill the current one; keys before the first
    header land in a section named None.  A repeated section or key, or
    a line that is neither, raises FormatError.
    """
    sections = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        column = 1 + len(line) - len(line.lstrip())
        if stripped.startswith("["):
            match = _SECTION.match(stripped)
            if not match:
                raise FormatError("malformed section header", number, column,
                                  source)
            name = match.group(1)
            if any(name == existing for existing, _, _ in sections):
                raise FormatError(f"duplicate section '{name}'", number,
                                  column, source)
            sections.append((name, number, {}))
            continue
        key, equals, value = (part.strip() for part in stripped.partition("="))
        if not equals or not key:
            raise FormatError("expected 'key = value'", number, column, source)
        if not sections:
            sections.append((None, number, {}))
        keys = sections[-1][2]
        if key in keys:
            raise FormatError(f"duplicate key '{key}'", number, column, source)
        keys[key] = (value, number, column)
    return sections


_KIND_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers")}


def convert_list(entry, kind, key, source, counts=None):
    """The comma-separated values of a ``(value, line, column)`` entry as a
    tuple of ``kind``, empty items skipped; a FormatError at the key when
    an item does not convert or the count is not one of ``counts``."""
    value, line, column = entry
    try:
        items = tuple(kind(item.strip()) for item in value.split(",")
                      if item.strip())
    except ValueError:
        items = None
    if items is None or (counts is not None and len(items) not in counts):
        one, many = _KIND_NAMES[kind]
        if counts is None:
            wanted = f"a comma-separated list of {many}"
        elif counts == (1,):
            wanted = one
        else:
            wanted = f"{' or '.join(map(str, counts))} comma-separated {many}"
        raise FormatError(f"key '{key}' expects {wanted}, got '{value}'",
                          line, column, source)
    return items


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
    increasing positive exponents.
    """

    terms: tuple

    def __post_init__(self):
        cleaned = tuple((int(e), complex(a)) for e, a in self.terms if a != 0)
        previous = 0
        for e, _ in cleaned:
            if e < 1:
                raise InvalidBranchError("series exponents must be >= 1", e)
            if e <= previous:
                raise InvalidBranchError(
                    "series exponents must strictly increase", e)
            previous = e
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
            raise InvalidBranchError("k must be a positive integer", "k")
        if self.c == 0:
            raise InvalidBranchError(
                "leading coefficient is zero: the branch would collapse",
                "c_re")
        if not self.tail:
            raise InvalidBranchError("ambient dimension must be at least 2",
                                     "ambient_dim")
        object.__setattr__(self, "tail", tuple(self.tail))
        floor = self.k if self.k >= 2 else 0
        for j, series in enumerate(self.tail, start=2):
            order = series.order()
            if order is not None and order <= floor:
                raise InvalidBranchError(
                    f"coordinate {j} vanishes to order {order}, "
                    f"which must exceed {floor} for k = {self.k}",
                    f"term.{j}.{order}")

    @property
    def ambient_dim(self):
        return 1 + len(self.tail)

    def evaluate(self, z):
        """phi(z) without domain checks; see :meth:`CurveGerm.evaluate`."""
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
        """Coefficient vector of z**k, the lowest order of the branch."""
        lead = np.zeros(self.ambient_dim, dtype=complex)
        lead[0] = self.c
        for j, series in enumerate(self.tail, start=1):
            lead[j] = series.coefficient(self.k)
        return lead


@dataclass(frozen=True)
class CurveGerm:
    """A pointed real-curve germ with its parameter stars.

    ``star_plus`` and ``star_minus`` are tuples of ray indices in
    [0, k - 1], strictly increasing; an empty tuple realizes no ray on
    that side (boundary germs have one side).  Every term of the branch,
    leading term included, must be real on every realized ray.
    """

    basepoint: tuple
    branch: PuiseuxBranch
    star_plus: tuple
    star_minus: tuple

    def __post_init__(self):
        k = self.branch.k
        basepoint = tuple(float(v) for v in self.basepoint)
        if len(basepoint) != self.branch.ambient_dim:
            raise InconsistentGermError(
                "basepoint dimension != ambient dimension", "basepoint")
        object.__setattr__(self, "basepoint", basepoint)
        for field in ("star_plus", "star_minus"):
            star = tuple(int(l) for l in getattr(self, field))
            if (any(not 0 <= l < k for l in star)
                    or any(x >= y for x, y in zip(star, star[1:]))):
                raise InconsistentGermError(
                    f"{field} indices must strictly increase within "
                    f"0..{k - 1}", field)
            object.__setattr__(self, field, star)
        if not self.star_plus + self.star_minus:
            raise InconsistentGermError("a germ needs at least one star",
                                        "star_plus")
        terms = [(1, k, self.branch.c, "c_re")]
        terms += [(j, e, a, f"term.{j}.{e}")
                  for j, series in enumerate(self.branch.tail, start=2)
                  for e, a in series.terms]
        for theta in self.ray_angles():
            for j, e, a, field in terms:
                if abs((a * cmath.exp(1j * e * theta)).imag) > (
                        REAL_TRACE_TOL * abs(a)):
                    raise InconsistentGermError(
                        f"the z**{e} term of coordinate {j} is not real on "
                        f"the ray at angle {theta:.6f}", field)

    @property
    def point_class(self):
        """``singular`` when k >= 2; otherwise ``regular_interior`` with
        two realized rays and ``regular_boundary`` with one."""
        if self.branch.k >= 2:
            return "singular"
        if len(self.star_plus + self.star_minus) == 2:
            return "regular_interior"
        return "regular_boundary"

    def ray_angles(self):
        """All realized ray angles: plus star direct, minus star after
        a rotation by pi."""
        k = self.branch.k
        return tuple(rotation + 2.0 * math.pi * l / k
                     for rotation, star in ((0.0, self.star_plus),
                                            (math.pi, self.star_minus))
                     for l in star)

    def evaluate(self, z):
        """Trace point at parameters z in the closed unit disk (basepoint
        included)."""
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1.0 + 1e-12):
            raise DomainError("parameter outside the closed unit disk")
        return self.branch.evaluate(z) + np.asarray(self.basepoint,
                                                    dtype=complex)


def tangent_vector(germ):
    """Unit tangent of the real trace at the basepoint.

    Direction of the lowest-order term of t -> phi(t * e^{i*theta})
    along the germ's first realized ray, normalized to unit Euclidean
    length, with the first nonzero component made positive.  The
    direction is real and nonzero because CurveGerm checks every term on
    every ray and the leading coefficient is nonzero.
    """
    lead = germ.branch.leading_vector()
    theta = germ.ray_angles()[0]
    v = (lead * cmath.exp(1j * germ.branch.k * theta)).real
    v = v / np.linalg.norm(v)
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


def _adaptive_simpson(f):
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
        if abs(error) <= QUADRATURE_TOL * max(b - a, 1e-3):
            total += left + right + error
            continue
        splits += 1
        if splits > MAX_SUBDIVISIONS:
            raise NumericError(
                f"quadrature did not converge after {splits} subdivisions "
                f"(tol {QUADRATURE_TOL:g}, interval [{a:g}, {b:g}])")
        stack.append((a, mid, fa, flm, fm, left))
        stack.append((mid, b, fm, frm, fb, right))
    return total


def geodesic_distance(branch, z1, z2):
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

    return _adaptive_simpson(speed)


@dataclass(frozen=True)
class NormBoundReport:
    """Empirical lower bound of ``norm(phi(z)) / |z|**k`` near 0."""

    infimum: float
    violations: int


def _ratio_infimum(branch, radial, angular):
    k = branch.k
    radii = NORM_RHO * 0.5 ** np.arange(radial)
    angles = 2.0 * math.pi * np.arange(angular) / angular
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    values = branch.evaluate(z)
    norms = np.linalg.norm(values, axis=-1)
    return float(np.min(norms / np.abs(z) ** k))


def norm_lower_bound_check(branch):
    """Check norm(phi(z)) >= c |z|**k on the punctured disk D(0, NORM_RHO).

    Samples a polar grid, reports the infimum of the ratio, and flags a
    violation only when the infimum degrades markedly under one grid
    refinement (evidence against a positive lower bound, rather than
    grid noise).
    """
    coarse = _ratio_infimum(branch, NORM_RADIAL, NORM_ANGULAR)
    fine = _ratio_infimum(branch, 2 * NORM_RADIAL, 2 * NORM_ANGULAR)
    degraded = fine <= 0.0 or fine < 0.5 * coarse
    return NormBoundReport(infimum=fine, violations=int(degraded))


def builtin_germs():
    """The built-in germ library keyed by id."""
    def cusp(p, q):
        return CurveGerm(
            basepoint=(0.0, 0.0),
            branch=PuiseuxBranch(k=p, c=1.0,
                                 tail=(TruncatedSeries(terms=((q, 1.0),)),)),
            star_plus=(0,), star_minus=(0,))

    line = PuiseuxBranch(k=1, c=1.0, tail=(TruncatedSeries(terms=()),))
    parabola = PuiseuxBranch(k=1, c=1.0,
                             tail=(TruncatedSeries(terms=((2, 1.0),)),))
    return {
        "interval_interior": CurveGerm(basepoint=(0.0, 0.0), branch=line,
                                       star_plus=(0,), star_minus=(0,)),
        "interval_boundary": CurveGerm(basepoint=(0.0, 0.0), branch=line,
                                       star_plus=(0,), star_minus=()),
        "parabola_regular": CurveGerm(basepoint=(0.0, 0.0), branch=parabola,
                                      star_plus=(0,), star_minus=(0,)),
        "cusp_2_3": cusp(2, 3),
        "cusp_2_5": cusp(2, 5),
        "cusp_3_4": cusp(3, 4),
    }


BUILTIN_GERM_IDS = tuple(builtin_germs().keys())

#: Germ-file keys besides the ``term.<coord>.<exponent>`` tail terms.
_GERM_KEYS = ("ambient_dim", "k", "c_re", "star_plus", "star_minus",
              "point_class", "basepoint")


def _parse_germ(text, source):
    sections = read_sections(text, source)
    headers = [line for name, line, _ in sections if name is not None]
    if headers:
        raise FormatError("a germ file has no [sections]", headers[0], 1,
                          source)
    keys = sections[0][2] if sections else {}
    positions = {key: entry[1:] for key, entry in keys.items()}

    def scalar(key, kind):
        if key not in keys:
            raise FormatError(f"missing required key '{key}'", None, None,
                              source)
        return convert_list(keys[key], kind, key, source, (1,))[0]

    n = scalar("ambient_dim", int)
    k = scalar("k", int)
    c = scalar("c_re", float)
    terms = {}
    for key, entry in keys.items():
        if not key.startswith("term."):
            if key not in _GERM_KEYS:
                raise FormatError(f"unknown key '{key}'", *entry[1:], source)
            continue
        try:
            coord, exponent = (int(piece) for piece in key.split(".")[1:])
        except ValueError:
            raise FormatError("term keys look like 'term.<coord>.<exponent>'",
                              *entry[1:], source) from None
        if not 2 <= coord <= n:
            raise FormatError(f"term coordinate {coord} outside 2..{n}",
                              *entry[1:], source)
        value = complex(*convert_list(entry, float, key, source, (1, 2)))
        terms.setdefault(coord, []).append((exponent, value))
        positions[f"term.{coord}.{exponent}"] = entry[1:]

    def star(key):
        if key not in keys or keys[key][0].lower() in ("", "none"):
            return ()
        return convert_list(keys[key], int, key, source)

    tail = []
    for coord in range(2, n + 1):
        try:
            tail.append(TruncatedSeries(terms=tuple(sorted(
                terms.get(coord, ()), key=lambda term: term[0]))))
        except InvalidBranchError as exc:
            raise FormatError(f"coordinate {coord}: {exc}",
                              *positions[f"term.{coord}.{exc.field}"],
                              source) from None
    try:
        germ = CurveGerm(
            basepoint=(convert_list(keys["basepoint"], float, "basepoint",
                                    source)
                       if "basepoint" in keys else (0.0,) * n),
            branch=PuiseuxBranch(k=k, c=c, tail=tuple(tail)),
            star_plus=star("star_plus"), star_minus=star("star_minus"))
    except GermError as exc:
        raise FormatError(str(exc), *positions.get(exc.field, (None, None)),
                          source) from None
    declared = keys.get("point_class", (germ.point_class,))[0]
    if declared != germ.point_class:
        raise FormatError(
            f"point_class '{declared}' contradicts k = {k} and the stars, "
            f"which make the germ {germ.point_class}",
            *positions["point_class"], source)
    return germ


def parse_germ_text(text):
    """Parse the flat key=value germ grammar. See the README for the format."""
    return _parse_germ(text, "<germ>")


def load_germ(path):
    """Load a germ definition file; errors name the file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return _parse_germ(text, str(path))
