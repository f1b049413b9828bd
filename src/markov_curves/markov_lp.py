"""Discrete tangential Markov factors as linear programs.

The Markov factor of a sampled set S with basepoint x0, direction v and
degree n is

    M = sup { |D_v p(x0)| : deg p <= n,  |p(x)| <= 1 for all x in S },

a finite linear program once S is finite: the objective is the exact
directional-derivative functional in a polynomial basis and the
constraints are two-sided bounds at the samples.  Solved at a vertex,
the optimizer is an extremal polynomial that equioscillates on a
support subset of S.

The basis is a product Chebyshev family scaled to the bounding box of
the samples, which keeps the constraint matrix well conditioned far
past where a raw monomial basis degrades.  Coordinates in which the
samples are flat (for example a planar germ whose trace lies in a line)
are frozen out of the basis; the direction v must stay inside the
sampled slice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curve_model import (DomainError, NumericError, _integer_count,
                          sample_real_trace, tangent_vector)
from .lp import solve_sup_norm_lp

#: Above this condition estimate the sample/basis pairing is rejected.
CONDITION_LIMIT = 1e12

#: Degenerate-coordinate threshold relative to the box diameter.
FLAT_TOL = 1e-14

CAUCHY_QUAD_POINTS = 512


class TooFewPointsError(NumericError):
    """The samples do not resolve the objective: the LP is unbounded."""


class ConditioningError(NumericError):
    """Sample/basis pairing too ill-conditioned to trust."""


def _chebyshev_table(u, degree, second_kind=False):
    """T_0..T_degree at u, shape (*u.shape, degree+1). Complex safe.

    With ``second_kind`` the same recurrence starts from U_1 = 2u and
    gives U_0..U_degree.
    """
    u = np.asarray(u)
    table = np.empty(u.shape + (degree + 1,), dtype=u.dtype)
    table[..., 0] = 1.0
    if degree >= 1:
        table[..., 1] = 2.0 * u if second_kind else u
    for j in range(2, degree + 1):
        table[..., j] = 2.0 * u * table[..., j - 1] - table[..., j - 2]
    return table


def _chebyshev_derivative_table(u, degree):
    """T_0'..T_degree' at scalar u via T_m' = m * U_{m-1}."""
    out = np.zeros(degree + 1, dtype=np.asarray(u).dtype)
    if degree >= 1:
        out[1:] = np.arange(1, degree + 1) * _chebyshev_table(
            u, degree - 1, second_kind=True)
    return out


def _graded_indices(dims, degree, frozen):
    """Multi-indices with |alpha| <= degree, graded lexicographic.

    ``frozen`` marks coordinates forced to exponent zero.
    """
    indices = []
    active = [d for d in range(dims) if not frozen[d]]
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(active, total):
            alpha = [0] * dims
            for d in combo:
                alpha[d] += 1
            indices.append(tuple(alpha))
    return tuple(indices)


@dataclass(frozen=True)
class PolynomialBasis:
    """Product Chebyshev basis T_a1((x1-c1)/h1) * ... of total degree <= n.

    The constant element is 1 everywhere, in particular at the box
    center.  ``frozen`` marks coordinates without sample variation;
    those never carry a positive exponent.
    """

    ambient_dim: int
    degree: int
    center: tuple
    half_width: tuple
    frozen: tuple
    indices: tuple

    @classmethod
    def from_points(cls, points, degree):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise DomainError("sample array must have shape (m, n)")
        if points.size == 0:
            raise DomainError("sample array is empty")
        if not np.all(np.isfinite(points)):
            raise DomainError("samples must be finite")
        if _integer_count(degree, "degree") < 0:
            raise DomainError("degree must be nonnegative")
        low = points.min(axis=0)
        high = points.max(axis=0)
        center = 0.5 * (low + high)
        half = 0.5 * (high - low)
        diameter = float(np.max(high - low))
        frozen = tuple(bool(h <= FLAT_TOL * max(1.0, diameter)) for h in half)
        half = tuple(1.0 if flat else float(h)
                     for h, flat in zip(half, frozen))
        indices = _graded_indices(points.shape[1], degree, frozen)
        return cls(ambient_dim=points.shape[1], degree=degree,
                   center=tuple(float(c) for c in center),
                   half_width=half, frozen=frozen, indices=indices)

    @property
    def count(self):
        return len(self.indices)

    def evaluate(self, points):
        """Basis matrix of shape (m, count); complex points allowed."""
        points = np.asarray(points)
        if points.ndim == 1:
            points = points[None, :]
        center = np.asarray(self.center, dtype=points.dtype)
        half = np.asarray(self.half_width, dtype=points.dtype)
        u = (points - center) / half
        tables = [_chebyshev_table(u[:, d], self.degree)
                  for d in range(self.ambient_dim)]
        alpha = np.asarray(self.indices)
        out = np.ones((points.shape[0], self.count), dtype=u.dtype)
        for d in range(self.ambient_dim):
            out *= tables[d][:, alpha[:, d]]
        return out

    def derivative_row(self, x0, v):
        """Exact directional-derivative functional at x0.

        Row r with r @ coefficients == D_v p(x0); differentiates the
        scaled Chebyshev recurrences (no finite differences).
        """
        x0 = np.asarray(x0, dtype=float)
        v = np.asarray(v, dtype=float)
        if x0.shape != (self.ambient_dim,) or v.shape != (self.ambient_dim,):
            raise DomainError("x0 and v must be ambient-dimension vectors")
        for d in range(self.ambient_dim):
            if self.frozen[d] and abs(v[d]) > 1e-12:
                raise DomainError(
                    f"direction leaves the sampled slice (coordinate {d})")
        u = (x0 - np.asarray(self.center)) / np.asarray(self.half_width)
        values = [_chebyshev_table(np.asarray(u[d]), self.degree)
                  for d in range(self.ambient_dim)]
        derivs = [_chebyshev_derivative_table(u[d], self.degree) /
                  self.half_width[d]
                  for d in range(self.ambient_dim)]
        alpha = np.asarray(self.indices)
        row = np.zeros(self.count)
        for d in range(self.ambient_dim):
            if v[d] == 0.0:
                continue
            term = v[d] * derivs[d][alpha[:, d]]
            for other in range(self.ambient_dim):
                if other != d:
                    term *= values[other][alpha[:, other]]
            row += term
        return row


@dataclass(frozen=True)
class MarkovProblem:
    """A discrete Markov extremal problem on an (m, n) sample array."""

    samples: object  # (m, n) array
    x0: tuple
    v: tuple
    degree: int

    #: How markov_factor reduces the sample matrix, None for
    #: _reduce_columns.  Not a field: only a _StudyCell sets it.
    reduce_columns = None
    #: Whether markov_factor stops at a certified forward solve.  Not
    #: a field: only a _StudyCell sets it (see markov_factor).
    one_orientation = False

    def __post_init__(self):
        if not np.all(np.isfinite(np.asarray(self.x0, dtype=float))):
            raise DomainError("basepoint x0 must be finite")
        v = np.asarray(self.v, dtype=float)
        if not math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=0,
                            abs_tol=1e-9):
            raise DomainError("direction v must have unit Euclidean norm")
        if _integer_count(self.degree, "degree") < 0:
            raise DomainError("degree must be nonnegative")


@dataclass(frozen=True)
class MarkovResult:
    """Solved Markov factor with its extremal polynomial."""

    factor: float
    coefficients: np.ndarray
    basis: PolynomialBasis


@dataclass(frozen=True)
class ColumnReduction:
    """The numerically spanned columns of one constraint matrix.

    ``matrix`` is the constraint matrix restricted to those columns and
    ``back_map`` lifts reduced coefficient vectors to the full basis
    (minimal-norm representative); ``condition`` is the effective
    condition number of the kept columns.
    """

    matrix: np.ndarray
    back_map: np.ndarray
    condition: float

    @functools.cached_property
    def crash_rows(self):
        """N independent rows of ``matrix``, picked greedily by volume.

        Gram-Schmidt with row pivoting: each step takes the row farthest
        from the span of the rows already taken.  These are approximate
        Fekete points of the samples (Bos, De Marchi, Sommariva &
        Vianello, SIAM J. Numer. Anal. 48, 2010), and the crash basis of
        every Siciak LP on this matrix (peak).  The row products are
        einsum sums, which do not depend on the BLAS thread count.
        """
        residual = self.matrix.copy()
        picked = []
        for _ in range(residual.shape[1]):
            norms = np.einsum("ij,ij->i", residual, residual)
            row = int(norms.argmax())
            picked.append(row)
            direction = residual[row] / math.sqrt(norms[row])
            residual -= np.outer(np.einsum("ij,j->i", residual, direction),
                                 direction)
        return np.array(picked)

    def project(self, functional):
        """Restrict a functional to the kept columns.

        The one thin-sample guard: it asks whether the samples resolve
        this functional, not how many there are.  Raises
        TooFewPointsError ("unresolved component") when the functional
        has a component the samples cannot see, since the discrete
        problem is then unbounded, and then ConditioningError when the
        condition number exceeds CONDITION_LIMIT.
        """
        if self.back_map.shape[0] == self.back_map.shape[1]:
            # Full rank: the back map is the identity.
            projected = functional
        else:
            projected = self.back_map.T @ functional
            leak = float(np.linalg.norm(functional
                                        - self.back_map @ projected))
            scale = float(np.linalg.norm(functional))
            if leak > 1e-6 * max(1.0, scale):
                raise TooFewPointsError(
                    "samples do not resolve the objective functional "
                    f"(unresolved component {leak:.3e}); add sample points")
        if not np.isfinite(self.condition) or self.condition > CONDITION_LIMIT:
            raise ConditioningError(
                f"basis condition estimate {self.condition:.3e} "
                f"exceeds {CONDITION_LIMIT:.1e}; lower the degree or rescale")
        return projected

    def peak(self, objective):
        """Maximize ``objective @ w`` subject to ``|matrix w| <= 1``.

        ``objective`` is already projected.  The solve starts from
        crash_rows and runs no phase one.  Returns the SupNormSolution;
        ``back_map`` lifts its coefficients to the full basis.
        """
        return solve_sup_norm_lp(self.matrix, objective,
                                 crash_rows=self.crash_rows)


def _reduce_columns(matrix):
    """SVD, rank and condition of a constraint matrix, as a ColumnReduction.

    Every caller's matrix has a column that is never zero (the constant
    basis element, or the rotated T_0), so the largest singular value
    is positive.  The checks wait for ColumnReduction.project, which
    sees the functional; a NaN or inf entry, an SVD that does not
    converge or a singular value that overflows raises ConditioningError
    here.

    Only the singular values and V are used.  On a tall matrix, M at
    least int(N * 11 / 6), LAPACK's dgesdd (its path 3) runs dgeqrf and
    takes the SVD of the zeroed R, so the SVD of qr(matrix, mode="r")
    has the same bits without Q, U or the M x N product behind U.
    Below that cut dgesdd bidiagonalizes the matrix itself, with other
    bits, so a shorter matrix takes the direct SVD.
    """
    if not np.isfinite(matrix).all():
        raise ConditioningError("non-finite entries in the constraint matrix")
    tall = matrix.shape[0] >= int(matrix.shape[1] * 11 / 6)
    try:
        singular, vt = np.linalg.svd(
            np.linalg.qr(matrix, mode="r") if tall else matrix,
            full_matrices=False)[1:]
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{exc} on the constraint matrix") from exc
    if not np.all(np.isfinite(singular)):
        raise ConditioningError(
            "non-finite singular values on the constraint matrix")
    # eps first: singular[0] * max(M, N) can overflow near the float max.
    cutoff = singular[0] * (max(matrix.shape) * np.finfo(float).eps)
    rank = int(np.sum(singular > cutoff))
    condition = float(singular[0] / singular[rank - 1])
    if rank == matrix.shape[1]:
        return ColumnReduction(matrix, np.eye(rank), condition)
    back_map = vt[:rank].T
    return ColumnReduction(matrix @ back_map, back_map, condition)


class _LastReduction:
    """_reduce_columns that reuses its last result for the same bits.

    The same input bits give the same SVD, so the reuse is exact.  Bits
    are compared, not values: np.array_equal takes -0.0 for 0.0 and
    finds a nan unequal to itself.  It holds a reference to the last
    matrix, which its caller must not change in place, and that
    matrix's ColumnReduction; both are dropped before a new matrix is
    reduced.
    """

    def __init__(self):
        self._matrix = None
        self._reduction = None

    def __call__(self, matrix):
        if not self._holds(matrix):
            self._matrix = self._reduction = None
            self._reduction = _reduce_columns(matrix)
            self._matrix = matrix
        return self._reduction

    def _holds(self, matrix):
        last = self._matrix
        return (last is not None and last.dtype == matrix.dtype
                and last.shape == matrix.shape
                and _bits(last) == _bits(matrix))


def _bits(array):
    """``array``'s bits in C order, uncopied if contiguous; as 8-byte
    words where they fit, which compare ten times faster than bytes."""
    view = memoryview(np.ascontiguousarray(array)).cast("B")
    return view.cast("Q") if view.nbytes % 8 == 0 else view


def markov_factor(problem):
    """Solve the Markov LP in one or both objective orientations.

    The forward objective ``+f`` is solved first.  A lone problem also
    solves the mirrored ``-f`` and keeps the larger value.  A scaling
    study cell stops at a forward solve that is ``certified`` (see
    lp.SupNormSolution), since the mirrored one cannot beat it beyond
    tolerance; otherwise it solves both as well.  Lone problems keep
    both solves for verify's criterion 1: at degree 10 its certified
    forward value is 99.999999999999957 and the mirrored one
    99.999999999999972, and the slack of that row, about 3e-16, would
    move by a third of itself.

    Fewer samples than basis dimensions are accepted (a curve's trace
    space is smaller than the ambient one): the sample matrix is reduced
    to the columns they span, and ColumnReduction.project decides
    whether that resolves the derivative.

    Raises a NumericError: TooFewPointsError when the samples do not
    resolve the derivative functional (however many there are),
    ConditioningError when the basis matrix cannot be trusted, and a
    SimplexError (UnboundedProblemError among them) as the solver
    raises it.
    """
    x0 = np.asarray(problem.x0, dtype=float)
    v = np.asarray(problem.v, dtype=float)
    samples = np.asarray(problem.samples, dtype=float)
    basis = PolynomialBasis.from_points(samples, problem.degree)
    # Restriction to an algebraic curve can have a genuine kernel
    # (x**3 - y**2 vanishes identically on a (2,3) cusp trace), which
    # would leave permanently degenerate artificials in the simplex.
    # Curve ideal members have zero tangential derivative, so the
    # derivative survives the reduction whenever the samples resolve it.
    reduction = (problem.reduce_columns or _reduce_columns)(
        basis.evaluate(samples))
    functional = reduction.project(basis.derivative_row(x0, v))
    # |A w| <= 1 is symmetric, so both have the same value in exact
    # arithmetic, yet one uncertified solve alone is not safe.
    # Artificials that stay basic at zero after phase one can grow in
    # phase two (lp.solve_sup_norm_lp), leaving a wrong basis: on
    # parabola_regular (n=12, eps=0.125, density 300) the forward solve
    # returns 0.0 and the mirrored one 184.0444695071.  Taking the
    # larger value hides that defect until the simplex is repaired.  A
    # certified forward solve has no such defect, so a study cell stops
    # there; a lone problem solves both (see the docstring).  Forward
    # first in max, so a tie keeps it.
    chosen = solve_sup_norm_lp(reduction.matrix, functional)
    if not (problem.one_orientation and chosen.certified):
        chosen = max((chosen, solve_sup_norm_lp(reduction.matrix,
                                                -functional)),
                     key=lambda solution: solution.value)
    return MarkovResult(factor=chosen.value,
                        coefficients=reduction.back_map @ chosen.coefficients,
                        basis=basis)


@dataclass(frozen=True)
class FitResult:
    """Joint fit  log M = alpha_deg*log n + alpha_eps*log(1/eps) + b."""

    alpha_deg: float
    alpha_eps: float
    intercept: float
    residual_norm: float
    design: tuple  # rows (degree, epsilon, factor, used_in_fit)


def fit_scaling(design):
    """Least-squares exponents from (degree, epsilon, factor, used) rows."""
    used = [(n, eps, m) for n, eps, m, keep in design if keep]
    degrees = sorted({n for n, _, _ in used})
    epsilons = sorted({eps for _, eps, _ in used})
    if len(degrees) < 3 or len(epsilons) < 3:
        raise DomainError(
            "scaling fit needs at least 3 distinct degrees and 3 distinct "
            "epsilon values after excluding the largest epsilon")
    if any(m <= 0 for _, _, m in used):
        raise NumericError("nonpositive Markov factor in the scaling grid")
    rows = np.array([[math.log(n), math.log(1.0 / eps), 1.0]
                     for n, eps, _ in used])
    rhs = np.array([math.log(m) for _, _, m in used])
    coeffs, _, _, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = float(np.linalg.norm(rows @ coeffs - rhs))
    return FitResult(alpha_deg=float(coeffs[0]), alpha_eps=float(coeffs[1]),
                     intercept=float(coeffs[2]), residual_norm=residual,
                     design=tuple(design))


@dataclass(frozen=True)
class _StudyCell(MarkovProblem):
    """One scaling_study cell, reduced through the study's _LastReduction.

    markov_factor stops at its forward solve when that is certified.
    """

    reduce_columns: _LastReduction
    one_orientation = True


def scaling_study(germ, degrees, epsilons, density):
    """Markov factors over a (degree, epsilon) grid and their joint fit.

    Returns the FitResult; its ``design`` holds every cell.  A cell
    whose forward solve is certified keeps that solve alone, so its
    factor can differ from markov_factor's on the same samples in the
    last bits; every other cell is bit for bit markov_factor's.  Each
    epsilon must lie in (0, 1]: epsilon 0 would sample the basepoint
    alone.

    Samples realize the trace ball parametrically: parameters run to
    eps along the star rays, so the geometric radius is eps**k at a
    singular basepoint and eps otherwise.  The largest epsilon is
    excluded from the fit; its cells see the most ball-boundary
    discretization bias.

    Each epsilon is sampled once, on first use, and each distinct
    sample matrix is reduced once: on a quasi-homogeneous germ the
    dyadic epsilons of a degree give bitwise-equal matrices, and the
    cells in a row of the grid share one ColumnReduction (see
    _LastReduction).  Each cell keeps its own basis and derivative row.
    """
    degrees = tuple(_integer_count(n, "degree") for n in degrees)
    epsilons = tuple(float(e) for e in epsilons)
    if not degrees or not epsilons:
        raise DomainError("degree and epsilon grids must be nonempty")
    for eps in epsilons:
        if not 0.0 < eps <= 1.0:
            raise DomainError(f"epsilon must lie in (0, 1], got {eps:g}")
    direction = tangent_vector(germ)
    samples = {}
    reduce_columns = _LastReduction()

    def solve(n, eps):
        if eps not in samples:
            samples[eps] = sample_real_trace(germ, eps, density)
        problem = _StudyCell(samples=samples[eps], x0=germ.basepoint,
                             v=tuple(direction), degree=n,
                             reduce_columns=reduce_columns)
        try:
            return markov_factor(problem).factor
        except (NumericError, DomainError) as exc:
            raise NumericError(
                f"scaling cell degree={n} epsilon={eps:g} failed: {exc}"
            ) from exc

    largest = max(epsilons)
    return fit_scaling(tuple((n, eps, solve(n, eps), eps != largest)
                             for n in degrees for eps in epsilons))


@dataclass(frozen=True)
class CauchyDerivativeReport:
    """One instance of the disk-derivative bound on a germ.

    With m the germ multiplicity and L the leading coefficient vector
    of the parametrization, the coefficient of z**m in p(phi(z)) equals
    norm(L) * D_v p(x0), so the Cauchy estimate on the disk of radius r
    gives  |D_v p(x0)| <= max_{|z|=r} |p(phi(z))| / (r**m * norm(L)).
    """

    lhs: float
    bound: float
    constant: float
    order: int
    holds: bool
    slack: float


@dataclass(frozen=True)
class _CauchyCircle:
    """What the disk-derivative bound needs of one (germ, basis, radius).

    The derivative row at the basepoint and the basis matrix on the
    image of the circle |z| = r do not depend on the polynomial, so a
    battery of checks builds them once.
    """

    radius: float
    order: int
    constant: float
    row: np.ndarray
    matrix: np.ndarray

    @classmethod
    def on(cls, germ, basis, radius):
        if not (0.0 < radius < 1.0):
            raise DomainError("radius must lie in (0, 1)")
        lead_norm = float(np.linalg.norm(germ.branch.leading_vector()))
        circle = radius * np.exp(2j * math.pi
                                 * np.arange(CAUCHY_QUAD_POINTS)
                                 / CAUCHY_QUAD_POINTS)
        return cls(radius=radius, order=germ.branch.k,
                   constant=1.0 / lead_norm,
                   row=basis.derivative_row(germ.basepoint,
                                            tangent_vector(germ)),
                   matrix=basis.evaluate(germ.evaluate(circle)))

    def check(self, coefficients):
        """The CauchyDerivativeReport of one coefficient vector."""
        lhs = abs(float(self.row @ coefficients))
        peak = float(np.abs(self.matrix @ coefficients).max())
        bound = self.constant * peak / self.radius ** self.order
        slack = bound - lhs
        holds = lhs <= bound * (1.0 + 1e-9) + 1e-12
        return CauchyDerivativeReport(lhs=lhs, bound=bound,
                                      constant=self.constant,
                                      order=self.order, holds=bool(holds),
                                      slack=slack)


def cauchy_derivative_check(germ, basis, coefficients, radius):
    """Check the disk-derivative bound for one polynomial.

    ``coefficients`` are the polynomial's coefficients in ``basis``,
    the pair a MarkovResult carries.  The supremum over the circle
    |z| = r is discretized with CAUCHY_QUAD_POINTS equispaced points;
    the reported constant is 1/norm(L), exact for the leading-order
    extraction.
    """
    return _CauchyCircle.on(germ, basis, radius).check(coefficients)
