"""Tangential Markov factors and extremal Green functions on curve germs.

The package models real curve germs through Puiseux branch
parametrizations, computes discrete tangential Markov factors as
linear programs, evaluates Green functions (exactly on segments, by
LP lower bounds elsewhere), and ships a deterministic scenario CLI
with a quantitative acceptance suite.
"""

from .curve_model import (BUILTIN_GERM_IDS, CurveGerm, DomainError,
                          FormatError, InconsistentGermError,
                          InvalidBranchError, NormBoundReport, NumericError,
                          PuiseuxBranch, TruncatedSeries,
                          builtin_germs, chebyshev_grid,
                          geodesic_distance, load_germ,
                          norm_lower_bound_check, parse_germ_text,
                          sample_real_trace, tangent_vector)
from .extremal_green import (BernsteinWalshReport, DegenerateSegmentError,
                             DiskBoundReport, GreenEvaluation, HcpFit,
                             ProbeGridError, ProbeRuleError,
                             StarDominationReport, TooFewPointsError,
                             bernstein_walsh_check, green_interval,
                             green_segment, hcp_fit,
                             segment_disk_bound_check, siciak_lp,
                             star_domination_check, star_points)
from .lp import (PivotLimitError, SimplexError, SupNormSolution,
                 UnboundedProblemError, solve_sup_norm_lp)
from .markov_lp import (CauchyDerivativeReport, ConditioningError, FitResult,
                        MarkovProblem, MarkovResult, PolynomialBasis,
                        TooFewSamplesError, cauchy_derivative_check,
                        markov_factor, scaling_study)
from .reports import ReportRow, emit_csv
from .rng import Lcg, random_bivariate, random_polynomial

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
