"""Report rows and their CSV form, shared by the CLI and `verify`.

Every study reports through ``ReportRow``; ``emit_csv`` writes them
sorted, with 17 significant digits and CRLF line endings, so a rerun
byte-reproduces the file.  The row helpers below build the rows of the
studies that both the scenario CLI and the acceptance suite run; each
returns (raw rows, fit rows), the contents of `<name>_raw.csv` and
`<name>_fit.csv`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve_model import DomainError, geodesic_distance

CSV_HEADER = ("scenario", "study", "degree", "epsilon", "value",
              "fitted_exponent", "slack", "status")
STATUSES = ("ok", "violation", "excluded")

#: Geodesic probe radii 2^-3 .. 2^-10.
GEODESIC_RADII = tuple(2.0 ** -m for m in range(3, 11))

#: Largest accepted gap between the geodesic slope and the multiplicity.
GEODESIC_TOLERANCE = 0.05


@dataclass(frozen=True)
class ReportRow:
    """One CSV line; optional fields render as empty cells."""

    scenario: str
    study: str
    degree: Optional[int] = None
    epsilon: Optional[float] = None
    value: Optional[float] = None
    fitted_exponent: Optional[float] = None
    slack: Optional[float] = None
    status: str = "ok"

    def __post_init__(self):
        if self.status not in STATUSES:
            raise DomainError(f"unknown row status '{self.status}'")


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _sort_key(row):
    return (row.scenario,
            row.degree is None, row.degree if row.degree is not None else 0,
            row.epsilon is None,
            row.epsilon if row.epsilon is not None else 0.0)


def emit_csv(rows, path):
    """Write rows sorted by (scenario, degree, epsilon), RFC-4180 style."""
    ordered = sorted(rows, key=_sort_key)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(CSV_HEADER)
        for row in ordered:
            writer.writerow([row.scenario, row.study,
                             _format_cell(row.degree),
                             _format_cell(row.epsilon),
                             _format_cell(row.value),
                             _format_cell(row.fitted_exponent),
                             _format_cell(row.slack),
                             row.status])
    return path


def scan_rows(scenario, study, fit, fit_status="ok"):
    """Cell rows and fit row of a scaling study's ``markov_lp.FitResult``.

    Cells left out of the fit are marked ``excluded``; the fit row
    carries alpha_eps, alpha_deg and the residual norm.
    """
    raw = [ReportRow(scenario, study, degree, eps, factor,
                     status="ok" if used else "excluded")
           for degree, eps, factor, used in fit.design]
    return raw, [ReportRow(scenario, study, None, None, fit.alpha_eps,
                           fitted_exponent=fit.alpha_deg,
                           slack=fit.residual_norm, status=fit_status)]


def geodesic_rows(scenario, study, branch):
    """Distance rows at GEODESIC_RADII and their log-log fit row.

    The fit row carries the distance prefactor, the slope, and the
    slope's deviation from the branch multiplicity, which decides the
    status.
    """
    distances = [geodesic_distance(branch, 0.0, r) for r in GEODESIC_RADII]
    raw = [ReportRow(scenario, study, None, radius, distance)
           for radius, distance in zip(GEODESIC_RADII, distances)]
    design = np.column_stack([np.log(GEODESIC_RADII),
                              np.ones(len(GEODESIC_RADII))])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.log(distances),
                                             rcond=None)
    deviation = abs(float(slope) - branch.k)
    return raw, [ReportRow(scenario, study, None, None,
                           value=float(math.exp(intercept)),
                           fitted_exponent=float(slope), slack=deviation,
                           status="ok" if deviation <= GEODESIC_TOLERANCE
                           else "violation")]


def hcp_rows(scenario, study, fit, status="ok"):
    """Probe rows and fit row of an ``extremal_green.HcpFit``."""
    raw = [ReportRow(scenario, study, None, delta, value)
           for delta, value in zip(fit.deltas, fit.values)]
    return raw, [ReportRow(scenario, study, None, None, fit.constant,
                           fitted_exponent=fit.alpha, slack=fit.r_squared,
                           status=status)]
