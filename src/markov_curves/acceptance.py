"""The package's quantitative acceptance suite.

Each criterion function runs one oracle-backed check end to end and
returns a CriterionResult with pass/fail, a human-readable detail
line, and the CSV rows the verify report carries.  ``run_all`` runs
the whole suite; the CLI `verify` subcommand and the acceptance tests
both consume it, so the gate is identical everywhere.

None of the rows contain timing or timestamps: the verify report must
be byte-identical across reruns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .curve_model import (builtin_germs, chebyshev_grid,
                          norm_lower_bound_check)
from .extremal_green import (GREEN_PROBES, GREEN_TOLERANCE,
                             INTERVAL_HCP_RULES, bernstein_walsh_check,
                             green_interval, hcp_fit, segment_disk_bound_check,
                             siciak_lp, star_domination_check)
from .markov_lp import (MarkovProblem, cauchy_derivative_check, markov_factor,
                        scaling_study)
from .reports import ReportRow, geodesic_rows, hcp_rows, scan_rows
from .rng import Lcg, random_bivariate, random_polynomial

STUDY = "verify_all"

ENDPOINT_DEGREES = tuple(range(1, 11))
ENDPOINT_SAMPLES = 2001
ENDPOINT_TOLERANCE = 0.01
ENDPOINT_BUDGET_SECONDS = 30.0

INTERIOR_DEGREES = (3, 5, 7, 9, 11, 13)
SCAN_EPSILONS = (0.5, 0.25, 0.125, 0.0625)
INTERVAL_DENSITY = 160

CUSP_DEGREES = (2, 3, 4, 6, 8, 12)
CUSP_DENSITY = 120

SICIAK_DEGREE = 16

DISK_TRIPLES = ((0.0, 1.0, 0.5), (0.9, 1.0, 0.05), (-0.3, 0.5, 0.1))

SUITE_BUDGET_SECONDS = 300.0


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    rows: tuple


def _status(ok):
    return "ok" if ok else "violation"


def criterion_endpoint_markov():
    """Discrete endpoint factors against the Chebyshev derivative n**2."""
    points = chebyshev_grid(-1.0, 1.0, ENDPOINT_SAMPLES)[:, None]
    started = time.perf_counter()
    factors = [markov_factor(MarkovProblem(samples=points, x0=(1.0,),
                                           v=(1.0,), degree=degree)).factor
               for degree in ENDPOINT_DEGREES]
    elapsed = time.perf_counter() - started
    rows = []
    worst = 0.0
    for degree, factor in zip(ENDPOINT_DEGREES, factors):
        deviation = abs(factor / degree ** 2 - 1.0)
        worst = max(worst, deviation)
        rows.append(ReportRow("c01_endpoint_markov", STUDY, degree, None,
                              factor, slack=deviation,
                              status=_status(deviation <= ENDPOINT_TOLERANCE)))
    passed = worst <= ENDPOINT_TOLERANCE and elapsed <= ENDPOINT_BUDGET_SECONDS
    detail = (f"max relative deviation {worst:.2e} (allowed "
              f"{ENDPOINT_TOLERANCE}), {elapsed:.2f}s of "
              f"{ENDPOINT_BUDGET_SECONDS:.0f}s budget")
    return CriterionResult(1, "endpoint Markov factors", passed, detail,
                           tuple(rows))


def _scaling_fit(germ_id, degrees, density):
    return scaling_study(builtin_germs()[germ_id], degrees, SCAN_EPSILONS,
                         density)


def criterion_interior_scaling():
    """Interior interval scaling exponent sits near 1."""
    fit = _scaling_fit("interval_interior", INTERIOR_DEGREES,
                       INTERVAL_DENSITY)
    passed = 0.9 <= fit.alpha_deg <= 1.1
    rows, fit_rows = scan_rows("c02_interior_scaling", STUDY, fit,
                               _status(passed))
    detail = f"alpha_deg = {fit.alpha_deg:.4f} (window [0.9, 1.1])"
    return CriterionResult(2, "interior scaling exponent", passed, detail,
                           (*rows, *fit_rows))


def criterion_boundary_scaling():
    """Boundary scaling exponent sits near 2."""
    fit = _scaling_fit("interval_boundary", INTERIOR_DEGREES,
                       INTERVAL_DENSITY)
    passed = 1.9 <= fit.alpha_deg <= 2.1
    rows, fit_rows = scan_rows("c03_boundary_scaling", STUDY, fit,
                               _status(passed))
    detail = f"alpha_deg = {fit.alpha_deg:.4f} (window [1.9, 2.1])"
    return CriterionResult(3, "boundary scaling exponent", passed, detail,
                           (*rows, *fit_rows))


def criterion_cusp_scaling():
    """Cusp (2,3): exact multiplicity plus scaling exponent windows."""
    germ = builtin_germs()["cusp_2_3"]
    order = germ.branch.k
    fit = _scaling_fit("cusp_2_3", CUSP_DEGREES, CUSP_DENSITY)
    mult_ok = order == 2
    deg_ok = 2.0 <= fit.alpha_deg <= 4.2
    eps_ok = fit.alpha_eps <= 2.3
    passed = mult_ok and deg_ok and eps_ok
    rows, fit_rows = scan_rows("c04_cusp_scaling", STUDY, fit,
                               _status(deg_ok and eps_ok))
    rows += fit_rows + [ReportRow("c04_cusp_scaling", STUDY, 0, None,
                                  float(order), status=_status(mult_ok))]
    detail = (f"multiplicity = {order}, alpha_deg = {fit.alpha_deg:.4f} "
              f"(window [2.0, 4.2]), alpha_eps = {fit.alpha_eps:.4f} "
              f"(cap 2.3)")
    return CriterionResult(4, "cusp (2,3) multiplicity and scaling", passed,
                           detail, tuple(rows))


def criterion_interval_hcp():
    """Endpoint Hoelder exponent of the interval Green function."""
    probe, (low, high) = INTERVAL_HCP_RULES["regular_boundary"]
    fit = hcp_fit(lambda points: [green_interval(z) for z in points], probe)
    passed = low <= fit.alpha <= high
    rows, fit_rows = hcp_rows("c05_interval_hcp", STUDY, fit,
                              _status(passed))
    detail = f"alpha = {fit.alpha:.4f} (window [{low}, {high}])"
    return CriterionResult(5, "interval endpoint HCP exponent", passed,
                           detail, (*rows, *fit_rows))


def criterion_geodesic_exponent():
    """Geodesic distance grows like |z|^k at cusp basepoints."""
    rows = []
    details = []
    passed = True
    for germ_id in ("cusp_2_3", "cusp_3_4"):
        branch = builtin_germs()[germ_id].branch
        order = branch.k
        _, (fit,) = geodesic_rows(f"c06_geodesic_{germ_id}", STUDY, branch)
        slope = fit.fitted_exponent
        passed = passed and fit.status == "ok"
        details.append(f"{germ_id}: slope {slope:.4f} vs k = {order}")
        # The verify row reports the slope against the multiplicity.
        rows.append(replace(fit, degree=order, value=slope))
    return CriterionResult(6, "geodesic distance exponents", passed,
                           "; ".join(details), tuple(rows))


def criterion_siciak_convergence():
    """Discrete Green values on dense interval samples hit the closed form."""
    points = chebyshev_grid(-1.0, 1.0, ENDPOINT_SAMPLES)
    rows = []
    worst = 0.0
    results = siciak_lp(points, GREEN_PROBES, SICIAK_DEGREE)
    for z, result in zip(GREEN_PROBES, results):
        error = abs(result.value - green_interval(z))
        worst = max(worst, error)
        rows.append(ReportRow("c07_siciak_convergence", STUDY, SICIAK_DEGREE,
                              None, result.value, slack=error,
                              status=_status(error <= GREEN_TOLERANCE)))
    passed = worst <= GREEN_TOLERANCE
    detail = (f"max absolute error {worst:.4f} at degree {SICIAK_DEGREE} "
              f"(allowed {GREEN_TOLERANCE})")
    return CriterionResult(7, "discrete Green convergence", passed, detail,
                           tuple(rows))


def _bernstein_walsh_violations(seed):
    lcg = Lcg(seed)
    samples = chebyshev_grid(-1.0, 1.0, 1001)
    green_value = green_interval(1.5)
    violations = 0
    for _ in range(100):
        report = bernstein_walsh_check(random_polynomial(lcg, 10), samples,
                                       1.5, green_value)
        violations += 0 if report.holds else 1
    return violations


def _disk_bound_violations():
    return sum(segment_disk_bound_check(b, r, eps).violations
               for b, eps, r in DISK_TRIPLES)


def _norm_bound_violations():
    return sum(norm_lower_bound_check(germ.branch).violations
               for germ in builtin_germs().values())


def _cauchy_violations(seed):
    lcg = Lcg(seed)
    germs = builtin_germs()
    violations = 0
    for germ_id in ("cusp_2_3", "cusp_2_5", "cusp_3_4"):
        germ = germs[germ_id]
        for _ in range(50):
            report = cauchy_derivative_check(germ, random_bivariate(lcg, 4),
                                             0.25)
            violations += 0 if report.holds else 1
    return violations


def criterion_zero_violation_suites(seed=0):
    """The inequality checks hold identically: every suite reports zero."""
    suites = (
        ("bernstein_walsh", _bernstein_walsh_violations(seed)),
        ("disk_bound", _disk_bound_violations()),
        ("norm_lower_bound", _norm_bound_violations()),
        ("cauchy_derivative", _cauchy_violations(seed + 1)),
    )
    rows = []
    for position, (name, count) in enumerate(suites):
        rows.append(ReportRow(f"c08_suite_{name}", STUDY, position, None,
                              float(count), status=_status(count == 0)))
    passed = all(count == 0 for _, count in suites)
    detail = ", ".join(f"{name}: {count}" for name, count in suites)
    return CriterionResult(8, "zero-violation inequality suites", passed,
                           detail, tuple(rows))


def criterion_star_domination():
    """Trace-to-star Green ratio is stable across two probe degrees."""
    report = star_domination_check(builtin_germs()["cusp_2_3"], 0.25, 8)
    passed = report.relative_change <= 0.10
    rows = [ReportRow("c09_star_domination", STUDY, degree, report.epsilon,
                      ratio, slack=report.relative_change,
                      status=_status(passed))
            for degree, ratio in zip(report.degrees, report.max_ratios)]
    detail = (f"max ratios {report.max_ratios[0]:.4f} -> "
              f"{report.max_ratios[1]:.4f}, change "
              f"{report.relative_change:.2%} (allowed 10%)")
    return CriterionResult(9, "star domination ratio stability", passed,
                           detail, tuple(rows))


def run_all(seed=0):
    """Run every criterion; the last result is the runtime budget check."""
    started = time.perf_counter()
    results = [
        criterion_endpoint_markov(),
        criterion_interior_scaling(),
        criterion_boundary_scaling(),
        criterion_cusp_scaling(),
        criterion_interval_hcp(),
        criterion_geodesic_exponent(),
        criterion_siciak_convergence(),
        criterion_zero_violation_suites(seed),
        criterion_star_domination(),
    ]
    elapsed = time.perf_counter() - started
    passed = elapsed <= SUITE_BUDGET_SECONDS
    detail = (f"suite took {elapsed:.1f}s of {SUITE_BUDGET_SECONDS:.0f}s; "
              "reports carry no timestamps, so a rerun byte-reproduces them")
    results.append(CriterionResult(10, "runtime budget and reproducibility",
                                   passed, detail, ()))
    return results
