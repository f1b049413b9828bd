"""Scenario runner and I/O surface: config parsing, studies, CSV, CLI.

A configuration file is flat key=value text grouped under bracketed
section headers, read by ``curve_model.read_sections`` like a germ
file; each section is one scenario:

    [cusp_scan]
    study = markov_scan
    germ = cusp_2_3
    degrees = 2, 3, 4, 6, 8, 12
    epsilons = 0.5, 0.25, 0.125, 0.0625
    density = 120

Germs are built-in ids or paths to germ files (resolved relative to
the config).  Every scenario writes `<name>_raw.csv` and
`<name>_fit.csv` into the output directory; all floating values are
printed with 17 significant digits and rows are sorted, so a rerun
with the same config byte-reproduces the files.

Exit codes: 0 ok, 1 violation, 2 config error or an output directory
that cannot be written, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .acceptance import run_all
from .curve_model import (BUILTIN_GERM_IDS, DomainError, FormatError,
                          NumericError, builtin_germs, convert_list,
                          load_germ, read_sections, sample_real_trace)
from .extremal_green import (GREEN_PROBES, GREEN_TOLERANCE,
                             INTERVAL_HCP_RULES, green_interval, hcp_fit,
                             segment_closed_form, siciak_lp, star_points)
from .markov_lp import scaling_study
from .reports import ReportRow, emit_csv, geodesic_rows, hcp_rows, scan_rows

#: Exit 3: every numeric failure derives from NumericError, and a
#: DomainError from a study is an input the instrument cannot pose.
_NUMERIC_FAILURES = (NumericError, DomainError)


@dataclass(frozen=True)
class Scenario:
    """One configured study run."""

    name: str
    study: str
    germ: object
    degrees: tuple = ()
    epsilons: tuple = ()
    density: int = 120


# ----------------------------------------------------------------------
# Configuration parsing


def parse_config_text(text, source="<config>", base_dir="."):
    """Parse scenario sections; errors carry line and column."""
    scenarios = []
    for name, line, keys in read_sections(text, source):
        if name is None:
            raise FormatError("key outside of any [scenario] section", line,
                              next(iter(keys.values()))[2], source)
        scenarios.append(_build_scenario(name, line, keys, source, base_dir))
    return scenarios


def _build_scenario(name, line, keys, source, base_dir):
    def required(key):
        if not keys.get(key, ("",))[0]:
            raise FormatError(f"scenario '{name}' is missing '{key}'", line, 1,
                              source)
        return keys[key]

    study = required("study")[0]
    if study not in _STUDIES:
        raise FormatError(
            f"unknown study '{study}' (valid: {', '.join(_STUDIES)})",
            *keys["study"][1:], source)
    germ = _resolve_germ(required("germ"), base_dir, source)
    allowed = ("study", "germ", *_STUDIES[study][1])
    for key, (_, key_line, column) in keys.items():
        if key not in allowed:
            raise FormatError(f"unknown key '{key}' for study '{study}' "
                              f"(valid: {', '.join(sorted(allowed))})",
                              key_line, column, source)
    # The library's bounds; star_points needs two points per ray.
    least = 2 if study == "green_eval" else 1
    fields = {}
    for key, kind, counts, valid, wanted in (
            ("degrees", int, None, lambda n: n >= 1, "at least 1"),
            ("epsilons", float, None, lambda e: 0.0 < e <= 1.0, "in (0, 1]"),
            ("density", int, (1,), lambda n: n >= least, f"at least {least}")):
        if key in keys:
            values = convert_list(keys[key], kind, key, source, counts)
            for value in values:
                if not valid(value):
                    raise FormatError(f"key '{key}' needs values {wanted}, "
                                      f"got {value}", *keys[key][1:], source)
            fields[key] = values[0] if counts else values
    for key in ("degrees", "epsilons"):
        if study in ("markov_scan", "green_eval") and not fields.get(key):
            raise FormatError(f"scenario '{name}' needs a nonempty "
                              f"{key[:-1]} list",
                              *keys.get(key, (None, line, 1))[1:], source)
    return Scenario(name=name, study=study, germ=germ, **fields)


def _resolve_germ(entry, base_dir, source):
    identifier, line, column = entry
    if identifier in BUILTIN_GERM_IDS:
        return builtin_germs()[identifier]
    candidate = Path(base_dir) / identifier
    if identifier.endswith(".germ") or candidate.exists():
        try:
            return load_germ(candidate)
        except (OSError, FormatError) as exc:
            raise FormatError(f"germ file '{identifier}': {exc}", line,
                              column, source) from None
    raise FormatError(
        f"unknown germ id '{identifier}'; valid ids: "
        f"{', '.join(BUILTIN_GERM_IDS)} (or a path to a .germ file)",
        line, column, source)


def load_config(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read config: {exc}", None, None,
                          str(path))
    return parse_config_text(text, source=str(path),
                             base_dir=str(path.parent))


# ----------------------------------------------------------------------
# Studies


def _markov_scan(scenario):
    fit = scaling_study(scenario.germ, scenario.degrees, scenario.epsilons,
                        scenario.density)
    return scan_rows(scenario.name, "markov_scan", fit)


def _green_eval(scenario):
    angles = sorted(a % (2.0 * math.pi) for a in scenario.germ.ray_angles())
    # The star is a cone and siciak_lp normalizes by the star's center and
    # scale, so V_{eps K}(eps z) = V_K(z): one LP per degree serves every
    # epsilon (bit for bit at dyadic epsilons).
    points = star_points(angles, 1.0, scenario.density)
    values = {degree: siciak_lp(points, GREEN_PROBES, degree)
              for degree in scenario.degrees}
    raw = []
    for epsilon in scenario.epsilons:
        closed = segment_closed_form(angles, epsilon)
        for degree in scenario.degrees:
            for probe, result in zip(GREEN_PROBES, values[degree]):
                slack = None
                status = "ok"
                if closed is not None:
                    reference = closed(probe * epsilon)
                    slack = result.value - reference
                    if abs(slack) > GREEN_TOLERANCE + result.facet_slack:
                        status = "violation"
                raw.append(ReportRow(scenario.name, "green_eval", degree,
                                     epsilon, result.value, slack=slack,
                                     status=status))
    return raw, []


def _geodesic_fit(scenario):
    return geodesic_rows(scenario.name, "geodesic_fit", scenario.germ.branch)


def _hcp_probe(scenario):
    """Green evaluator of a probe list, probe rule, and pass window.

    A regular germ whose tail is zero traces a segment and uses the
    interval's closed form and window; every other germ goes through
    the Siciak LP on its sampled trace, with no window.
    """
    germ = scenario.germ
    order = germ.branch.k
    if order == 1 and not any(series.terms for series in germ.branch.tail):
        probe, window = INTERVAL_HCP_RULES[germ.point_class]
        return (lambda points: [green_interval(z) for z in points],
                probe, window)
    degree = max(scenario.degrees) if scenario.degrees else 8
    samples = sample_real_trace(germ, 0.25, scenario.density)

    def evaluator(points):
        return [result.value
                for result in siciak_lp(samples, points, degree)]

    def probe(delta):
        return germ.evaluate(1j * delta ** (1.0 / order))

    return evaluator, probe, None


def _hcp_fit(scenario):
    evaluator, probe, window = _hcp_probe(scenario)
    fit = hcp_fit(evaluator, probe)
    status = "ok"
    if window is not None and not (window[0] <= fit.alpha <= window[1]):
        status = "violation"
    return hcp_rows(scenario.name, "hcp_fit", fit, status)


#: Each study's runner and the keys it reads beside ``study`` and
#: ``germ``; a section that sets any other key is an error.  The
#: subcommand is the study name with dashes.
_STUDIES = {
    "markov_scan": (_markov_scan, ("degrees", "epsilons", "density")),
    "green_eval": (_green_eval, ("degrees", "epsilons", "density")),
    "geodesic_fit": (_geodesic_fit, ()),
    "hcp_fit": (_hcp_fit, ("degrees", "density")),
}


def _run_verify(out, seed):
    results = run_all(seed=0 if seed is None else seed)
    raw = [row for result in results for row in result.rows]
    emit_csv(raw, out / "verify_raw.csv")
    emit_csv([], out / "verify_fit.csv")
    failed = [result for result in results if not result.passed]
    for result in results:
        verdict = "ok" if result.passed else "FAIL"
        print(f"criterion {result.index:02d} {verdict}  {result.name}: "
              f"{result.detail}")
    return 1 if failed else 0


def run_scenario(config_path, out_dir=".", study_filter=None):
    """Run every scenario in the config; returns the process exit code."""
    try:
        scenarios = load_config(config_path)
        if study_filter is not None:
            scenarios = [s for s in scenarios if s.study == study_filter]
            if not scenarios:
                raise FormatError(
                    f"no scenario with study '{study_filter}' in config",
                    None, None, str(config_path))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        exit_code = 0
        for scenario in scenarios:
            runner = _STUDIES[scenario.study][0]
            try:
                raw, fit = runner(scenario)
            except _NUMERIC_FAILURES as exc:
                print(f"numeric failure in scenario '{scenario.name}' "
                      f"({scenario.study}): {exc}", file=sys.stderr)
                return 3
            emit_csv(raw, out / f"{scenario.name}_raw.csv")
            emit_csv(fit, out / f"{scenario.name}_fit.csv")
            if any(row.status == "violation" for row in raw + fit):
                exit_code = 1
        return exit_code
    except FormatError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 2


def _verify_command(out_dir, seed):
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        code = _run_verify(out, seed)
        elapsed = time.perf_counter() - started
        print(f"verify finished in {elapsed:.1f}s", file=sys.stderr)
        return code
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure in verify: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="markov-curves",
        description="Tangential Markov factors and extremal Green "
                    "functions on curve germs")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for study in _STUDIES:
        sub = subparsers.add_parser(
            study.replace("_", "-"),
            help=f"run {study} scenarios from a config")
        sub.add_argument("--config", required=True,
                         help="path to a scenario config file")
        sub.add_argument("--out-dir", default=".",
                         help="directory for the CSV reports")
        sub.add_argument("--seed", type=int, default=None,
                         help="accepted and ignored; no study is randomized")
    verify = subparsers.add_parser(
        "verify", help="run the built-in acceptance suite")
    verify.add_argument("--out-dir", default=".",
                        help="directory for the CSV reports")
    verify.add_argument("--seed", type=int, default=None,
                        help="seed override for randomized suites")
    subparsers.add_parser("list-germs", help="print the built-in germ ids")
    return parser


def main(argv=None):
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.command == "list-germs":
        for identifier in BUILTIN_GERM_IDS:
            print(identifier)
        return 0
    if options.command == "verify":
        return _verify_command(options.out_dir, options.seed)
    study = options.command.replace("-", "_")
    return run_scenario(options.config, out_dir=options.out_dir,
                        study_filter=study)


if __name__ == "__main__":
    sys.exit(main())
