"""Scenario runner and I/O surface: config parsing, studies, CSV, CLI.

A configuration file is flat key=value text grouped under bracketed
section headers; each section is one scenario:

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

Exit codes: 0 ok, 1 violation, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .acceptance import run_all
from .curve_model import (BUILTIN_GERM_IDS, DomainError, GermFormatError,
                          NumericError, builtin_germs, load_germ,
                          multiplicity, sample_real_trace)
from .extremal_green import (DEFAULT_FACETS, GREEN_PROBES, GREEN_TOLERANCE,
                             HCP_DELTAS, INTERVAL_HCP_RULES, ProbeRuleError,
                             TooFewPointsError, green_interval, hcp_fit,
                             segment_closed_form, siciak_lp, star_points)
from .lp import SimplexError
from .markov_lp import ConditioningError, TooFewSamplesError, scaling_study
from .reports import ReportRow, emit_csv, geodesic_rows, hcp_rows, scan_rows

STUDIES = ("markov_scan", "green_eval", "geodesic_fit", "hcp_fit")

_SECTION = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")
_NUMERIC_FAILURES = (NumericError, ConditioningError, TooFewSamplesError,
                     TooFewPointsError, SimplexError, ProbeRuleError,
                     DomainError, FloatingPointError)


class ConfigError(ValueError):
    """Configuration problem with its source position."""

    def __init__(self, message, line=0, column=0, source="<config>"):
        self.line = line
        self.column = column
        self.source = source
        super().__init__(f"{source}:{line}:{column}: {message}")


@dataclass(frozen=True)
class Scenario:
    """One configured study run."""

    name: str
    study: str
    germ: object
    degrees: tuple = ()
    epsilons: tuple = ()
    density: int = 120
    deltas: tuple = HCP_DELTAS
    facets: int = DEFAULT_FACETS


# ----------------------------------------------------------------------
# Configuration parsing


def _split_comment(line):
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_list(text, kind, key, line, source):
    items = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            items.append(kind(chunk))
        except ValueError:
            raise ConfigError(
                f"key '{key}' expects a comma-separated list of "
                f"{kind.__name__}s, got '{chunk}'", line,
                1 + len(text) - len(text.lstrip()), source) from None
    return tuple(items)


_KEY_KINDS = {
    "study": "str", "germ": "str",
    "degrees": "int_list", "epsilons": "float_list",
    "deltas": "float_list", "density": "int", "facets": "int",
}


def parse_config_text(text, source="<config>", base_dir="."):
    """Parse scenario sections; errors carry line and column."""
    sections = []
    current = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        column = 1 + len(line) - len(line.lstrip())
        match = _SECTION.match(stripped)
        if match:
            name = match.group(1)
            if any(name == existing["name"] for existing in sections):
                raise ConfigError(f"duplicate scenario '{name}'",
                                  number, column, source)
            current = {"name": name, "line": number, "keys": {}}
            sections.append(current)
            continue
        if stripped.startswith("["):
            raise ConfigError("malformed section header", number, column,
                              source)
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", number, column,
                              source)
        if current is None:
            raise ConfigError("key outside of any [scenario] section",
                              number, column, source)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_KINDS:
            raise ConfigError(
                f"unknown key '{key}' (valid: {', '.join(sorted(_KEY_KINDS))})",
                number, column, source)
        if key in current["keys"]:
            raise ConfigError(f"duplicate key '{key}'", number, column,
                              source)
        current["keys"][key] = (value, number, column)
    return [_build_scenario(section, source, base_dir)
            for section in sections]


def _lookup(keys, key, default=None):
    return keys.get(key, (default, 0, 0))


def _build_scenario(section, source, base_dir):
    keys = section["keys"]
    name = section["name"]
    study, study_line, study_col = _lookup(keys, "study")
    if study is None:
        raise ConfigError(f"scenario '{name}' is missing 'study'",
                          section["line"], 1, source)
    if study not in STUDIES:
        raise ConfigError(
            f"unknown study '{study}' (valid: {', '.join(STUDIES)})",
            study_line, study_col, source)
    parsed = {}
    for key, (value, line, column) in keys.items():
        kind = _KEY_KINDS[key]
        if kind == "int":
            try:
                parsed[key] = int(value)
            except ValueError:
                raise ConfigError(f"key '{key}' expects an integer, got "
                                  f"'{value}'", line, column, source) from None
        elif kind == "int_list":
            parsed[key] = _parse_list(value, int, key, line, source)
        elif kind == "float_list":
            parsed[key] = _parse_list(value, float, key, line, source)
        else:
            parsed[key] = value
    germ_id = parsed.get("germ", "")
    if not germ_id:
        raise ConfigError(f"scenario '{name}' is missing 'germ'",
                          section["line"], 1, source)
    germ_line, germ_col = keys["germ"][1], keys["germ"][2]
    germ = _resolve_germ(germ_id, base_dir, germ_line, germ_col, source)
    if study in ("markov_scan", "green_eval"):
        if not parsed.get("degrees"):
            line, column = (keys["degrees"][1:] if "degrees" in keys
                            else (section["line"], 1))
            raise ConfigError(f"scenario '{name}' needs a nonempty degree "
                              "list", line, column, source)
        if not parsed.get("epsilons"):
            line, column = (keys["epsilons"][1:] if "epsilons" in keys
                            else (section["line"], 1))
            raise ConfigError(f"scenario '{name}' needs a nonempty epsilon "
                              "list", line, column, source)
    fields = {key: parsed[key] for key in
              ("degrees", "epsilons", "density", "deltas", "facets")
              if key in parsed}
    return Scenario(name=name, study=study, germ=germ, **fields)


def _resolve_germ(identifier, base_dir, line, column, source):
    if identifier in BUILTIN_GERM_IDS:
        return builtin_germs()[identifier]
    candidate = Path(base_dir) / identifier
    if identifier.endswith(".germ") or candidate.exists():
        try:
            return load_germ(candidate)
        except (OSError, GermFormatError) as exc:
            raise ConfigError(f"germ file '{identifier}': {exc}", line,
                              column, source) from None
    raise ConfigError(
        f"unknown germ id '{identifier}'; valid ids: "
        f"{', '.join(BUILTIN_GERM_IDS)} (or a path to a .germ file)",
        line, column, source)


def load_config(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=str(path))
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
    raw = []
    for epsilon in scenario.epsilons:
        points = star_points(angles, epsilon, scenario.density)
        closed = segment_closed_form(angles, epsilon)
        for degree, probe in itertools.product(scenario.degrees,
                                               GREEN_PROBES):
            result = siciak_lp(points, probe * epsilon, degree,
                               scenario.facets)
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
    """Green evaluator, probe rule, and pass window for the germ."""
    germ = scenario.germ
    if germ.point_class in INTERVAL_HCP_RULES:
        probe, window = INTERVAL_HCP_RULES[germ.point_class]
        return green_interval, probe, window
    order = multiplicity(germ.branch)
    degree = max(scenario.degrees) if scenario.degrees else 8
    samples = sample_real_trace(germ, 0.25, scenario.density)

    def evaluator(point):
        return siciak_lp(samples, point, degree, scenario.facets).value

    def probe(delta):
        return germ.evaluate(1j * delta ** (1.0 / order))

    return evaluator, probe, None


def _hcp_fit(scenario):
    evaluator, probe, window = _hcp_probe(scenario)
    fit = hcp_fit(evaluator, scenario.deltas, probe)
    status = "ok"
    if window is not None and not (window[0] <= fit.alpha <= window[1]):
        status = "violation"
    return hcp_rows(scenario.name, "hcp_fit", fit, status)


_STUDY_RUNNERS = {
    "markov_scan": _markov_scan,
    "green_eval": _green_eval,
    "geodesic_fit": _geodesic_fit,
    "hcp_fit": _hcp_fit,
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
                raise ConfigError(
                    f"no scenario with study '{study_filter}' in config",
                    source=str(config_path))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        exit_code = 0
        for scenario in scenarios:
            runner = _STUDY_RUNNERS[scenario.study]
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="markov-curves",
        description="Tangential Markov factors and extremal Green "
                    "functions on curve germs")
    subparsers = parser.add_subparsers(dest="command", required=True)
    studies = {
        "markov-scan": "markov_scan",
        "green-eval": "green_eval",
        "geodesic-fit": "geodesic_fit",
        "hcp-fit": "hcp_fit",
    }
    for command in studies:
        sub = subparsers.add_parser(
            command, help=f"run {studies[command]} scenarios from a config")
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
