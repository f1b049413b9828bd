"""One pass over a benchmark workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass imports
``markov_curves`` from the checkout's ``src`` directory, loads the
workload's scenario configs (the end of set-up), runs every scenario as
its own in-process CLI call, ``experiments_cli.main(argv)``, in an order
drawn from the seed, and then checks every output against the seed
reference in ``bench/reference``.  It writes one JSON result file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Relative tolerance of a CSV cell against the seed reference.  Float
#: cells are printed with 17 digits, so last-ulp drift stays inside it.
CELL_RTOL = 1e-9

_CRITERION = re.compile(r"^criterion \d+ (ok|FAIL)\b", re.MULTILINE)
_SECTION = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]\s*$", re.MULTILINE)


def import_package():
    """Import markov_curves from the checkout, never from elsewhere."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import markov_curves
    from markov_curves import experiments_cli
    location = Path(markov_curves.__file__).resolve()
    if source.resolve() not in location.parents:
        raise ImportError(f"markov_curves resolved to {location}, "
                          f"not under {source}")
    return experiments_cli


def split_sections(text):
    """Yield (name, text) per [section] of a scenario config."""
    starts = [match.start() for match in _SECTION.finditer(text)]
    for begin, end in zip(starts, starts[1:] + [len(text)]):
        chunk = text[begin:end]
        yield _SECTION.match(chunk).group(1), chunk


def write_configs(config_text, config_dir):
    """One config file per scenario, next to copies of the germ files."""
    config_dir.mkdir(parents=True, exist_ok=True)
    for germ in (BENCH / "workloads").glob("*.germ"):
        shutil.copyfile(germ, config_dir / germ.name)
    paths = []
    for name, chunk in split_sections(config_text):
        path = config_dir / f"{name}.cfg"
        path.write_text(chunk, encoding="utf-8")
        paths.append(path)
    return paths


def build_operations(workload, experiments_cli, work_dir, seed):
    """(name, argv) of every CLI call of the workload; loads the configs."""
    out = str(work_dir / "csv")
    if workload == "verify":
        return [("verify", ["verify", "--out-dir", out, "--seed", str(seed)])]
    config = (BENCH / "workloads" / f"{workload}.cfg").read_text("utf-8")
    operations = []
    for path in write_configs(config, work_dir / "configs"):
        (scenario,) = experiments_cli.load_config(path)
        command = scenario.study.replace("_", "-")
        operations.append((scenario.name,
                           [command, "--config", str(path), "--out-dir", out,
                            "--seed", str(seed)]))
    return operations


def call_cli(experiments_cli, argv, tracer=None):
    """Run one CLI call, as a traced operation when given a tracer.

    Returns (exit code, stdout, stderr); an exception escaping the CLI
    is printed to the captured stderr and gives exit code -1.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                code = experiments_cli.main(argv)
            else:
                code = tracer.operation("experiments_cli.main",
                                        experiments_cli.main, argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return code, stdout.getvalue(), stderr.getvalue()


def count_outcomes(workload, code, stdout):
    """(attempted, failed) for one call; verify counts criterion lines."""
    if workload != "verify":
        return 1, int(code != 0)
    verdicts = _CRITERION.findall(stdout)
    if not verdicts:
        return 1, 1
    return len(verdicts), verdicts.count("FAIL")


def _cells_match(got, want):
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=CELL_RTOL, abs_tol=0.0)


def compare_csv(path, reference):
    """Problems of one CSV against its reference; None when it matches."""
    with open(path, newline="", encoding="utf-8") as handle:
        got = list(csv.reader(handle))
    with open(reference, newline="", encoding="utf-8") as handle:
        want = list(csv.reader(handle))
    if len(got) != len(want):
        return f"{path.name}: {len(got)} lines, reference has {len(want)}"
    for number, (row, ref) in enumerate(zip(got, want), start=1):
        if len(row) != len(ref) or not all(map(_cells_match, row, ref)):
            return f"{path.name}:{number}: {row} != reference {ref}"
    return None


def check_outputs(csv_dir, reference_dir):
    """(problems, drifted files, data rows) of a pass's CSV reports."""
    produced = {path.name: path for path in csv_dir.glob("*.csv")}
    expected = {path.name: path for path in reference_dir.glob("*.csv")}
    problems = [f"missing report {name}"
                for name in sorted(expected.keys() - produced.keys())]
    problems += [f"unexpected report {name}"
                 for name in sorted(produced.keys() - expected.keys())]
    drifted = 0
    for name in sorted(expected.keys() & produced.keys()):
        if produced[name].read_bytes() == expected[name].read_bytes():
            continue
        problem = compare_csv(produced[name], expected[name])
        if problem is None:
            drifted += 1
        else:
            problems.append(problem)
    rows = sum(len(path.read_bytes().splitlines()) - 1
               for path in produced.values())
    return problems, drifted, rows


def csv_digests(csv_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(csv_dir.glob("*.csv"))}


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "MARKOV_CURVES_THREADS": os.environ.get("MARKOV_CURVES_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_probes(workload, experiments_cli, tracer, work_dir):
    """Re-run the workload's known seed failures.

    A probe is "open" while it fails with its recorded exit code,
    exception classes and message, "fixed" once it succeeds, and
    "changed" when it fails in another way.
    """
    notes = json.loads((BENCH / "known_failures.json").read_text("utf-8"))
    results = []
    for probe in notes["probes"]:
        if probe["workload"] != workload:
            continue
        (path,) = write_configs(probe["config"],
                                work_dir / "probes" / probe["name"])
        argv = [probe["command"], "--config", str(path),
                "--out-dir", str(work_dir / "probes" / "csv")]
        first = len(tracer.spans)
        code, _, stderr = call_cli(experiments_cli, argv, tracer)
        errors = []
        for span in tracer.spans[first:]:
            if span.error is not None and span.error not in errors:
                errors.append(span.error)
        if code == 0:
            state = "fixed"
        elif (code == probe["exit_code"] and errors == probe["errors"]
              and probe["message"] in stderr):
            state = "open"
        else:
            state = "changed"
        results.append({"name": probe["name"], "state": state,
                        "exit_code": code, "errors": errors,
                        "stderr": stderr.strip()[-300:]})
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken by the parent "
                             "just before it started this process")
    parser.add_argument("--probes", action="store_true",
                        help="also re-run the known failures after the pass")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this pass's reports as the reference")
    options = parser.parse_args(argv)

    work_dir = options.work_dir
    experiments_cli = import_package()
    operations = build_operations(options.workload, experiments_cli,
                                  work_dir, options.seed)
    setup_s = time.monotonic() - options.spawned_at

    tracer = Tracer()
    if options.trace:
        tracer.install()
    random.Random(options.seed).shuffle(operations)

    outcomes = []
    cpu_started = time.process_time()
    started = time.perf_counter()
    for name, args in operations:
        outcomes.append((name, *call_cli(experiments_cli, args,
                                         tracer if options.trace else None)))
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    csv_dir = work_dir / "csv"
    reference_dir = BENCH / "reference" / options.workload
    attempted = failed = 0
    problems = []
    for name, code, stdout, stderr in outcomes:
        tried, bad = count_outcomes(options.workload, code, stdout)
        attempted += tried
        failed += bad
        if bad:
            problems.append(f"{name}: exit {code}: "
                            f"{(stdout + stderr).strip()[-300:]}")
    if options.write_reference:
        if failed:
            raise SystemExit("refusing to store a reference with failures:\n"
                             + "\n".join(problems))
        shutil.rmtree(reference_dir, ignore_errors=True)
        shutil.copytree(csv_dir, reference_dir)
    output_problems, drifted, rows = check_outputs(csv_dir, reference_dir)
    problems += output_problems

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "rows": rows,
        "attempted": attempted, "failed": failed,
        "problems": problems, "drift_files": drifted,
        "csv": csv_digests(csv_dir), "env": environment(),
    }
    if options.trace:
        result["layers"] = tracer.layer_metrics()
        result["negative_self_spans"] = tracer.negative_self_spans()
        result["not_traced"] = tracer.missing
        tracer.dump(work_dir / "spans.jsonl")
    if options.probes:
        if not options.trace:
            tracer.install()
        result["probes"] = run_probes(options.workload, experiments_cli,
                                       tracer, work_dir)
    (work_dir / "result.json").write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
