"""Benchmark of the markov-curves CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify|scan|green --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass over the workload is a
fresh interpreter (``bench/one_pass.py``) with ``MARKOV_CURVES_THREADS``
and the BLAS thread count both set to the number of usable cores.  Passes
repeat until ``--seconds`` is spent; medians over passes are reported.
The seed feeds ``verify --seed`` and the order of scenarios in a pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, with ``trace.overhead_s``, the traced minus the
untraced median wall time.  A traced run also checks the tracer itself:
traced and untraced passes must write identical CSV bytes, every traced
pass must count the same pivots, and no span may have negative self
time.

Every pass checks its reports against the seed reference in
``bench/reference``; ``--write-reference`` stores one untraced pass per
workload there instead (seed 0).  After the timed passes, each run
re-runs the known seed failures of ``bench/known_failures.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "scan", "green")

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0


def declared_units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def pass_environment():
    cores = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for name in ("MARKOV_CURVES_THREADS", "OPENBLAS_NUM_THREADS",
                 "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = cores
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(workload, seed, traced, work_dir, probes, deadline,
             write_reference=False):
    """Run one pass in a fresh interpreter and return its result."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    command = [sys.executable, str(BENCH / "one_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--work-dir", str(work_dir)]
    if probes:
        command.append("--probes")
    if write_reference:
        command.append("--write-reference")
    spawned_at = time.monotonic()
    completed = subprocess.run(
        command + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
        env=pass_environment(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"benchmark pass failed with exit code "
                         f"{completed.returncode}")
    return json.loads((work_dir / "result.json").read_text("utf-8"))


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload, seed, seconds, trace, work_root):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    untraced, traced, problems = [], [], []
    probes = None
    pass_seconds = []
    while True:
        index = len(untraced) + len(traced)
        is_traced = bool(trace) and index % 2 == 1
        pass_started = time.monotonic()
        result = run_pass(workload, seed, is_traced,
                          work_root / f"pass_{index:02d}", probes is None,
                          deadline)
        pass_seconds.append(time.monotonic() - pass_started)
        probes = result.pop("probes", probes)
        (traced if is_traced else untraced).append(result)
        problems += result["problems"]
        enough = len(traced) >= 1 if trace else len(untraced) >= 1
        spent = time.monotonic() - started
        if enough and spent + median(pass_seconds) > seconds:
            break
    passes = untraced + traced

    if trace:
        reference = untraced[0]["csv"]
        if any(result["csv"] != reference for result in traced):
            problems.append("traced pass wrote other CSV bytes than the "
                            "untraced pass")
        pivots = {result["layers"]["lp.pivots"] for result in traced}
        if len(pivots) != 1:
            problems.append(f"traced passes counted different pivots: "
                            f"{sorted(pivots)}")
        negative = sum(result["negative_self_spans"] for result in traced)
        if negative:
            problems.append(f"{negative} spans with negative self time")
        metrics = {name: median([result["layers"][name]
                                 for result in traced])
                   for name in traced[0]["layers"]}
        metrics["experiments_cli.csv_drift_files"] = max(
            result["drift_files"] for result in passes)
        metrics["known_failures.open"] = sum(probe["state"] == "open"
                                             for probe in probes)
        metrics["trace.overhead_s"] = (
            median([result["wall_s"] for result in traced])
            - median([result["wall_s"] for result in untraced]))
        units = declared_units("per_layer")
        metrics = {name: metrics[name] for name in units}
    else:
        for result in untraced:
            result["rows_per_s"] = result["rows"] / result["wall_s"]
        units = declared_units("end_to_end")
        metrics = {name: median([result[name] for result in untraced])
                   for name in units}

    changed = [probe for probe in probes if probe["state"] == "changed"]
    problems += [f"known failure {probe['name']} changed: exit "
                 f"{probe['exit_code']}, errors {probe['errors']}: "
                 f"{probe['stderr']}" for probe in changed]
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)

    print(f"workload {workload}, seed {seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced passes in "
          f"{time.monotonic() - started:.1f}s")
    print("environment " + json.dumps(passes[0]["env"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    for name in ("wall_s", "cpu_s"):
        print(f"  {name} per untraced pass: " + ", ".join(
            f"{result[name]:.3f}" for result in untraced))
    print(f"  {'failed_share':36s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for probe in probes:
        print(f"  known failure {probe['name']}: {probe['state']}")
    for missing in traced[0]["not_traced"] if traced else ():
        print(f"  not traced, entry point missing: {missing}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store seed-0 reports of every workload as "
                             "the reference, then exit")
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "markov_curves" / "__init__.py").is_file():
        print(f"no markov_curves package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    if options.write_reference:
        for workload in WORKLOADS:
            run_pass(workload, 0, False, work_root / "reference" / workload,
                     False, time.monotonic() + RUN_LIMIT_S,
                     write_reference=True)
            print(f"stored reference reports of {workload}")
        return 0
    if options.workload is None:
        parser.error("--workload is required")
    work_dir = work_root / options.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    result = summarize(options.workload, options.seed, options.seconds,
                       options.trace, work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
