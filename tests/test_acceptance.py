"""Acceptance gate: one test per criterion so `pytest -v` prints each line.

Every test asserts `result.passed` with `result.detail` as the message,
so a failure shows the measured numbers, not just a boolean.
"""

import subprocess
import sys
import time
from pathlib import Path

import markov_curves
from markov_curves import acceptance
from markov_curves.experiments_cli import main


def check(result):
    line = f"criterion {result.index:02d} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_01_endpoint_markov_factors():
    check(acceptance.criterion_endpoint_markov())


def test_criterion_02_interior_interval_scaling():
    check(acceptance.criterion_interior_scaling())


def test_criterion_03_boundary_interval_scaling():
    check(acceptance.criterion_boundary_scaling())


def test_criterion_04_cusp_multiplicity_and_scaling():
    check(acceptance.criterion_cusp_scaling())


def test_criterion_05_interval_endpoint_hcp():
    check(acceptance.criterion_interval_hcp())


def test_criterion_06_geodesic_exponents():
    check(acceptance.criterion_geodesic_exponent())


def test_criterion_07_siciak_matches_interval_green():
    check(acceptance.criterion_siciak_convergence())


def test_criterion_08_zero_violation_suites():
    check(acceptance.criterion_zero_violation_suites())


def test_criterion_09_star_domination_stability():
    check(acceptance.criterion_star_domination())


def test_criterion_10_runtime_and_reproducibility(tmp_path, capsys):
    first, second = tmp_path / "one", tmp_path / "two"
    started = time.perf_counter()
    assert main(["verify", "--out-dir", str(first)]) == 0
    elapsed = time.perf_counter() - started
    assert main(["verify", "--out-dir", str(second)]) == 0
    out = capsys.readouterr().out
    assert out.count("criterion") == 20
    assert "FAIL" not in out
    assert elapsed < 300.0, f"verify took {elapsed:.1f}s"
    for name in ("verify_raw.csv", "verify_fit.csv"):
        first_bytes = (first / name).read_bytes()
        assert first_bytes == (second / name).read_bytes()
        assert first_bytes.startswith(b"scenario,study,")
    print(f"criterion 10 runtime budget and reproducibility: verify ran in "
          f"{elapsed:.1f}s; both report files byte-identical across reruns")


def test_acceptance_does_not_import_the_cli():
    source = Path(markov_curves.__file__).resolve().parents[1]
    probe = ("import sys, markov_curves.acceptance; "
             "print('markov_curves.experiments_cli' in sys.modules)")
    completed = subprocess.run([sys.executable, "-c", probe],
                               cwd=source, capture_output=True, text=True,
                               timeout=60, check=True)
    assert completed.stdout.strip() == "False"


def test_run_all_reports_every_criterion():
    results = acceptance.run_all()
    assert [result.index for result in results] == list(range(1, 11))
    assert all(result.passed for result in results), [
        (result.index, result.detail) for result in results
        if not result.passed]
