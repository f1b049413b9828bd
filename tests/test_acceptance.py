"""Acceptance gate: one test per criterion so `pytest -v` prints each line.

Every test asserts `result.passed` with `result.detail` as the message,
so a failure shows the measured numbers, not just a boolean.  The
criterion results come from the two `verify` runs of the module's
fixture, so the suite runs twice, not once more per test.
"""

import io
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import markov_curves
from markov_curves import acceptance, experiments_cli
from markov_curves.experiments_cli import main


def check(result):
    line = f"criterion {result.index:02d} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


@pytest.fixture(scope="module")
def verify_twice(tmp_path_factory):
    """Run `verify` twice into fresh directories.

    The CLI's `run_all` is wrapped so the criterion results of each run are
    kept; the tests below share these two runs instead of running the
    acceptance suite again.
    """
    results = []

    def recording_run_all():
        results.append(acceptance.run_all())
        return results[-1]

    first = tmp_path_factory.mktemp("one")
    second = tmp_path_factory.mktemp("two")
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
        patch.setattr(experiments_cli, "run_all", recording_run_all)
        started = time.perf_counter()
        first_code = main(["verify", "--out-dir", str(first)])
        elapsed = time.perf_counter() - started
        second_code = main(["verify", "--out-dir", str(second)])
    return SimpleNamespace(dirs=(first, second),
                           codes=(first_code, second_code),
                           elapsed=elapsed, out=out.getvalue(),
                           results=results)


def criterion(verify_twice, index):
    """Criterion ``index`` of the first `verify` run."""
    result = verify_twice.results[0][index - 1]
    assert result.index == index
    return result


def test_criterion_01_endpoint_markov_factors(verify_twice):
    check(criterion(verify_twice, 1))


def test_criterion_02_interior_interval_scaling(verify_twice):
    check(criterion(verify_twice, 2))


def test_criterion_03_boundary_interval_scaling(verify_twice):
    check(criterion(verify_twice, 3))


def test_criterion_04_cusp_multiplicity_and_scaling(verify_twice):
    check(criterion(verify_twice, 4))


def test_criterion_05_interval_endpoint_hcp(verify_twice):
    check(criterion(verify_twice, 5))


def test_criterion_06_geodesic_exponents(verify_twice):
    check(criterion(verify_twice, 6))


def test_criterion_07_siciak_matches_interval_green(verify_twice):
    check(criterion(verify_twice, 7))


def test_criterion_08_zero_violation_suites(verify_twice):
    check(criterion(verify_twice, 8))


def test_criterion_09_star_domination_stability(verify_twice):
    check(criterion(verify_twice, 9))


def test_criterion_10_runtime_and_reproducibility(verify_twice):
    first, second = verify_twice.dirs
    elapsed = verify_twice.elapsed
    assert verify_twice.codes == (0, 0)
    out = verify_twice.out
    # Each run prints every criterion of run_all, in order.
    indices = re.findall(r"^criterion (\d\d) ", out, flags=re.MULTILINE)
    assert indices == [f"{index:02d}" for index in range(1, 11)] * 2
    assert "FAIL" not in out
    assert elapsed < 300.0, f"verify took {elapsed:.1f}s"
    for name in ("verify_raw.csv", "verify_fit.csv"):
        first_bytes = (first / name).read_bytes()
        assert first_bytes == (second / name).read_bytes()
        assert first_bytes.startswith(b"scenario,study,")
    print(f"criterion 10 runtime budget and reproducibility: verify ran in "
          f"{elapsed:.1f}s; both report files byte-identical across reruns")


def test_run_all_reports_every_criterion(verify_twice):
    assert len(verify_twice.results) == 2
    for results in verify_twice.results:
        assert [result.index for result in results] == list(range(1, 11))
        assert all(result.passed for result in results), [
            (result.index, result.detail) for result in results
            if not result.passed]


def test_acceptance_does_not_import_the_cli():
    source = Path(markov_curves.__file__).resolve().parents[1]
    probe = ("import sys, markov_curves.acceptance; "
             "print('markov_curves.experiments_cli' in sys.modules)")
    completed = subprocess.run([sys.executable, "-c", probe],
                               cwd=source, capture_output=True, text=True,
                               timeout=60, check=True)
    assert completed.stdout.strip() == "False"


def test_cli_import_loads_neither_numpy_polynomial_nor_random():
    # numpy loads both lazily; importing numpy.polynomial costs about
    # 0.75 MB of peak RSS, numpy.random about 5 MB, on every command.
    source = Path(markov_curves.__file__).resolve().parents[1]
    probe = ("import sys, markov_curves.experiments_cli; "
             "print([name in sys.modules "
             "for name in ('numpy.polynomial', 'numpy.random')])")
    completed = subprocess.run([sys.executable, "-c", probe],
                               cwd=source, capture_output=True, text=True,
                               timeout=60, check=True)
    assert completed.stdout.strip() == "[False, False]"


def test_verify_does_not_import_numpy_random(tmp_path):
    # No criterion draws random numbers; numpy.random, imported lazily,
    # would add about 5 MB to verify's peak RSS.
    source = Path(markov_curves.__file__).resolve().parents[1]
    probe = ("import sys; from markov_curves.experiments_cli import main; "
             f"code = main(['verify', '--out-dir', {str(tmp_path)!r}]); "
             "print(code, 'numpy.random' in sys.modules)")
    completed = subprocess.run([sys.executable, "-c", probe],
                               cwd=source, capture_output=True, text=True,
                               timeout=120, check=True)
    assert completed.stdout.splitlines()[-1] == "0 False"


def recorded(monkeypatch, name):
    """Wrap ``acceptance.<name>`` to keep each call's arguments and report."""
    calls = []
    check = getattr(acceptance, name)

    def recording(*args):
        calls.append((args, check(*args)))
        return calls[-1][1]

    monkeypatch.setattr(acceptance, name, recording)
    return calls


def test_bernstein_walsh_suite_is_tight(monkeypatch):
    # T_2, T_5 and T_10 at 1.5, 2 and -3 meet cosh(n V) with equality.
    calls = recorded(monkeypatch, "bernstein_walsh_check")
    assert acceptance._bernstein_walsh_violations() == 0
    assert len(calls) == 9
    for _, report in calls:
        assert abs(report.ratio - 1.0) <= 1e-6, report
    # A Green value low by a relative 1e-6 fails every case.
    green = acceptance.green_interval
    monkeypatch.setattr(acceptance, "green_interval",
                        lambda z: green(z) * (1.0 - 1e-6))
    assert acceptance._bernstein_walsh_violations() == 9


def test_cauchy_suite_is_tight(monkeypatch):
    # The tangent coordinate gives p(phi(z)) = z**k: both sides are 1.
    calls = recorded(monkeypatch, "cauchy_derivative_check")
    assert acceptance._cauchy_violations() == 0
    assert [args[0].branch.k for args, _ in calls] == [2, 2, 3]
    for _, report in calls:
        assert abs(report.lhs / report.bound - 1.0) <= 1e-6, report
        # cauchy_derivative_check's test against a bound low by 1e-6.
        low = report.bound * (1.0 - 1e-6)
        assert not report.lhs <= low * (1.0 + 1e-9) + 1e-12, report
