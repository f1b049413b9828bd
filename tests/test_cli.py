"""Config grammar, CSV emission, exit codes, and the console entry point."""

import math

import pytest

import markov_curves
from markov_curves import experiments_cli, markov_lp
from markov_curves.curve_model import (BUILTIN_GERM_IDS, DomainError,
                                       FormatError, GermError, NumericError)
from markov_curves.experiments_cli import (ReportRow, emit_csv, main,
                                           parse_config_text, run_scenario)

SCAN_CONFIG = """\
# an interval scan small enough for the test suite
[interval_scan]
study = markov_scan
germ = interval_interior
degrees = 3, 5, 7
epsilons = 0.5, 0.25, 0.125, 0.0625
density = 64
"""

GEODESIC_CONFIG = """\
[cusp_geodesic]
study = geodesic_fit
germ = cusp_2_3
"""

CUSP_GERM_TEXT = """\
ambient_dim = 2
k = 2
c_re = 1.0
star_plus = 0
star_minus = 0
point_class = singular
term.2.3 = 1.0
"""


class TestConfigParsing:
    def test_parses_fields(self):
        scenarios = parse_config_text(SCAN_CONFIG)
        assert len(scenarios) == 1
        scan = scenarios[0]
        assert scan.name == "interval_scan"
        assert scan.study == "markov_scan"
        assert scan.degrees == (3, 5, 7)
        assert scan.epsilons == (0.5, 0.25, 0.125, 0.0625)
        assert scan.density == 64
        assert scan.germ is not None

    def test_duplicate_section(self):
        text = SCAN_CONFIG + "\n" + SCAN_CONFIG
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "duplicate section 'interval_scan'" in str(info.value)
        assert info.value.line == 10

    def test_key_outside_section(self):
        with pytest.raises(FormatError) as info:
            parse_config_text("study = markov_scan\n")
        assert info.value.line == 1
        assert "outside" in str(info.value)

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(FormatError) as info:
            parse_config_text(SCAN_CONFIG + "wobble = 3\n")
        assert "unknown key 'wobble'" in str(info.value)
        assert "degrees" in str(info.value)
        assert info.value.line == 8

    def test_unknown_study_lists_valid_ones(self):
        text = SCAN_CONFIG.replace("markov_scan", "mystery")
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "unknown study 'mystery'" in str(info.value)
        assert "geodesic_fit" in str(info.value)

    def test_missing_study(self):
        text = "[scan]\ngerm = interval_interior\n"
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "missing 'study'" in str(info.value)

    def test_missing_germ(self):
        text = "[scan]\nstudy = geodesic_fit\n"
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "missing 'germ'" in str(info.value)

    def test_duplicate_key(self):
        with pytest.raises(FormatError) as info:
            parse_config_text(SCAN_CONFIG + "density = 80\n")
        assert "duplicate key 'density'" in str(info.value)

    def test_bad_integer_value(self):
        text = SCAN_CONFIG.replace("density = 64", "density = soup")
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "expects an integer" in str(info.value)
        assert info.value.line == 7

    def test_bad_list_entry(self):
        text = SCAN_CONFIG.replace("degrees = 3, 5, 7", "degrees = 3, x, 7")
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "comma-separated list" in str(info.value)

    def test_empty_degree_list_rejected(self):
        text = SCAN_CONFIG.replace("degrees = 3, 5, 7", "degrees = ")
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        assert "nonempty degree list" in str(info.value)

    def test_unknown_germ_names_the_valid_ids(self):
        text = SCAN_CONFIG.replace("interval_interior", "moebius")
        with pytest.raises(FormatError) as info:
            parse_config_text(text)
        message = str(info.value)
        assert "unknown germ id 'moebius'" in message
        for germ_id in BUILTIN_GERM_IDS:
            assert germ_id in message

    def test_germ_file_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "local.germ").write_text(CUSP_GERM_TEXT,
                                             encoding="utf-8")
        text = GEODESIC_CONFIG.replace("cusp_2_3", "local.germ")
        scenarios = parse_config_text(text, base_dir=str(tmp_path))
        assert scenarios[0].germ.branch.k == 2

    def test_broken_germ_file_reports_position(self, tmp_path):
        (tmp_path / "broken.germ").write_text("k = \n", encoding="utf-8")
        text = GEODESIC_CONFIG.replace("cusp_2_3", "broken.germ")
        with pytest.raises(FormatError) as info:
            parse_config_text(text, base_dir=str(tmp_path))
        assert "broken.germ" in str(info.value)
        assert info.value.line == 3


class TestEmitCsv:
    def test_header_only_for_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_bytes() == (
            b"scenario,study,degree,epsilon,value,fitted_exponent,slack,"
            b"status\r\n")

    def test_sorted_with_fit_rows_last(self, tmp_path):
        rows = [
            ReportRow("b", "markov_scan", None, None, 1.0),
            ReportRow("a", "markov_scan", 5, 0.5, 2.0),
            ReportRow("a", "markov_scan", 3, 0.25, 3.0),
            ReportRow("a", "markov_scan", 3, None, 4.0),
        ]
        path = emit_csv(rows, tmp_path / "rows.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        firsts = [line.split(",")[0] for line in lines[1:]]
        assert firsts == ["a", "a", "a", "b"]
        assert lines[1].startswith("a,markov_scan,3,0.25")
        assert lines[2].startswith("a,markov_scan,3,,")
        assert lines[3].startswith("a,markov_scan,5,0.5")

    def test_seventeen_significant_digits(self, tmp_path):
        rows = [ReportRow("x", "markov_scan", 3, 1.0 / 3.0, 2.0)]
        path = emit_csv(rows, tmp_path / "digits.csv")
        text = path.read_text(encoding="utf-8")
        assert "0.33333333333333331" in text
        assert ",3," in text

    def test_crlf_line_endings(self, tmp_path):
        rows = [ReportRow("x", "markov_scan", 1, 0.5, 1.0)]
        path = emit_csv(rows, tmp_path / "crlf.csv")
        blob = path.read_bytes()
        assert blob.count(b"\r\n") == 2
        assert b"\n" not in blob.replace(b"\r\n", b"")

    def test_quotes_embedded_commas(self, tmp_path):
        rows = [ReportRow("a,b", "markov_scan", 1, 0.5, 1.0)]
        path = emit_csv(rows, tmp_path / "quoted.csv")
        assert '"a,b"' in path.read_text(encoding="utf-8")


def test_every_exported_error_derives_from_one_base():
    # The base decides the exit code: 2 for FormatError (a GermError
    # surfaces as one), 3 for NumericError and DomainError.
    bases = (FormatError, GermError, DomainError, NumericError)
    errors = [value for value in vars(markov_curves).values()
              if isinstance(value, type) and issubclass(value, Exception)]
    assert len(errors) == 9
    for error in errors:
        assert sum(issubclass(error, base) for base in bases) == 1, error


def test_report_row_rejects_unknown_status():
    with pytest.raises(DomainError):
        ReportRow("x", "markov_scan", status="mystery")


class TestRunScenario:
    def write_config(self, tmp_path, text=SCAN_CONFIG):
        path = tmp_path / "scan.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_scan_writes_both_reports(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run_scenario(config, out_dir=out) == 0
        raw = (out / "interval_scan_raw.csv").read_text(encoding="utf-8")
        fit = (out / "interval_scan_fit.csv").read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        assert len(raw_lines) == 1 + 3 * 4
        assert raw_lines[0] == ("scenario,study,degree,epsilon,value,"
                                "fitted_exponent,slack,status")
        assert sum(line.endswith(",excluded") for line in raw_lines[1:]) == 3
        fit_lines = fit.splitlines()
        assert len(fit_lines) == 2
        alpha_deg = float(fit_lines[1].split(",")[5])
        assert abs(alpha_deg - 1.0) < 0.1

    def test_rerun_is_byte_identical(self, tmp_path):
        config = self.write_config(tmp_path)
        first, second = tmp_path / "one", tmp_path / "two"
        assert run_scenario(config, out_dir=first) == 0
        assert run_scenario(config, out_dir=second) == 0
        for name in ("interval_scan_raw.csv", "interval_scan_fit.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_study_filter_mismatch_is_config_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert run_scenario(config, out_dir=tmp_path,
                            study_filter="hcp_fit") == 2
        assert "no scenario with study" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_scenario(tmp_path / "nope.cfg", out_dir=tmp_path) == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure_names_scenario(self, tmp_path, capsys,
                                            monkeypatch):
        solved = []
        original = markov_lp.markov_factor

        def counted(problem):
            solved.append(problem)
            return original(problem)

        monkeypatch.setattr(markov_lp, "markov_factor", counted)
        text = SCAN_CONFIG.replace("density = 64", "density = 2")
        config = self.write_config(tmp_path, text)
        assert run_scenario(config, out_dir=tmp_path) == 3
        # The first failing cell ends the run before any later cell.
        assert len(solved) == 1
        err = capsys.readouterr().err
        assert "interval_scan" in err
        assert "scaling cell degree=" in err

    def test_green_eval_solves_once_per_degree(self, tmp_path, monkeypatch):
        # The star is a cone, so one LP per degree serves every epsilon.
        degrees = []
        original = experiments_cli.siciak_lp

        def counted(samples, points, degree):
            degrees.append(degree)
            return original(samples, points, degree)

        monkeypatch.setattr(experiments_cli, "siciak_lp", counted)
        config = self.write_config(tmp_path, (
            "[star]\nstudy = green_eval\ngerm = interval_interior\n"
            "degrees = 4, 8\nepsilons = 0.5, 0.25, 0.125, 0.0625\n"
            "density = 40\n"))
        assert run_scenario(config, out_dir=tmp_path) == 0
        assert degrees == [4, 8]
        lines = (tmp_path / "star_raw.csv").read_text(
            encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4 * 2 * 3
        for degree in ("4", "8"):
            values = [cells[4] for cells in rows if cells[2] == degree]
            assert values == values[:3] * 4

    def test_geodesic_fit_recovers_multiplicity(self, tmp_path):
        config = self.write_config(tmp_path, GEODESIC_CONFIG)
        assert run_scenario(config, out_dir=tmp_path,
                            study_filter="geodesic_fit") == 0
        fit = (tmp_path / "cusp_geodesic_fit.csv").read_text(
            encoding="utf-8").splitlines()
        slope = float(fit[1].split(",")[5])
        assert abs(slope - 2.0) <= 0.05


class TestMain:
    def test_list_germs(self, capsys):
        assert main(["list-germs"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == list(BUILTIN_GERM_IDS)

    @pytest.mark.parametrize("study", ["mystery", "verify_all"])
    def test_bad_config_exits_two(self, tmp_path, capsys, study):
        config = tmp_path / "bad.cfg"
        config.write_text(f"[scan]\nstudy = {study}\n", encoding="utf-8")
        assert main(["markov-scan", "--config", str(config)]) == 2
        assert (f"{config}:2:1: unknown study '{study}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["grid", "count", "seed", "facets",
                                     "deltas", "--config"])
    def test_removed_key_exits_two_with_position(self, tmp_path, capsys,
                                                 key):
        config = tmp_path / "old.cfg"
        if key.startswith("--"):
            # verify's ignored --config flag is gone: argparse exits 2.
            with pytest.raises(SystemExit) as info:
                main(["verify", key, str(config)])
            assert info.value.code == 2
            assert (f"unrecognized arguments: {key}"
                    in capsys.readouterr().err)
            return
        config.write_text(SCAN_CONFIG + f"{key} = 8\n", encoding="utf-8")
        assert main(["markov-scan", "--config", str(config)]) == 2
        assert f"{config}:8:1: unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("study,key,valid", [
        ("geodesic_fit", "degrees", "germ, study"),
        ("geodesic_fit", "epsilons", "germ, study"),
        ("geodesic_fit", "density", "germ, study"),
        ("hcp_fit", "epsilons", "degrees, density, germ, study"),
    ])
    def test_key_the_study_does_not_read_exits_two(self, tmp_path, capsys,
                                                    study, key, valid):
        config = tmp_path / "unread.cfg"
        config.write_text(f"[unread]\nstudy = {study}\ngerm = cusp_2_3\n"
                          f"{key} = 1\n", encoding="utf-8")
        command = study.replace("_", "-")
        assert main([command, "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 2
        assert (f"{config}:4:1: unknown key '{key}' for study '{study}' "
                f"(valid: {valid})" in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("study,old,new,line", [
        ("markov_scan", "epsilons = 0.5,", "epsilons = 2.0, 0.5,", 6),
        ("markov_scan", "epsilons = 0.5,", "epsilons = 0.0, 0.5,", 6),
        ("markov_scan", "degrees = 3,", "degrees = 0, 3,", 5),
        ("markov_scan", "density = 64", "density = 0", 7),
        ("green_eval", "density = 64", "density = 1", 7),
    ])
    def test_out_of_range_value_exits_two_with_position(
            self, tmp_path, capsys, study, old, new, line):
        config = tmp_path / "range.cfg"
        config.write_text(SCAN_CONFIG.replace("markov_scan", study)
                          .replace(old, new), encoding="utf-8")
        key = new.split()[0]
        command = study.replace("_", "-")
        assert main([command, "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 2
        assert (f"{config}:{line}:1: key '{key}' needs values"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["markov-scan", "hcp-fit",
                                         "geodesic-fit"])
    @pytest.mark.parametrize("germ_text,line", [
        # k = 3 realizes the ray at angle 2*pi/3, where z**4 is not real.
        ("ambient_dim = 2\nk = 3\nc_re = 1.0\nstar_plus = 1\n"
         "term.2.4 = 1.0\n", 5),
        # Every realized ray has z**k = +-t**k, so no valid c is complex.
        (CUSP_GERM_TEXT.replace("c_re = 1.0", "c_re = 1.0\nc_im = 0.5"), 4),
        # Non-finite numbers fail conversion at their key.
        (CUSP_GERM_TEXT.replace("c_re = 1.0", "c_re = nan"), 3),
        (CUSP_GERM_TEXT.replace("term.2.3 = 1.0", "term.2.3 = inf"), 7),
        (CUSP_GERM_TEXT + "basepoint = nan, 0.0\n", 8),
    ], ids=["term-off-the-ray", "c_im", "c_re-nan", "term-inf",
            "basepoint-nan"])
    def test_germ_off_the_real_trace_exits_two(self, tmp_path, capsys,
                                               command, germ_text, line):
        (tmp_path / "bad.germ").write_text(germ_text, encoding="utf-8")
        config = tmp_path / "bad.cfg"
        config.write_text(
            SCAN_CONFIG.replace("interval_interior", "bad.germ")
            .replace("markov_scan", command.replace("-", "_")),
            encoding="utf-8")
        assert main([command, "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad.germ:{line}:1: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,keys", [
        ("green-eval", "degrees = 8\nepsilons = 0.5\ndensity = 2\n"),
        ("hcp-fit", "density = 2\n"),
    ])
    def test_numeric_failure_exits_three(self, tmp_path, capsys, command,
                                         keys):
        config = tmp_path / "thin.cfg"
        config.write_text(f"[thin]\nstudy = {command.replace('-', '_')}\n"
                          f"germ = cusp_2_3\n{keys}", encoding="utf-8")
        assert main([command, "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("numeric failure in scenario 'thin'") == 1
        assert "unresolved component" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["markov-scan", "verify"])
    def test_unwritable_out_dir_exits_two(self, tmp_path, capsys, command):
        # A directory below a regular file cannot be made: exit 2, the
        # exit code of a bad input, not 1, which means a violation.
        config = tmp_path / "scan.cfg"
        config.write_text(SCAN_CONFIG, encoding="utf-8")
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        options = ["--config", str(config)] if command != "verify" else []
        assert main([command, *options,
                     "--out-dir", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write reports: ")
        assert str(blocker / "sub") in err
        assert "Traceback" not in err

    def test_scan_through_entry_point(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text(SCAN_CONFIG, encoding="utf-8")
        out = tmp_path / "reports"
        code = main(["markov-scan", "--config", str(config),
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "interval_scan_raw.csv").exists()
        assert (out / "interval_scan_fit.csv").exists()

    def test_green_eval_segment_closed_form(self, tmp_path):
        config = tmp_path / "green.cfg"
        config.write_text(
            "[seg]\nstudy = green_eval\ngerm = interval_interior\n"
            "degrees = 8\nepsilons = 0.5\ndensity = 60\n",
            encoding="utf-8")
        code = main(["green-eval", "--config", str(config),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "seg_raw.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[7] == "ok"
            assert abs(float(cells[6])) <= 0.02 + 1e-9 + abs(
                math.log(1.0 / math.cos(math.pi / 16)) / 8.0)

    def test_green_eval_one_ray_closed_form(self, tmp_path):
        # interval_boundary realizes one ray: segment_closed_form's
        # one-ray branch gives the reference of every probe.
        config = tmp_path / "green.cfg"
        config.write_text(
            "[edge]\nstudy = green_eval\ngerm = interval_boundary\n"
            "degrees = 8\nepsilons = 0.5\ndensity = 60\n",
            encoding="utf-8")
        code = main(["green-eval", "--config", str(config),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "edge_raw.csv").read_text(
            encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [cells[7] for cells in rows] == ["ok"] * 3
        assert [float(cells[6]) for cells in rows] == pytest.approx(
            [9.5e-4, 9.8e-5, 9.6e-4], rel=0.01)

    def test_hcp_fit_boundary_window(self, tmp_path):
        config = tmp_path / "hcp.cfg"
        config.write_text(
            "[edge]\nstudy = hcp_fit\ngerm = interval_boundary\n",
            encoding="utf-8")
        code = main(["hcp-fit", "--config", str(config),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        fit = (tmp_path / "edge_fit.csv").read_text(
            encoding="utf-8").splitlines()
        alpha = float(fit[1].split(",")[5])
        assert abs(alpha - 0.5) <= 0.03

    def test_hcp_fit_regular_germ_off_a_segment_uses_the_lp(self, tmp_path):
        config = tmp_path / "hcp.cfg"
        config.write_text(
            "[line]\nstudy = hcp_fit\ngerm = interval_interior\n"
            "degrees = 8\ndensity = 120\n\n"
            "[parabola]\nstudy = hcp_fit\ngerm = parabola_regular\n"
            "degrees = 8\ndensity = 120\n", encoding="utf-8")
        code = main(["hcp-fit", "--config", str(config),
                     "--out-dir", str(tmp_path)])
        assert code == 0

        def cells(name):
            lines = (tmp_path / f"{name}_raw.csv").read_text(
                encoding="utf-8").splitlines()[1:]
            return [line.split(",")[1:] for line in lines]

        assert len(cells("parabola")) == len(cells("line")) == 10
        assert cells("parabola") != cells("line")
