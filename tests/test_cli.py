import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import slitbound
from slitbound import NumericFailure, cli, core, diffraction
from slitbound.reports import format_csv, parse_length, read_frame_csv

# the shape every report must have, checked independently of the writer
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "slitbound report",
    "type": "object",
    "required": ["command", "parameters", "results"],
    "properties": {
        "command": {
            "type": "string",
            "enum": ["minstate", "lanczos", "lpbound", "reanalyze", "simulate", "estimate"],
        },
        "parameters": {"type": "object"},
        "results": {"type": "object"},
        "display": {
            "type": "object",
            "description": "3-decimal fields for direct table comparison",
        },
    },
    "additionalProperties": False,
}


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


def reject_constant(name):
    raise ValueError(f"report holds non-JSON constant {name}")


def load_report(tmp_path, name):
    report = json.loads((tmp_path / name).read_text(), parse_constant=reject_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


def fmt(value) -> str:
    """One CSV cell the way format_csv must encode it: floats at 9
    significant digits, booleans as true/false, anything else as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "{:.9g}".format(value)
    return str(value)


def float_bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def refuse_allocation(*args, **kwargs):
    raise AssertionError("size cap not checked before allocation")


def run_python(*argv):
    """A fresh interpreter on this package, outside pytest's warning filters."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slitbound.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


class TestImportPath:
    def test_cli_import_loads_no_scipy_or_jsonschema(self):
        code = ("import sys, slitbound, slitbound.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'jsonschema')))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestStrictReports:
    @pytest.mark.parametrize("command", ["minstate", "lanczos"])
    def test_non_finite_result_is_numeric_failure(self, tmp_path, command):
        # a finite but subnormal width overflows sigma_p; the report is not
        # written.  Run in a fresh interpreter: pytest turns the overflow
        # RuntimeWarning into an error before the report writer is reached.
        proc = run_python("-m", "slitbound.cli", command, "--slit-width", "1e-310",
                          "--out", str(tmp_path))
        assert proc.returncode == 3, proc.stderr
        assert "non-finite" in proc.stderr
        # the CSVs hold the same non-finite values, and none is written either
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_csv_cell_is_numeric_failure(self, bad):
        columns = [np.array([1, 2]), np.array([0.5, bad]), np.array([True, False])]
        with pytest.raises(NumericFailure, match="table.csv holds a non-finite value"):
            format_csv("table.csv", ["n", "value", "flag"], columns)

    def test_csv_columns_match_cell_oracle(self):
        rng = np.random.default_rng(2024)
        doubles = np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64)
        edge = np.array([-0.0, 5e-324, 1e-320, 1e16, 99999999.95, 999999999.5])
        values = np.concatenate([doubles[np.isfinite(doubles)], edge, -edge])
        ints = rng.integers(-2**62, 2**62, size=values.size)
        flags = rng.random(values.size) < 0.5
        text = format_csv("table.csv", ["n", "value", "flag"], [ints, values, flags], ["c=1"])
        rows = zip(ints.tolist(), values.tolist(), flags.tolist())
        expected = ["# c=1", "n,value,flag", *(",".join(map(fmt, row)) for row in rows), ""]
        lines = text.split("\n")
        assert len(lines) == len(expected)
        # the first few mismatched lines, not a diff of the whole table
        assert [(a, b) for a, b in zip(lines, expected) if a != b][:3] == []

    def test_report_written_last_by_main(self, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "atomic_write_text",
                            lambda path, text: written.append(os.path.basename(path)))
        assert run(tmp_path, "lanczos") == 0
        assert written == ["lanczos_position_density.csv", "lanczos_momentum_density.csv",
                           "lanczos_report.json"]
        # with main's writer replaced nothing reaches the disk: no command writes
        assert list(tmp_path.iterdir()) == []


# the README commands in order, each with its row of "Output files per command"
README_OUTPUTS = [
    (["minstate", "--slit-width", "477um", "--nmax", "4096"],
     {"minstate_coefficients.csv", "minstate_position_density.csv",
      "minstate_momentum_density.csv", "minstate_report.json"}),
    (["lanczos", "--slit-width", "477um"],
     {"lanczos_position_density.csv", "lanczos_momentum_density.csv", "lanczos_report.json"}),
    (["lpbound", "--xi", "0.179", "0.392", "0.433", "1.0"],
     {"lpbound.csv", "lpbound_report.json"}),
    (["reanalyze", "--a", "1.128", "2.464", "2.723"],
     {"reanalysis.csv", "reanalysis_report.json"}),
    (["simulate", "--noise-sigma", "1e-3", "--seed", "7"],
     {"frame.csv", "simulate_report.json"}),
    (["estimate", "{out}/frame.csv"], {"trace.csv", "estimate_report.json"}),
]


class TestOutputFiles:
    def test_readme_commands_write_listed_files(self, tmp_path):
        expected = set()
        for argv, files in README_OUTPUTS:
            argv = [a.format(out=tmp_path) for a in argv]
            assert run(tmp_path, *argv) == 0, argv
            expected |= files
            # no extra file and no .tmp-* leftover
            assert {p.name for p in tmp_path.iterdir()} == expected, argv[0]


class TestSizeCaps:
    # each allocator is replaced, so a missing cap fails the test instead of
    # allocating the huge case
    def test_nmax_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "min_uncertainty_coefficients", refuse_allocation)
        assert run(tmp_path, "minstate", "--nmax", str(cli.MAX_NMAX + 1)) == 2

    def test_pixels_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diffraction, "DetectorSpec", refuse_allocation)
        assert run(tmp_path, "simulate", "--pixels", str(cli.MAX_PIXELS + 2)) == 2

    def test_frame_rows_cap(self, tmp_path, monkeypatch, capsys):
        # a uniform frame two pixels larger than simulate may write
        n = cli.MAX_PIXELS + 2
        y_mm = (np.arange(1, n + 1) - (n + 1) / 2) * 0.008
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n" + "".join(
            f"{i},{y:.9g},0.2\n" for i, y in enumerate(y_mm.tolist(), 1)))
        monkeypatch.setattr(np, "loadtxt", refuse_allocation)
        assert cli.main(["estimate", str(frame), "--out", str(tmp_path)]) == 2
        assert f"more than {cli.MAX_PIXELS} rows" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


class TestParseLength:
    def test_suffixes(self):
        assert parse_length("632.82nm") == pytest.approx(632.82e-9)
        assert parse_length("477um") == pytest.approx(477e-6)
        assert parse_length("150mm") == pytest.approx(0.150)
        assert parse_length("2cm") == pytest.approx(0.02)
        assert parse_length("1.5m") == pytest.approx(1.5)
        assert parse_length("0.25") == pytest.approx(0.25)
        assert parse_length(3e-4) == pytest.approx(3e-4)

    def test_rejects(self):
        from slitbound import InvalidArgument

        for bad in ("abc", "-3mm", "0m", "", "inf", "nan", "infmm"):
            with pytest.raises(InvalidArgument):
                parse_length(bad)


class TestMinstate:
    def test_runs_and_reports(self, tmp_path):
        assert run(tmp_path, "minstate", "--nmax", "512") == 0
        report = load_report(tmp_path, "minstate_report.json")
        assert report["command"] == "minstate"
        assert report["results"]["product_over_hbar"] == pytest.approx(np.pi, rel=1e-3)
        # truncation at nmax=512 leaves a ~4e-4 relative deficit
        assert report["display"]["product_over_hbar"] == "3.140"
        verdicts = report["results"]["verdicts"]
        # the truncated minimizer approaches the sharp bound from below, so
        # the exact >= pi verdict stays false at any finite nmax
        assert not verdicts["sigma_p_delta_x_ge_pi_hbar"]
        assert not verdicts["delta_x_delta_p_ge_2pi_hbar"]
        assert verdicts["sigma_p_delta_x_gt_hbar"]
        assert verdicts["delta_x_delta_p_gt_2hbar"]
        assert verdicts["kennard"]
        assert not report["results"]["truncation_warning"]
        for name in ("minstate_coefficients.csv",
                     "minstate_position_density.csv",
                     "minstate_momentum_density.csv"):
            assert (tmp_path / name).exists()

    def test_coefficient_csv_values(self, tmp_path):
        run(tmp_path, "minstate", "--nmax", "8")
        lines = (tmp_path / "minstate_coefficients.csv").read_text().splitlines()
        assert lines[0] == "n,c_n"
        rows = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert set(rows) == set(range(-8, 9))
        assert rows[1] == pytest.approx(rows[-1])
        # (-1)^n / (1 - 4 n^2) pattern: c_1 = c_0/3, c_2 = -c_0/15
        assert rows[1] == pytest.approx(rows[0] / 3, rel=1e-8)
        assert rows[2] == pytest.approx(-rows[0] / 15, rel=1e-8)

    def test_truncation_warning_small_nmax(self, tmp_path):
        run(tmp_path, "minstate", "--nmax", "1")
        report = load_report(tmp_path, "minstate_report.json")
        assert report["results"]["truncation_warning"]

    def test_invalid_nmax(self, tmp_path):
        assert run(tmp_path, "minstate", "--nmax", "0") == 2

    def test_invalid_slit_width(self, tmp_path):
        assert run(tmp_path, "minstate", "--slit-width", "bogus") == 2

    def test_non_finite_slit_width(self, tmp_path):
        for bad in ("inf", "nan", "infum"):
            assert run(tmp_path, "minstate", "--slit-width", bad) == 2
        assert list(tmp_path.iterdir()) == []


class TestLanczos:
    def test_report_values(self, tmp_path):
        assert run(tmp_path, "lanczos") == 0
        report = load_report(tmp_path, "lanczos_report.json")
        assert report["results"]["gamma"] == pytest.approx(1.0168880, abs=5e-8)
        assert report["display"]["gamma"] == "1.017"
        assert report["display"]["product_over_hbar"] == "3.195"
        assert report["results"]["verdicts"]["sigma_p_delta_x_ge_pi_hbar"]

    def test_rerun_byte_identical(self, tmp_path):
        run(tmp_path, "lanczos")
        first = {n: (tmp_path / n).read_bytes()
                 for n in ("lanczos_report.json", "lanczos_momentum_density.csv",
                           "lanczos_position_density.csv")}
        run(tmp_path, "lanczos")
        for n, blob in first.items():
            assert (tmp_path / n).read_bytes() == blob


class TestLpbound:
    def test_values(self, tmp_path):
        assert run(tmp_path, "lpbound", "--xi", "0.179", "1.0") == 0
        report = load_report(tmp_path, "lpbound_report.json")
        rows = report["results"]["rows"]
        assert rows[0]["lambda0"] == pytest.approx(0.178, abs=0.005)
        assert rows[1]["lambda0"] == pytest.approx(0.78, abs=0.01)
        assert report["display"]["lambda0"][1] == "0.783"
        csv_lines = (tmp_path / "lpbound.csv").read_text().splitlines()
        assert csv_lines[0] == "xi,lambda0"
        assert len(csv_lines) == 3

    def test_negative_xi(self, tmp_path):
        assert run(tmp_path, "lpbound", "--xi", "-0.5") == 2

    def test_non_finite_xi(self, tmp_path):
        for bad in ("nan", "inf"):
            assert run(tmp_path, "lpbound", "--xi", "1.0", bad) == 2
            assert not (tmp_path / "lpbound.csv").exists()

    def test_far_saturated_xi(self, tmp_path):
        assert run(tmp_path, "lpbound", "--xi", "400", "1000") == 0
        rows = load_report(tmp_path, "lpbound_report.json")["results"]["rows"]
        assert [r["lambda0"] for r in rows] == [1.0, 1.0]
        assert all(r["tail"] <= 1e-15 for r in rows)
        lines = (tmp_path / "lpbound.csv").read_text().splitlines()
        assert lines[1:] == ["400,1", "1000,1"]


class TestReanalyze:
    def test_published_triple(self, tmp_path):
        assert run(tmp_path, "reanalyze", "--a", "1.128", "2.464", "2.723") == 0
        report = load_report(tmp_path, "reanalysis_report.json")
        disp = report["display"]["rows"]
        assert [d["xi"] for d in disp] == ["0.180", "0.392", "0.433"]
        assert all(d["verdict"] == "not well-defined" for d in disp)
        lines = (tmp_path / "reanalysis.csv").read_text().splitlines()
        assert lines[0] == "a,xi,lambda0,well_defined"
        assert all(line.endswith(",false") for line in lines[1:])

    def test_far_saturated_product(self, tmp_path):
        assert run(tmp_path, "reanalyze", "--a", "2513.3") == 0
        (row,) = load_report(tmp_path, "reanalysis_report.json")["results"]["rows"]
        assert row["lambda0"] == 1.0
        assert row["well_defined"]

    def test_non_finite_a(self, tmp_path):
        for bad in ("nan", "inf"):
            assert run(tmp_path, "reanalyze", "--a", "1.128", bad) == 2
            assert not (tmp_path / "reanalysis.csv").exists()

    def test_empty_a_rejected(self, tmp_path):
        # argparse exits the process with status 2 for a missing required flag
        with pytest.raises(SystemExit) as exc:
            cli.main(["reanalyze", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestSimulateAndEstimate:
    def test_simulate_outputs(self, tmp_path):
        assert run(tmp_path, "simulate") == 0
        report = load_report(tmp_path, "simulate_report.json")
        assert report["parameters"]["detector_span_m"] == pytest.approx(29.184e-3)
        assert report["parameters"]["seed"] == 42
        y, intens = read_frame_csv(str(tmp_path / "frame.csv"))
        assert len(y) == 3648
        assert y[0] == pytest.approx(-29.184e-3 / 2 + 4e-6, rel=1e-6)
        lines = (tmp_path / "frame.csv").read_text().splitlines()
        assert lines[0] == "# normalized=false"
        assert lines[1] == "pixel,y_mm,intensity"

    def test_simulate_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(a, "simulate", "--noise-sigma", "1e-3")
        run(b, "simulate", "--noise-sigma", "1e-3")
        assert (a / "frame.csv").read_bytes() == (b / "frame.csv").read_bytes()

    def test_simulate_bad_pixels(self, tmp_path):
        assert run(tmp_path, "simulate", "--pixels", "3647") == 2

    def test_simulate_negative_seed(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--seed", "-1", "--noise-sigma", "1e-3") == 2
        assert "configuration error: --seed: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,bad", [("--noise-sigma", "nan"), ("--noise-sigma", "inf"),
                                          ("--wavelength", "inf")])
    def test_simulate_non_finite_input(self, tmp_path, capsys, flag, bad):
        assert run(tmp_path, "simulate", flag, bad) == 2
        assert not (tmp_path / "frame.csv").exists()
        assert f"configuration error: {flag}: " in capsys.readouterr().err

    def test_estimate_pipeline(self, tmp_path):
        run(tmp_path, "simulate")
        assert cli.main(["estimate", str(tmp_path / "frame.csv"),
                         "--out", str(tmp_path)]) == 0
        report = load_report(tmp_path, "estimate_report.json")
        res = report["results"]
        assert res["exceeds_one"]
        assert res["gamma_hat_final"] == pytest.approx(res["gamma_theory_edge"], rel=5e-3)
        assert res["gamma_exact"] == pytest.approx(1.0168880, abs=5e-8)
        assert report["display"]["gamma_hat_final"] == "1.016"
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "n,y_mm,gamma_hat,gamma_theory"
        assert len(lines) == 1 + 1824
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(29.184 / 2, rel=1e-8)

    def test_estimate_reads_fine_pitch_frame(self, tmp_path):
        # this pitch needs more than the 9 significant digits frame.csv keeps
        assert run(tmp_path, "simulate", "--pixel-size", "7.123456um",
                   "--pixels", "2048") == 0
        assert cli.main(["estimate", str(tmp_path / "frame.csv"),
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 1024
        # the pitch is read back from the span over N-1 pixels
        assert float(lines[-1].split(",")[1]) == pytest.approx(1024 * 7.123456e-3, rel=1e-8)

    def test_estimate_missing_frame(self, tmp_path):
        assert cli.main(["estimate", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)]) == 4

    def test_estimate_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row", ["2,0.004,nan", "2,0.004,inf", "2,inf,0.2",
                                     "2,0.004,abc", "2,0.004", "2,0.004,0.2,9",
                                     "\n2,0.004,abc"])
    def test_estimate_bad_frame_row(self, tmp_path, capsys, row):
        bad = tmp_path / "frame.csv"
        bad.write_text(f"pixel,y_mm,intensity\n1,-0.004,0.2\n{row}\n")
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "trace.csv").exists()
        assert repr(row.strip()) in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["1,-0.004,0.2,9\n2,0.004,0.2,9\n",
                                      "-0.004,0.2\n0.004,0.2\n"])
    def test_estimate_frame_of_wrong_width(self, tmp_path, rows):
        bad = tmp_path / "frame.csv"
        bad.write_text(f"pixel,y_mm,intensity\n{rows}")
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "trace.csv").exists()

    def test_read_frame_matches_per_line_float_parse(self, tmp_path):
        assert run(tmp_path, "simulate", "--noise-sigma", "1e-3", "--seed", "7") == 0
        path = tmp_path / "frame.csv"
        y, intens = read_frame_csv(str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert np.array_equal(float_bits(y), float_bits([float(r[1]) * 1e-3 for r in rows]))
        assert np.array_equal(float_bits(intens), float_bits([float(r[2]) for r in rows]))

    def test_estimate_single_pixel_frame(self, tmp_path):
        bad = tmp_path / "frame.csv"
        bad.write_text("pixel,y_mm,intensity\n1,0.004,0.2\n")
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2

    def test_estimate_nonuniform_pixels(self, tmp_path):
        bad = tmp_path / "frame.csv"
        bad.write_text(
            "pixel,y_mm,intensity\n1,-0.012,0.1\n2,-0.004,0.2\n3,0.004,0.2\n4,0.013,0.1\n"
        )
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2


class TestReentrantMain:
    def test_second_command_matches_fresh_process(self, tmp_path):
        # main shares one parser across calls; a quantized run first must
        # leave nothing behind for the plain run after it
        assert cli.build_parser() is cli.build_parser()
        argv = ["simulate", "--seed", "3", "--pixels", "1024", "--noise-sigma", "1e-3"]
        assert run(tmp_path / "quantized", *argv, "--quantize") == 0
        assert run(tmp_path / "plain", *argv) == 0
        proc = run_python("-m", "slitbound.cli", *argv, "--out", str(tmp_path / "fresh"))
        assert proc.returncode == 0, proc.stderr
        for name in ("frame.csv", "simulate_report.json"):
            assert (tmp_path / "plain" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "quantized" / "frame.csv").read_bytes() != \
            (tmp_path / "plain" / "frame.csv").read_bytes()
