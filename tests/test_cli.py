import json
import os
import subprocess
import sys

import numpy as np
import pytest

import slitbound
from slitbound import cli, core, diffraction
from slitbound.reports import REPORT_SCHEMA, parse_length, read_frame_csv

import jsonschema


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


def load_report(tmp_path, name):
    report = json.loads((tmp_path / name).read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


def refuse_allocation(*args, **kwargs):
    raise AssertionError("size cap not checked before allocation")


class TestImportPath:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(slitbound.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = ("import sys, slitbound, slitbound.cli; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestSizeCaps:
    # each allocator is replaced, so a missing cap fails the test instead of
    # allocating the huge case
    def test_nmax_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "min_uncertainty_coefficients", refuse_allocation)
        assert run(tmp_path, "minstate", "--nmax", str(cli.MAX_NMAX + 1)) == 2

    def test_pixels_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diffraction, "DetectorSpec", refuse_allocation)
        assert run(tmp_path, "simulate", "--pixels", str(cli.MAX_PIXELS + 2)) == 2


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

        for bad in ("abc", "-3mm", "0m", ""):
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
        y, intens, normalized = read_frame_csv(str(tmp_path / "frame.csv"))
        assert not normalized
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
