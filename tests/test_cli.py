import importlib
import json
import os
import random
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from oracles import mirrored
import slitbound
from slitbound import InvalidArgument, NumericFailure, cli, core, diffraction, reports
from slitbound.reports import format_csv, parse_length, read_frame_csv

HERE = os.path.dirname(os.path.abspath(__file__))

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
    # a reanalysis states its convention for a and the a of the 70 % line
    "if": {"properties": {"command": {"const": "reanalyze"}}},
    "then": {"properties": {"parameters": {
        "required": ["a", "a_definition", "a_threshold", "threshold"],
        "properties": {
            "a_definition": {"const": "delta_x*delta_p/hbar, delta_p = 2*sigma_p"},
            "a_threshold": {"type": "number", "exclusiveMinimum": 0},
        },
    }}},
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


def run_python(*argv, **environ):
    """A fresh interpreter on this package, outside pytest's warning filters,
    with the variables of ``environ`` set, or dropped where given None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slitbound.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]), **environ)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


# the compute modules each command loads, beyond slitbound, reports and cli;
# the commands not in NUMPY_COMMANDS load no numpy module
NUMPY_COMMANDS = {"simulate", "estimate"}
COMMAND_MODULES = {
    "minstate": ["core"],
    "lanczos": ["core", "special"],
    "lpbound": ["concentration"],
    "reanalyze": ["concentration"],
    "simulate": ["core", "diffraction", "special"],
    "estimate": ["core", "diffraction", "special"],
}
# the package's public names by defining module, each loaded on first use
EXPORTS = {
    "concentration": ["LpBoundResult", "ReanalysisRow", "lp_lambda0", "reanalyze_products"],
    "core": ["FourierState", "UncertaintyReport", "build_report",
             "eval_momentum_wavefunction", "eval_position_wavefunction",
             "min_uncertainty_coefficients", "momentum_moments", "verify_constraints"],
    "diffraction": ["DetectorSpec", "NoiseSpec", "SlitGeometry", "gamma_trace",
                    "synthesize_frame", "theory_trace"],
    "special": ["eval_lanczos_momentum_density", "eval_lanczos_position", "lanczos_gamma",
                "sine_integral"],
}
# runs {run} in a fresh interpreter, then prints the slitbound modules loaded,
# and numpy and numpy.polynomial where they are
LOADED_CODE = ("import sys; {run}; print(sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'slitbound' or m == 'numpy' "
               "or m.startswith('numpy.polynomial')))")


class TestImportPath:
    def test_cli_import_loads_no_scipy_or_jsonschema(self):
        code = ("import sys, slitbound, slitbound.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'jsonschema')))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        proc = run_python("-c", LOADED_CODE.format(run="import slitbound"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(["slitbound"])

    def test_cli_import_loads_no_numpy(self):
        proc = run_python("-c", LOADED_CODE.format(run="import slitbound.cli"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(
            ["slitbound", "slitbound.cli", "slitbound.reports"])

    def test_special_import_loads_no_numpy(self):
        proc = run_python("-c", LOADED_CODE.format(run="import slitbound.special"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(
            ["slitbound", "slitbound.core", "slitbound.special"])

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_command_loads_only_its_modules(self, tmp_path, command):
        # a fresh interpreter per command, as a user runs it; only simulate and
        # estimate load numpy, and no command loads numpy.polynomial
        readme = {argv[0]: argv for argv, _ in README_OUTPUTS}
        if command == "estimate":
            assert run(tmp_path, *readme["simulate"]) == 0
        argv = [a.format(out=tmp_path) for a in readme[command]] + ["--out", str(tmp_path)]
        run_main = "from slitbound import cli; assert cli.main(sys.argv[1:]) == 0"
        proc = run_python("-c", LOADED_CODE.format(run=run_main), *argv)
        assert proc.returncode == 0, proc.stderr
        base = ["slitbound", "slitbound.cli", "slitbound.reports"]
        loaded = base + [f"slitbound.{m}" for m in COMMAND_MODULES[command]]
        loaded += ["numpy"] if command in NUMPY_COMMANDS else []
        assert proc.stdout.strip() == str(sorted(loaded))

    def test_exports_resolve_on_first_use(self, monkeypatch):
        assert sorted(slitbound.__all__) == sorted(
            ["InvalidArgument", "NumericFailure", *(n for ns in EXPORTS.values() for n in ns)])
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"slitbound.{module}")
            for name in names:
                # as on first use: the name is not yet in the package namespace
                monkeypatch.delitem(vars(slitbound), name, raising=False)
                assert getattr(slitbound, name) is getattr(home, name)
                # written back, so the next lookup takes no detour
                assert vars(slitbound)[name] is getattr(home, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            slitbound.no_such_name

    def test_help_texts(self, monkeypatch, capsys):
        # the text a user reads at 80 columns, for the parser and each command
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for command in ["", *COMMAND_MODULES]:
            with pytest.raises(SystemExit) as exit_info:
                cli.main([command, "--help"] if command else ["--help"])
            assert exit_info.value.code == 0
            texts.append(f"==> slitbound{' ' if command else ''}{command} --help <==\n"
                         + capsys.readouterr().out)
        with open(os.path.join(HERE, "cli_help.txt")) as fh:
            assert "".join(texts) == fh.read()


class TestStrictReports:
    @pytest.mark.parametrize("command,width", [
        ("minstate", "1e-310"), ("minstate", "5e-324"), ("minstate", "1e-320"),
        ("lanczos", "1e-310"), ("lanczos", "5e-324"), ("lanczos", "1e-320")],
        ids=["minstate", "minstate-5e-324", "minstate-1e-320", "lanczos",
             "lanczos-5e-324", "lanczos-1e-320"])
    def test_non_finite_result_is_numeric_failure(self, tmp_path, command, width):
        # a subnormal width overflows sigma_p and the density grids; the
        # report is not written.  Run in a fresh interpreter, outside
        # pytest's filters, so any warning printed shows.
        proc = run_python("-m", "slitbound.cli", command, "--slit-width", width,
                          "--out", str(tmp_path))
        assert proc.returncode == 3, proc.stderr
        assert "non-finite" in proc.stderr
        # the failure and nothing before it
        assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
        # the CSVs hold the same non-finite values, and none is written either
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["minstate", "lanczos"])
    def test_float_maximum_width_computes(self, tmp_path, command):
        # at 1.7e308 m every value a slit command writes is finite, so no
        # intermediate such as pi*x, pi*delta_x or Si(2pi)*delta_x may
        # overflow: exit 0, each file written, every CSV cell and report
        # number finite, and each density positive at its centre and
        # normalized over its grid (the momentum grids cut a small tail)
        proc = run_python("-m", "slitbound.cli", command, "--slit-width", "1.7e308m",
                          "--out", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        names = {argv[0]: files for argv, files in README_OUTPUTS}[command]
        assert {p.name for p in tmp_path.iterdir()} == names
        numbers = []
        keep = lambda literal: numbers.append(float(literal))
        densities = 0
        for name in names:
            text = (tmp_path / name).read_text()
            if name.endswith(".csv"):
                rows = [line for line in text.splitlines() if not line.startswith("#")]
                table = [[float(cell) for cell in line.split(",")] for line in rows[1:]]
                numbers += [cell for row in table for cell in row]
                if name.endswith("_density.csv"):
                    x, density = np.array(table).T
                    assert density[density.size // 2] > 0, name
                    trapezoid = float(np.sum((density[1:] + density[:-1]) * np.diff(x))) / 2
                    assert trapezoid == pytest.approx(1.0, abs=1e-3), name
                    densities += 1
            else:  # every float literal of the report, NaN and Infinity too
                json.loads(text, parse_float=keep, parse_constant=keep)
        assert len(numbers) > 1000 and np.isfinite(numbers).all()
        assert densities == 2

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_report_value_is_numeric_failure(self, bad):
        # the report is strict JSON: no NaN or Infinity literal, at any depth
        for results in ({"value": bad}, {"rows": [{"a": 1.0, "b": bad}]}):
            with pytest.raises(NumericFailure, match="^estimate report holds a non-finite value$"):
                reports.format_report("estimate", {"n": 1}, results)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # the rename onto a directory fails after the temp file is written;
        # the temp file goes, and the directory is untouched
        (tmp_path / "out.csv").mkdir()
        with pytest.raises(OSError):
            reports.atomic_write_text(str(tmp_path / "out.csv"), "x,y\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert list((tmp_path / "out.csv").iterdir()) == []

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
            # main names the report's command after the subcommand
            (report,) = (f for f in files if f.endswith(".json"))
            assert load_report(tmp_path, report)["command"] == argv[0]

    def test_files_take_the_umask_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run(tmp_path, "lanczos") == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        # the mode a plain open() gives, and no .tmp-* leftover
        assert modes == {"lanczos_position_density.csv": 0o644,
                         "lanczos_momentum_density.csv": 0o644,
                         "lanczos_report.json": 0o644}


class TestSizeCaps:
    # the step after each cap is replaced, so a missing cap fails the test
    # instead of allocating the huge case
    def test_nmax_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "FourierState", refuse_allocation)
        assert run(tmp_path, "minstate", "--nmax", str(core.MAX_NMAX + 1)) == 2

    def test_pixels_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diffraction, "synthesize_frame", refuse_allocation)
        assert run(tmp_path, "simulate", "--pixels", str(reports.MAX_PIXELS + 2)) == 2

    def test_frame_rows_cap(self, tmp_path, monkeypatch, capsys):
        # a uniform frame two pixels larger than simulate may write
        n = reports.MAX_PIXELS + 2
        y_mm = (np.arange(1, n + 1) - (n + 1) / 2) * 0.008
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n" + "".join(
            f"{i},{y:.9g},0.2\n" for i, y in enumerate(y_mm.tolist(), 1)))
        monkeypatch.setattr(np, "loadtxt", refuse_allocation)
        assert cli.main(["estimate", str(frame), "--out", str(tmp_path)]) == 2
        assert f"more than {reports.MAX_PIXELS} rows" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


    def test_band_panels_of_overflowing_extent(self, tmp_path):
        # y = +-1e300 mm puts the panel count past every integer, and at
        # +-1e308 mm the band edge u = scale*y overflows to inf, which the
        # quadrature refuses as its width.  A fresh interpreter, outside
        # pytest's filters, shows any numpy warning the arithmetic on y prints
        out = tmp_path / "out"
        out.mkdir()
        for y_mm in ("1e300", "1e306", "1e308"):
            frame = tmp_path / f"frame-{y_mm}.csv"
            frame.write_text(f"pixel,y_mm,intensity\n1,-{y_mm},0.2\n2,{y_mm},0.2\n")
            proc = run_python("-m", "slitbound.cli", "estimate", str(frame), "--out", str(out))
            assert proc.returncode == 2, proc.stderr
            # the refusal and nothing before it
            assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
            assert proc.stderr.startswith("slitbound: configuration error:")
            assert ("width must be positive and finite, got inf" if y_mm == "1e308"
                    else f"more than {diffraction.MAX_PANELS}") in proc.stderr
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("huge,small", [(("1e158", "1e153m"), ("1e3", "10mm")),
                                            (("1e106", "1e103m"), ("1e3", "1m"))],
                             ids=["1e158-1e153m", "1e106-1e103m"])
    def test_estimator_of_huge_extent(self, tmp_path, huge, small):
        # y^2 of the huge frame overflows, but the estimator and the theory see
        # only u = scale*y, about 2.4e5 and 2.4e3 here, so the huge frame gives
        # the estimate of the small one it scales.  A fresh interpreter shows
        # any numpy warning printed
        results = []
        for y_mm, focal_length in (huge, small):
            out = tmp_path / y_mm
            out.mkdir()
            frame = out / "frame.csv"
            frame.write_text(f"pixel,y_mm,intensity\n1,-{y_mm},0.2\n2,{y_mm},0.2\n")
            proc = run_python("-m", "slitbound.cli", "estimate", str(frame),
                              "--focal-length", focal_length, "--out", str(out))
            assert (proc.returncode, proc.stderr) == (0, "")
            results.append(load_report(out, "estimate_report.json")["results"])
        for key in ("gamma_hat_final", "gamma_theory_edge"):
            assert results[0][key] == pytest.approx(results[1][key], rel=1e-12, abs=0)

    def test_band_panels_cap(self, tmp_path):
        # a 1e9 mm slit over two pixels asks for 1.7e8 panels, 1.26 GiB in the
        # first array alone.  The child caps its own address space at 1 GiB,
        # so a missing cap fails there and leaves the machine's memory alone
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n1,-0.004,0.2\n2,0.004,0.2\n")
        out = tmp_path / "out"
        out.mkdir()
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from slitbound import cli; sys.exit(cli.main(sys.argv[1:]))")
        proc = run_python("-c", code, "estimate", str(frame), "--slit-width", "1e9mm",
                          "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert f"more than {diffraction.MAX_PANELS}" in proc.stderr
        assert list(out.iterdir()) == []

    def test_band_quadrature_memory(self, tmp_path):
        # a 1.48e6 mm slit over two pixels takes 2.5e5 panels, under the cap;
        # evaluated in one pass their nodes peaked at 243 MB.  The child caps
        # its address space at 1 GiB and prints its peak RSS, VmHWM in KiB:
        # its ru_maxrss would also count the RSS of this process, which Linux
        # carries over into a spawned child
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n1,-0.004,0.2\n2,0.004,0.2\n")
        out = tmp_path / "out"
        out.mkdir()
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from slitbound import cli; rc = cli.main(sys.argv[1:]); "
                "print(*[line.split()[1] for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')]); sys.exit(rc)")
        proc = run_python("-c", code, "estimate", str(frame), "--slit-width", "1.48e6mm",
                          "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100 * 1024


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

        for bad in ("abc", "-3mm", "0m", "", "inf", "nan", "infmm", 10**400, 10**5000):
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

    def test_invalid_nmax(self, tmp_path, capsys):
        assert run(tmp_path, "minstate", "--nmax", "0") == 2
        # the library's check, named after the flag, and only it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("slitbound: configuration error: --nmax: ")

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
        # the truncation certificate at the momentum CSV's edge 16 pi/dx
        assert report["results"]["k_max_per_m"] == 16 * np.pi / 477e-6
        assert f"{report['results']['weight_tail_bound']:.2e}" == "5.90e-05"
        assert f"{report['results']['second_moment_tail_bound']:.2e}" == "1.50e+06"

    @pytest.mark.parametrize("width", ["1e-300", "1e300"])
    def test_second_moment_bound_past_float_range(self, tmp_path, width):
        # about 0.34/dx^2 m^-2: past the largest float at 1e-300 m and below
        # the smallest at 1e300 m, so null, while the files are written
        assert run(tmp_path, "lanczos", "--slit-width", width) == 0
        results = load_report(tmp_path, "lanczos_report.json")["results"]
        assert results["second_moment_tail_bound"] is None
        assert f"{results['weight_tail_bound']:.2e}" == "5.90e-05"

    def test_rerun_byte_identical(self, tmp_path):
        run(tmp_path, "lanczos")
        first = {n: (tmp_path / n).read_bytes()
                 for n in ("lanczos_report.json", "lanczos_momentum_density.csv",
                           "lanczos_position_density.csv")}
        run(tmp_path, "lanczos")
        for n, blob in first.items():
            assert (tmp_path / n).read_bytes() == blob


class TestDensityGrids:
    @pytest.mark.parametrize("width", ["477um", "3um", "1m", "1e-160m"])
    def test_grids_antisymmetric_and_pinned(self, width):
        # each density table of both slit states, as format_csv writes it from
        # the rows i >= 0 that its command returns: the full grid is its own
        # negated mirror with the centre exactly +0.0, its ends exactly -edge
        # and edge (at 3 um m*(edge/m) overshoots the momentum edges) and the
        # density column is exactly even
        dx = parse_length(width)
        for command, k_edge in (("minstate", 8 * np.pi / dx), ("lanczos", 16 * np.pi / dx)):
            args = cli.build_parser().parse_args([command, "--slit-width", width])
            tables = [t for t in args.func(args)[0] if t[0].endswith("_density.csv")]
            assert len(tables) == 2, command
            for table, edge in zip(tables, (dx / 2, k_edge)):
                full = mirrored(table)
                assert format_csv(*table) == format_csv(*full), table[0]
                name, _, (grid, column), _ = full
                assert len(grid) % 2 == 1 and len(column) == len(grid), name
                assert grid[0] == -edge and grid[-1] == edge, name
                assert repr(grid[len(grid) // 2]) == "0.0", name
                assert grid == [-v for v in reversed(grid)], name
                assert column == column[::-1], name


class TestMirroredEncoding:
    """format_csv writes an even table from its rows i >= 0 with the bytes of
    the explicitly mirrored full columns."""

    @staticmethod
    def even_tables(command, *argv):
        args = cli.build_parser().parse_args([command, *argv])
        tables = [t for t in args.func(args)[0] if len(t) == 5]
        assert len(tables) == {"minstate": 3, "lanczos": 2}[command]
        return tables

    @pytest.mark.parametrize("width", ["477um", "3um", "1m", "1e-160m", "1.7e308m"])
    @pytest.mark.parametrize("command,nmax", [("minstate", "1"), ("minstate", "2"),
                                              ("minstate", "4096"), ("lanczos", None)])
    def test_matches_the_mirrored_columns(self, width, command, nmax):
        argv = ["--slit-width", width, *(["--nmax", nmax] if nmax else [])]
        for table in self.even_tables(command, *argv):
            assert format_csv(*table) == format_csv(*mirrored(table)), table[0]

    def test_coefficient_table_rows(self):
        # n = -2..2: the mirrored rows carry their sign, the centre row is once
        table = self.even_tables("minstate", "--nmax", "2")[0]
        lines = format_csv(*table).splitlines()
        assert lines[0] == "n,c_n"
        assert [line.split(",")[0] for line in lines[1:]] == ["-2", "-1", "0", "1", "2"]
        assert lines[1][1:] == lines[5] and lines[2][1:] == lines[4]

    def test_underflowed_grid_mirrors_as_negative_zero(self):
        # edge/m underflows to +0.0, so rows 0..m-1 of the half sit at +0.0
        # and their mirrors at -0.0, which %.9g writes as -0
        table = cli._even_table("t.csv", ["x", "y"], 5e-324, 4, lambda x: [1.0] * len(x))
        assert table[2][0] == [0.0, 0.0, 0.0, 0.0, 5e-324]
        text = format_csv(*table)
        assert text == format_csv(*mirrored(table))
        assert text.splitlines()[1:] == ["-4.94065646e-324,1", "-0,1", "-0,1", "-0,1", "0,1",
                                         "0,1", "0,1", "0,1", "4.94065646e-324,1"]

    def test_single_row_is_not_mirrored(self):
        assert format_csv("t.csv", ["x"], [[0.0]], None, True) == "x\n0\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_half_is_numeric_failure(self, bad):
        with pytest.raises(NumericFailure, match="t.csv holds a non-finite value"):
            format_csv("t.csv", ["x", "y"], [[0.0, 1.0], [1.0, bad]], None, True)


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
        # -0 passes the xi >= 0 check, and the report echoes the +0.0 it read
        assert run(tmp_path, "lpbound", "--xi", "-0", "1.0") == 0
        xi = load_report(tmp_path, "lpbound_report.json")["parameters"]["xi"]
        assert xi == [0.0, 1.0] and not np.signbit(xi).any()

    def test_non_finite_xi(self, tmp_path):
        for bad in ("nan", "inf"):
            assert run(tmp_path, "lpbound", "--xi", "1.0", bad) == 2
            assert not (tmp_path / "lpbound.csv").exists()

    def test_refusal_names_the_flag(self, tmp_path, capsys):
        assert run(tmp_path, "lpbound", "--xi", "nan") == 2
        assert capsys.readouterr().err == ("slitbound: configuration error: --xi: "
                                           "xi must be finite and nonnegative, got nan\n")

    def test_far_saturated_xi(self, tmp_path):
        assert run(tmp_path, "lpbound", "--xi", "400", "1000") == 0
        rows = load_report(tmp_path, "lpbound_report.json")["results"]["rows"]
        assert [r["lambda0"] for r in rows] == [1.0, 1.0]
        assert all(r["tail"] <= 1e-15 for r in rows)
        lines = (tmp_path / "lpbound.csv").read_text().splitlines()
        assert lines[1:] == ["400,1", "1000,1"]

    def test_kernel_c_overflow(self, tmp_path):
        # kernel_c = pi*xi/2 overflows above xi ~ 5.7e307; lambda0 = 1 and its
        # tail stay certified there, so the report says null for kernel_c
        assert run(tmp_path, "lpbound", "--xi", "1e300", "1e308", "1.7976931348623157e308") == 0
        rows = load_report(tmp_path, "lpbound_report.json")["results"]["rows"]
        assert [r["lambda0"] for r in rows] == [1.0, 1.0, 1.0]
        assert all(r["tail"] <= 1e-15 for r in rows)
        assert [r["kernel_c"] for r in rows] == [np.pi * 1e300 / 2.0, None, None]


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

    def test_threshold_product(self, tmp_path):
        # the verdict turns at the report's a_threshold
        a_star = 2.0 * np.pi * 0.8349379513177563
        below, above = f"{a_star * (1 - 1e-6)!r}", f"{a_star * (1 + 1e-6)!r}"
        assert run(tmp_path, "reanalyze", "--a", below, above) == 0
        report = load_report(tmp_path, "reanalysis_report.json")
        assert report["parameters"]["a_threshold"] == 5.246069868126351
        assert [r["well_defined"] for r in report["results"]["rows"]] == [False, True]

    def test_far_saturated_product(self, tmp_path):
        assert run(tmp_path, "reanalyze", "--a", "2513.3") == 0
        (row,) = load_report(tmp_path, "reanalysis_report.json")["results"]["rows"]
        assert row["lambda0"] == 1.0
        assert row["well_defined"]

    def test_non_finite_a(self, tmp_path):
        for bad in ("nan", "inf"):
            assert run(tmp_path, "reanalyze", "--a", "1.128", bad) == 2
            assert not (tmp_path / "reanalysis.csv").exists()

    def test_refusal_names_the_flag(self, tmp_path, capsys):
        assert run(tmp_path, "reanalyze", "--a", "inf") == 2
        assert capsys.readouterr().err == ("slitbound: configuration error: --a: "
                                           "all products a must be finite and positive\n")

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
        pixel_size, intens = read_frame_csv(str(tmp_path / "frame.csv"))
        assert len(intens) == 3648
        assert pixel_size == pytest.approx(8e-6, rel=1e-8)
        lines = (tmp_path / "frame.csv").read_text().splitlines()
        assert lines[0] == "# normalized=false"
        assert lines[1] == "pixel,y_mm,intensity"
        assert float(lines[2].split(",")[1]) == pytest.approx(-29.184 / 2 + 0.004, rel=1e-6)

    def test_simulate_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(a, "simulate", "--noise-sigma", "1e-3")
        run(b, "simulate", "--noise-sigma", "1e-3")
        assert (a / "frame.csv").read_bytes() == (b / "frame.csv").read_bytes()

    def test_simulate_bad_pixels(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--pixels", "3647") == 2
        assert "configuration error: --pixels: num_pixels must be even and >= 2, got 3647" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_negative_seed(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--seed", "-1", "--noise-sigma", "1e-3") == 2
        assert "configuration error: --seed: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_zero_noise_sigma_reported_as_zero(self, tmp_path):
        # -0 passes the sigma >= 0 check; the report echoes +0.0, and the
        # frame is the one --noise-sigma 0 writes
        assert run(tmp_path / "neg", "simulate", "--noise-sigma", "-0") == 0
        assert run(tmp_path / "pos", "simulate", "--noise-sigma", "0") == 0
        sigma = load_report(tmp_path / "neg", "simulate_report.json")["parameters"]["noise_sigma"]
        assert sigma == 0.0 and not np.signbit(sigma)
        assert (tmp_path / "neg" / "frame.csv").read_bytes() == \
            (tmp_path / "pos" / "frame.csv").read_bytes()

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

    def test_estimate_underflowing_focal_length(self, tmp_path, capsys):
        # lambda*f underflows to 0, so 2*delta_x/(lambda*f) is not finite
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n1,-0.004,0.2\n2,0.004,0.2\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["estimate", str(frame), "--focal-length", "1e-310nm",
                         "--out", str(out)]) == 2
        assert "configuration error: --slit-width, --wavelength, --focal-length: " \
            in capsys.readouterr().err
        assert list(out.iterdir()) == []

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
        pixel_size, intens = read_frame_csv(str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        y = [float(r[1]) * 1e-3 for r in rows]
        assert float_bits(pixel_size) == float_bits((y[-1] - y[0]) / (len(y) - 1))
        assert np.array_equal(float_bits(intens), float_bits([float(r[2]) for r in rows]))

    @pytest.mark.parametrize("text", ["", "pixel,y_mm,intensity\n",
                                      "# normalized=false\n\npixel,y_mm,intensity\n# end\n"],
                             ids=["empty", "header-only", "header-and-comments"])
    def test_read_frame_without_rows(self, tmp_path, text):
        path = tmp_path / "frame.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgument, match="contains no data"):
            read_frame_csv(str(path))

    @pytest.mark.parametrize("variant", ["comments-before-header", "comments-and-blanks",
                                         "crlf"])
    def test_read_frame_skips_comments_and_line_ends(self, tmp_path, variant):
        # each variant reads bitwise the same as the frame simulate writes
        assert run(tmp_path, "simulate", "--pixels", "256", "--noise-sigma", "1e-3") == 0
        plain = (tmp_path / "frame.csv").read_text()
        lines = plain.splitlines(keepends=True)
        text = {
            "comments-before-header": "# one\n\n#two\n" + plain,
            "comments-and-blanks": "".join(
                line + ("# note\n" if i % 3 else "\n  \n") for i, line in enumerate(lines)),
            "crlf": plain.replace("\n", "\r\n"),
        }[variant]
        path = tmp_path / "variant.csv"
        path.write_bytes(text.encode())
        want = read_frame_csv(str(tmp_path / "frame.csv"))
        for got, expected in zip(read_frame_csv(str(path)), want):
            assert np.array_equal(float_bits(got), float_bits(expected))

    def test_frame_cap_counts_rows_only(self, tmp_path, monkeypatch):
        # under a cap of 4 rows, the comment and blank lines around 4 rows do
        # not count toward it, and a fifth row does
        monkeypatch.setattr(reports, "MAX_PIXELS", 4)

        def frame(rows):
            path = tmp_path / f"frame-{rows}.csv"
            path.write_text("# c\n" * 9 + "pixel,y_mm,intensity\n" + "".join(
                f"# c\n\n{i},{0.008 * i:.9g},0.2\n" for i in range(1, rows + 1)))
            return str(path)

        assert np.array_equal(read_frame_csv(frame(4))[1], [0.2] * 4)
        with pytest.raises(InvalidArgument, match="holds more than 4 rows"):
            read_frame_csv(frame(5))

    def test_estimate_single_pixel_frame(self, tmp_path):
        bad = tmp_path / "frame.csv"
        bad.write_text("pixel,y_mm,intensity\n1,0.004,0.2\n")
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2

    def test_estimate_odd_pixel_frame(self, tmp_path, capsys):
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n1,-0.008,0.2\n2,0,0.2\n3,0.008,0.2\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["estimate", str(frame), "--out", str(out)]) == 2
        assert "configuration error: frame: num_pixels must be even and >= 2, got 3" \
            in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_estimate_all_zero_frame(self, tmp_path, capsys):
        # every intensity <= 0 is clipped to zero, which cannot be normalized
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n1,-0.004,0\n2,0.004,-0.1\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["estimate", str(frame), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "slitbound: configuration error: cannot normalize an all-zero frame"]
        assert list(out.iterdir()) == []

    def test_estimate_overflowing_intensity_sum(self, tmp_path, capsys):
        # each intensity is finite but their sum is not; dividing by it would
        # report gamma_hat 0
        frame = tmp_path / "frame.csv"
        frame.write_text("pixel,y_mm,intensity\n1,-0.012,1e308\n2,-0.004,1.7e308\n"
                         "3,0.004,1.7e308\n4,0.012,1e308\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["estimate", str(frame), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "slitbound: configuration error: "
            "cannot normalize a frame whose intensity sum overflows"]
        assert list(out.iterdir()) == []

    def test_estimate_clips_negative_pixels(self, tmp_path):
        # a negative intensity counts as 0: the same trace, byte for byte
        assert run(tmp_path, "simulate", "--pixels", "256") == 0
        lines = (tmp_path / "frame.csv").read_text().splitlines(keepends=True)
        traces = {}
        for name, cell in (("negative", "-0.25"), ("zero", "0")):
            rows = [line if i < 2 or i % 7 else line.rsplit(",", 1)[0] + f",{cell}\n"
                    for i, line in enumerate(lines)]
            (tmp_path / name).mkdir()
            (tmp_path / name / "frame.csv").write_text("".join(rows))
            assert cli.main(["estimate", str(tmp_path / name / "frame.csv"),
                             "--out", str(tmp_path / name)]) == 0
            traces[name] = (tmp_path / name / "trace.csv").read_bytes()
        assert traces["negative"] == traces["zero"]
        # the cells set matter: the untouched frame gives another trace
        assert run(tmp_path, "estimate", str(tmp_path / "frame.csv")) == 0
        assert (tmp_path / "trace.csv").read_bytes() != traces["zero"]

    def test_estimate_nonuniform_pixels(self, tmp_path, capsys):
        bad = tmp_path / "frame.csv"
        bad.write_text(
            "pixel,y_mm,intensity\n1,-0.012,0.1\n2,-0.004,0.2\n3,0.004,0.2\n4,0.013,0.1\n"
        )
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path)]) == 2
        assert "frame pixels must be uniformly spaced" in capsys.readouterr().err

    @pytest.mark.parametrize("y_mm", [(0.012, 0.004, -0.004, -0.012), (0.004,) * 4],
                             ids=["descending", "constant"])
    def test_estimate_y_must_increase(self, tmp_path, capsys, y_mm):
        # a uniform but falling, or a constant, y_mm is refused for its order
        bad = tmp_path / "frame.csv"
        bad.write_text("pixel,y_mm,intensity\n" + "".join(
            f"{i},{y},0.2\n" for i, y in enumerate(y_mm, 1)))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["estimate", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "slitbound: configuration error: frame y_mm must increase from row to row"]
        assert list(out.iterdir()) == []


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


class TestHardExit:
    """``python -m slitbound.cli`` ends through cli.run: main, then os._exit."""

    def test_success_writes_readme_files(self, tmp_path):
        # the README commands as a user runs them, each in a fresh interpreter
        # that skips the teardown: every file is on disk, byte for byte what
        # main writes when called in-process
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        for argv, _ in README_OUTPUTS:
            proc = run_python("-m", "slitbound.cli", *(a.format(out=cold) for a in argv),
                              "--out", str(cold))
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), argv[0]
            assert run(warm, *(a.format(out=warm) for a in argv)) == 0
        names = set().union(*(files for _, files in README_OUTPUTS))
        assert {p.name for p in cold.iterdir()} == names
        for name in names:
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), name

    @pytest.mark.parametrize("code,argv,kind", [
        (2, ["lanczos", "--slit-width", "abc"], "configuration error"),
        (3, ["lanczos", "--slit-width", "1e-310"], "numeric failure"),
        (4, ["lpbound", "--xi", "1.0"], "I/O error"),
    ], ids=["config", "numeric", "io"])
    def test_failure_exit(self, tmp_path, code, argv, kind):
        # one stderr line and nothing written; for exit 4 --out is a regular
        # file, which must stay empty
        out = tmp_path / "out"
        if code == cli.EXIT_IO:
            out.write_text("")
        else:
            out.mkdir()
        proc = run_python("-m", "slitbound.cli", *argv, "--out", str(out))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
        assert proc.stderr.startswith(f"slitbound: {kind}: ")
        assert list(tmp_path.iterdir()) == [out]
        if code == cli.EXIT_IO:
            assert out.read_text() == ""
        else:
            assert list(out.iterdir()) == []

    def test_buffered_stdout_survives(self, tmp_path):
        # what the process printed before the command is flushed before
        # os._exit; PYTHONUNBUFFERED would write it at once and hide a
        # missing flush, so the child runs without it
        code = ("import runpy; print('x', end=''); "
                "runpy.run_module('slitbound.cli', run_name='__main__')")
        proc = run_python("-c", code, "lpbound", "--xi", "1.0", "--out", str(tmp_path),
                          PYTHONUNBUFFERED=None)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lpbound.csv",
                                                               "lpbound_report.json"]

    def test_closed_stdout(self, tmp_path):
        # started with descriptor 1 closed, Python sets sys.stdout to None;
        # the command still writes its files and exits 0
        code = ("import runpy, sys; sys.stdout = None; "
                "runpy.run_module('slitbound.cli', run_name='__main__')")
        proc = run_python("-c", code, "lpbound", "--xi", "1.0", "--out", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lpbound.csv",
                                                               "lpbound_report.json"]

    def test_help_and_usage_error(self):
        # argparse's own exits leave the usual way: the help texts exit 0, as
        # in TestImportPath::test_help_texts, and a usage error exits 2
        texts = []
        for command in ["", *COMMAND_MODULES]:
            proc = run_python("-m", "slitbound.cli", *filter(None, [command]), "--help",
                              COLUMNS="80")
            assert (proc.returncode, proc.stderr) == (0, ""), command
            texts.append(f"==> slitbound{' ' if command else ''}{command} --help <==\n"
                         + proc.stdout)
        with open(os.path.join(HERE, "cli_help.txt")) as fh:
            assert "".join(texts) == fh.read()
        proc = run_python("-m", "slitbound.cli", "lanczos", "--slit-width", COLUMNS="80")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: slitbound lanczos [-h]")
        assert proc.stderr.endswith(
            "slitbound lanczos: error: argument --slit-width: expected one argument\n")

    @pytest.mark.parametrize("given", [None, "3"], ids=["absent", "user"])
    def test_run_defaults_one_blas_thread(self, tmp_path, monkeypatch, given):
        # run, the command-line entry, gives OpenBLAS one thread unless the
        # user chose a count; main called from Python leaves the variable be
        if given is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
        assert run(tmp_path, "lpbound", "--xi", "1.0") == 0
        assert os.environ.get("OPENBLAS_NUM_THREADS") == given
        seen = []
        monkeypatch.setattr(cli, "main",
                            lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
        monkeypatch.setattr(os, "_exit", seen.append)
        cli.run()
        assert seen == [given or "1", 0]

    def test_blas_threads_keep_output_bytes(self, tmp_path):
        # the README simulate and estimate, each in a fresh interpreter, write
        # the same bytes under run's default, an explicit 1 and two threads
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            for argv, _ in README_OUTPUTS[-2:]:
                proc = run_python("-m", "slitbound.cli", *(a.format(out=out) for a in argv),
                                  "--out", str(out), OPENBLAS_NUM_THREADS=threads)
                assert (proc.returncode, proc.stderr) == (0, ""), (threads, argv[0])
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_console_script_runs_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(HERE), "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["slitbound"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run


# Runs the argument lists of the JSON file argv[1] through main, each with a
# fresh --out under argv[2], in this one process: no process or thread per
# case.  The address space is capped at 1 GiB beyond what the imports took, so
# an unbounded allocation fails the case instead of exhausting the machine.
# Prints per case the exit code, or the exception that escaped main, the
# files left in --out and what the case printed to stderr.
FUZZ_CHILD = """
import contextlib, io, json, os, resource, sys
import numpy
from slitbound import cli, concentration, core, diffraction, special
with open('/proc/self/status') as fh:
    vm = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))
cap = vm * 1024 + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
with open(sys.argv[1]) as fh:
    cases = json.load(fh)
results = []
for i, argv in enumerate(cases):
    out = os.path.join(sys.argv[2], str(i))
    os.mkdir(out)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ['--out', out])
    except BaseException as exc:
        code = repr(exc)
    results.append([code, sorted(os.listdir(out)), err.getvalue()])
print(json.dumps(results))
"""

# argument values the fuzz draws from: valid ones, and the extremes and
# malformed ones each command must refuse with an exit code.  Slit widths for
# estimate leave out FUZZ_FAR_WIDTHS: they stay at or below a few mm on the
# sane optics, or far past the panel cap, so no case spends a second in a
# band quadrature just under the cap.
FUZZ_WIDTHS = ["477um", "1um", "80um", "3.3mm", "1e-300", "1e-310", "5e-324", "1e-320",
               "1e-307", "0", "-1um", "nan", "inf", "1e999", "abc", "", "12xm", "1e9mm"]
FUZZ_FAR_WIDTHS = ["1m", "1e300", "1e154", "1.7e308m", "1e308"]
FUZZ_OPTICS = {"--wavelength": ["632.82nm", "1e-310nm", "1e300m", "0", "-5nm", "nan", "2um"],
               "--focal-length": ["150mm", "1e-310nm", "1e300m", "-1m", "inf", "1e153m"]}
FUZZ_NUMBERS = ["0", "0.179", "1.0", "31.99", "32", "1e3", "1e300", "-1.5", "-0.0", "nan",
                "inf", "5e-324", "2.464", "1e308", "1.7976931348623157e308"]


def fuzz_case(rng, frames):
    """One argument list for a command drawn at random; every value parses
    with the argument's type, so argparse itself refuses none.  lanczos
    computes its full density at nearly every width, so it is drawn a
    quarter as often as the others, and minstate takes small --nmax values:
    the fuzz stays within a few seconds."""
    weights = {command: 1 if command == "lanczos" else 4 for command in COMMAND_MODULES}
    command = rng.choices(list(weights), list(weights.values()))[0]

    def width(far=True):
        pool = FUZZ_WIDTHS + (FUZZ_FAR_WIDTHS if far else [])
        return rng.choice(pool) if rng.random() < 0.7 else f"{rng.uniform(1, 999):.4g}um"

    def maybe(flag, values):
        # --flag=value, so a value such as -5nm is not read as a flag
        return [f"{flag}={rng.choice(values)}"] if rng.random() < 0.5 else []

    if command == "minstate":
        nmax = rng.choice(["1", "2", "64", "512", "0", "-3", "1000001", str(10**18)])
        argv = [f"--slit-width={width()}", f"--nmax={nmax}"]
    elif command == "lanczos":
        argv = [f"--slit-width={width()}"]
    elif command in ("lpbound", "reanalyze"):
        flag = "--xi" if command == "lpbound" else "--a"
        argv = [flag, *rng.choices(FUZZ_NUMBERS, k=rng.randint(1, 4))]
    elif command == "simulate":
        argv = [f"--slit-width={width()}",
                *maybe("--pixels", ["2", "64", "1536", "3648", "0", "1", "3", "-2", "65536",
                                    "65538", str(10**12)]),
                *maybe("--pixel-size", ["8um", "1nm", "1e-320", "0", "1e300", "-8um"]),
                *maybe("--noise-sigma", ["0", "1e-3", "0.5", "nan", "inf", "-0.5", "1e308"]),
                *maybe("--seed", ["0", "7", "-1", str(2**70)]),
                *(["--quantize"] if rng.random() < 0.3 else [])]
    else:
        argv = [rng.choice(frames), f"--slit-width={width(far=False)}"]
    if command in ("simulate", "estimate"):
        for flag, values in FUZZ_OPTICS.items():
            argv += maybe(flag, values)
    return [command, *argv]


class TestArgumentFuzz:
    def test_seeded_argument_fuzz(self, tmp_path):
        # every exit is 0, 2, 3 or 4, no exception escapes main, a failure
        # leaves --out empty and prints exactly one slitbound: line, and a
        # success writes exactly its README files and prints nothing
        frames = tmp_path / "frames"
        assert run(frames / "readme", "simulate", "--noise-sigma", "1e-3", "--seed", "7") == 0
        assert run(frames / "quantized", "simulate", "--pixels", "2048", "--noise-sigma",
                   "1e-3", "--quantize") == 0
        handmade = {"two.csv": "1,-0.004,0.2\n2,0.004,0.2\n",
                    "far.csv": "1,-1e300,0.2\n2,1e300,0.2\n",
                    "wide.csv": "1,-1e158,0.2\n2,1e158,0.2\n",
                    "badrow.csv": "1,-0.004,0.2\n2,0.004,nan\n",
                    "single.csv": "1,0.004,0.2\n",
                    "odd.csv": "1,-0.008,0.2\n2,0,0.2\n3,0.008,0.2\n",
                    "zero.csv": "1,-0.004,0\n2,0.004,-0.1\n"}
        for name, rows in handmade.items():
            (frames / name).write_text("pixel,y_mm,intensity\n" + rows)
        (frames / "header.csv").write_text("a,b,c\n1,2,3\n")
        paths = [str(frames / "readme" / "frame.csv"), str(frames / "quantized" / "frame.csv"),
                 *(str(frames / name) for name in [*handmade, "header.csv", "missing.csv"])]

        rng = random.Random(1515)
        cases = [fuzz_case(rng, paths) for _ in range(500)]
        (tmp_path / "cases.json").write_text(json.dumps(cases))
        (tmp_path / "out").mkdir()
        proc = run_python("-c", FUZZ_CHILD, str(tmp_path / "cases.json"), str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr[-2000:]
        results = json.loads(proc.stdout)
        assert len(results) == len(cases)

        outputs = {argv[0]: files for argv, files in README_OUTPUTS}
        bad = [(argv, code, files, err) for argv, (code, files, err) in zip(cases, results)
               if code not in (0, 2, 3, 4)
               or files != (sorted(outputs[argv[0]]) if code == 0 else [])
               or (err != "" if code == 0 else
                   err.splitlines() != [err.strip()] or not err.startswith("slitbound: "))]
        assert bad[:5] == []
        # lambda0 is certified at every finite xi >= 0, so an lpbound case of
        # such values, or a reanalyze case of finite a > 0, succeeds
        valid = {"lpbound": lambda v: v >= 0, "reanalyze": lambda v: v > 0}
        refused = [(argv, code) for argv, (code, _, _) in zip(cases, results)
                   if argv[0] in valid and code != 0
                   and all(np.isfinite(float(v)) and valid[argv[0]](float(v))
                           for v in argv[2:])]
        assert refused[:5] == []
        # the fuzz reached every exit code and every command's success
        assert {code for code, _, _ in results} == {0, 2, 3, 4}
        assert {argv[0] for argv, (code, _, _) in zip(cases, results) if code == 0} \
            == set(COMMAND_MODULES)
