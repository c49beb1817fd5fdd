"""Mutation checks that stay in the repository.

    python tests/mutants.py

Each mutant of ``MUTANTS`` breaks one check or rule of the library and names
the tests that catch it: (name, file, exact old text, new text, test node
ids).  The runner makes two copies of ``src/``, ``tests/`` and the files
the suite reads beside them in a temporary directory, each running every
other mutant, and checks three things:

- each old text occurs exactly once in its file, so a refactor that moves
  the code fails the runner loudly instead of leaving a mutant that no
  longer applies;
- the named nodes pass on the unmutated copy;
- for each mutant in turn, applied alone to the copy, its nodes fail.

It prints one line per mutant and exits 0 only if every mutant is caught.
Each mutant runs only its own nodes, so the whole run takes well under a
minute.  pytest does not collect this file.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")

Mutant = collections.namedtuple("Mutant", "name file old new nodes")

CLI, REPORTS = "src/slitbound/cli.py", "src/slitbound/reports.py"
DIFFRACTION = "src/slitbound/diffraction.py"
STRICT = "tests/test_cli.py::TestStrictReports::"
ESTIMATE = "tests/test_cli.py::TestSimulateAndEstimate::"
CAPS = "tests/test_cli.py::TestSizeCaps::"
HARD_EXIT = "tests/test_cli.py::TestHardExit::"
FUZZ = "tests/test_cli.py::TestArgumentFuzz"
GAMMA_TRACE = "tests/test_diffraction.py::TestGammaTrace::"
DENSITY_GRIDS = "tests/test_cli.py::TestDensityGrids::test_grids_antisymmetric_and_pinned"
MIRRORED = "tests/test_cli.py::TestMirroredEncoding::"
MIRROR = '        body = "-" + "-".join(body.splitlines(True)[:0:-1]) + body\n'
STURM_CHECK = "        if mu == start != 0.0 and (p0 <= 0.0 or min(pivots) <= 0.0):\n"
FOURIER_NORM = ("tests/test_core.py::TestFourierState::"
                "test_refuses_a_squared_norm_that_is_not_a_finite_normal_float")
FLOAT_MAXIMUM = STRICT + "test_float_maximum_width_computes"
RESTART = ("tests/test_concentration.py::TestLambda0Solve::"
           "test_start_above_eigenvalue_restarts_from_zero")
SOLVE = "tests/test_concentration.py::TestLambda0Solve::"

MUTANTS = [
    Mutant("csv-no-finiteness-check", REPORTS,
           '    if "n" in body:\n', "    if False:\n",
           [STRICT + "test_non_finite_csv_cell_is_numeric_failure"]),
    Mutant("report-written-first", CLI,
           "        texts.append((report_name, format_report(args.command, *report)))\n",
           "        texts.insert(0, (report_name, format_report(args.command, *report)))\n",
           [STRICT + "test_report_written_last_by_main"]),
    Mutant("csv-float-repr", REPORTS,
           'CSV_FLOAT_FORMAT = "%.9g"\n', 'CSV_FLOAT_FORMAT = "%.9r"\n',
           [STRICT + "test_csv_columns_match_cell_oracle"]),
    Mutant("csv-python-booleans", REPORTS,
           '            column = ["true" if v else "false" for v in column]\n',
           "            column = [bool(v) for v in column]\n",
           [STRICT + "test_csv_columns_match_cell_oracle"]),
    Mutant("frame-no-finiteness-check", REPORTS,
           "    return table if table.shape[1] == 3 and np.isfinite(table).all() else None\n",
           "    return table if table.shape[1] == 3 else None\n",
           [ESTIMATE + "test_estimate_bad_frame_row"]),
    Mutant("lambda0-size-rule-15", "src/slitbound/concentration.py",
           "    n = 16 + math.ceil(c / 2.0)\n", "    n = 15 + math.ceil(c / 2.0)\n",
           ["tests/test_concentration.py::TestLambda0::test_size_rule_edges"]),
    Mutant("band-gauss-legendre-6", DIFFRACTION,
           "    nodes_gl, weights_gl = np.array(_GL8_NODES), np.array(_GL8_WEIGHTS)\n",
           "    nodes_gl, weights_gl = (np.array(v)\n"
           "                            for v in np.polynomial.legendre.leggauss(6))\n",
           ["tests/test_diffraction.py::TestBandMoments::test_matches_32_node_reference",
            "tests/test_diffraction.py::TestBandMoments::test_even_monomials_exact"]),
    Mutant("uniform-one-panel", DIFFRACTION,
           "    per = math.ceil(width / _PANEL) if width < math.inf else math.inf\n",
           "    per = 1\n",
           ["tests/test_diffraction.py::TestBandMoments::test_widths_match_32_node_reference"]),
    Mutant("width-unchecked", "src/slitbound/core.py",
           "    if not delta_x > 0:\n", "    if False:\n",
           ["tests/test_special.py::test_width_must_be_positive"]),
    Mutant("trig-no-nan-at-inf", "src/slitbound/core.py",
           "    return lambda t: f(t) if math.isfinite(t) else math.nan\n", "    return f\n",
           [FUZZ]),
    Mutant("numeric-failure-two-lines", CLI,
           '        print(f"slitbound: numeric failure: {exc}", file=sys.stderr)\n',
           '        print(f"slitbound: numeric failure: {exc}", file=sys.stderr)\n'
           '        print("slitbound: see above", file=sys.stderr)\n',
           [FUZZ]),
    Mutant("sturm-check-p0-only", "src/slitbound/concentration.py", STURM_CHECK,
           "        if mu == start != 0.0 and p0 <= 0.0:\n", [RESTART]),
    Mutant("no-restart-from-zero", "src/slitbound/concentration.py", STURM_CHECK,
           "        if False:\n", [RESTART]),
    Mutant("unguarded-flush", CLI,
           "        if stream is not None:  # None where the descriptor was closed at start\n",
           "        if True:\n", [HARD_EXIT + "test_closed_stdout"]),
    Mutant("no-flush", CLI,
           "            stream.flush()\n", "            pass\n",
           [HARD_EXIT + "test_buffered_stdout_survives"]),
    Mutant("theory-no-band-edge-check", DIFFRACTION,
           "    if not count * per <= MAX_PANELS:"
           "  # a NaN or infinite count fails as well\n",
           "    if False:\n",
           ["tests/test_diffraction.py::TestTheoryTrace::test_infinite_band_edge_refused",
            CAPS + "test_band_panels_of_overflowing_extent"]),
    Mutant("detector-float-count", DIFFRACTION,
           '        if not hasattr(type(num_pixels), "__index__"):\n', "        if False:\n",
           ["tests/test_diffraction.py::TestDetectorSpec::test_integer_fields"]),
    Mutant("noise-float-seed", DIFFRACTION,
           '        if not hasattr(type(seed), "__index__") or seed < 0:\n',
           "        if seed < 0:\n",
           ["tests/test_diffraction.py::TestDetectorSpec::test_integer_fields"]),
    Mutant("estimator-no-u2-check", DIFFRACTION,
           "    if not math.isfinite(u_max * u_max):\n", "    if False:\n",
           [GAMMA_TRACE + "test_overflowing_terms_rejected"]),
    Mutant("estimator-no-sum-check", DIFFRACTION,
           "    if total == math.inf:\n", "    if False:\n",
           ["tests/test_diffraction.py::TestNormalizeFrame::test_overflowing_sum_rejected"]),
    Mutant("frame-no-row-cap", REPORTS,
           "    if len(rows) > MAX_PIXELS:\n", "    if False:\n",
           [CAPS + "test_frame_rows_cap"]),
    Mutant("frame-y-order-unchecked", REPORTS,
           "    if not pixel_size > 0:\n", "    if False:\n",
           [ESTIMATE + "test_estimate_y_must_increase"]),
    Mutant("frame-spacing-unchecked", REPORTS,
           "    if (abs(y[1:] - y[:-1] - pixel_size) > 2e-8 * abs(y).max()).any():\n",
           "    if False:\n", [ESTIMATE + "test_estimate_nonuniform_pixels"]),
    Mutant("nmax-uncapped", "src/slitbound/core.py",
           '    if not hasattr(type(n_max), "__index__") or not 1 <= n_max <= MAX_NMAX:\n',
           '    if not hasattr(type(n_max), "__index__") or not 1 <= n_max:\n',
           [CAPS + "test_nmax_cap"]),
    Mutant("pixels-uncapped", DIFFRACTION,
           "        if num_pixels > reports.MAX_PIXELS:\n", "        if False:\n",
           [CAPS + "test_pixels_cap"]),
    Mutant("grid-end-unpinned", CLI,
           "    half = [i * (edge / m) for i in range(m)] + [edge]\n",
           "    half = [i * (edge / m) for i in range(m + 1)]\n", [DENSITY_GRIDS]),
    # the centre of an even table is the row 0 that format_csv encodes once:
    # the same edit is checked on the commands' tables and on synthetic ones
    Mutant("mirror-repeats-centre", REPORTS, MIRROR, MIRROR.replace("[:0:-1]", "[::-1]"),
           [DENSITY_GRIDS]),
    Mutant("mirror-repeats-row-0", REPORTS, MIRROR, MIRROR.replace("[:0:-1]", "[::-1]"),
           [MIRRORED + "test_coefficient_table_rows",
            MIRRORED + "test_underflowed_grid_mirrors_as_negative_zero"]),
    Mutant("mirror-row-unsigned", REPORTS, MIRROR, MIRROR.replace('"-" + "-".join', '"".join'),
           [DENSITY_GRIDS, MIRRORED + "test_coefficient_table_rows"]),
    Mutant("si-kernel-swapped-coefficient", "src/slitbound/special.py",
           "        out = (ax * (((((((p7 * y + p6) * y + p5)",
           "        out = (ax * (((((((p7 * y + p5) * y + p6)",
           ["tests/test_special.py::test_float_kernel_matches_array_path_bitwise"]),
    Mutant("fourier-norm-unchecked", "src/slitbound/core.py",
           "        if not 2.0**-1022 <= norm2 < math.inf:  # zero, subnormal, inf or nan\n",
           "        if norm2 == 0.0:\n",
           [FOURIER_NORM]),
    Mutant("fourier-overflow-unmapped", "src/slitbound/core.py",
           "        try:\n"
           "            norm2 = math.fsum([v * v for v in map(abs, c)])\n"
           "        except OverflowError:  # a modulus or the sum beyond the float range\n"
           "            norm2 = math.inf\n",
           "        norm2 = math.fsum([v * v for v in map(abs, c)])\n", [FOURIER_NORM]),
    Mutant("position-phase-overflows", "src/slitbound/core.py",
           "        return amp * _cos(math.pi * (v / delta_x))\n",
           "        return amp * _cos(math.pi * v / delta_x)\n", [FLOAT_MAXIMUM]),
    Mutant("lanczos-phase-overflows", "src/slitbound/special.py",
           "        return amp * _sinc(2.0 * math.pi * (v / delta_x))\n",
           "        return amp * _sinc(2.0 * math.pi * v / delta_x)\n", [FLOAT_MAXIMUM]),
    Mutant("momentum-amplitude-overflows", "src/slitbound/core.py",
           "    amp = 2.0 * math.sqrt(math.pi) * math.sqrt(delta_x)\n",
           "    amp = 2.0 * math.sqrt(math.pi * delta_x)\n", [FLOAT_MAXIMUM]),
    Mutant("lanczos-amplitude-overflows", "src/slitbound/special.py",
           "    amp = math.sqrt(math.pi / SI_2PI) / math.sqrt(delta_x)\n",
           "    amp = math.sqrt(math.pi / (SI_2PI * delta_x))\n", [FLOAT_MAXIMUM]),
    Mutant("fourier-overflow-hides-shape", "src/slitbound/core.py",
           "            c = (math.inf,) * len(raw)\n", "            c = (math.inf,) * 3\n",
           ["tests/test_core.py::TestFourierState::test_refuses_a_vector_of_the_wrong_shape"]),
    Mutant("geometry-sign-unchecked", DIFFRACTION,
           "            if not getattr(self, name) > 0:\n", "            if False:\n",
           ["tests/test_diffraction.py::TestSlitGeometry::test_fields_must_be_positive"]),
    Mutant("temp-file-kept", REPORTS,
           "            os.unlink(tmp)\n", "            pass\n",
           [STRICT + "test_failed_write_leaves_no_temp_file"]),
    Mutant("report-allows-nan", REPORTS,
           "allow_nan=False)\n", "allow_nan=True)\n",
           [STRICT + "test_non_finite_report_value_is_numeric_failure"]),
    Mutant("tail-bound-any-band", "src/slitbound/special.py",
           "    if U <= 2.0 * math.pi:\n", "    if False:\n",
           ["tests/test_special.py::TestLanczosMomentumDensity::"
            "test_tail_bounds_need_a_band_past_two_pi"]),
    Mutant("lambda0-tail-unchecked", "src/slitbound/concentration.py",
           "    if tail > _TAIL_TOL:\n", "    if False:\n",
           [SOLVE + "test_uncertified_tail_is_numeric_failure"]),
    Mutant("lambda0-excess-unchecked", "src/slitbound/concentration.py",
           "    if lam - 1.0 > _LAMBDA_EXCESS_TOL:\n", "    if False:\n",
           [SOLVE + "test_lambda0_above_one_is_numeric_failure"]),
    Mutant("xi-flag-unnamed", CLI,
           '_flag("--xi", lp_lambda0, xi)', "lp_lambda0(xi)",
           ["tests/test_cli.py::TestLpbound::test_refusal_names_the_flag"]),
    Mutant("a-flag-unnamed", CLI,
           '_flag("--a", concentration.reanalyze_products, args.a)',
           "concentration.reanalyze_products(args.a)",
           ["tests/test_cli.py::TestReanalyze::test_refusal_names_the_flag"]),
]


def run_nodes(tree: pathlib.Path, nodes) -> int:
    """pytest's exit code on the nodes in the tree, with the tree's own
    settings, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *nodes], cwd=tree, env=env, capture_output=True).returncode


def copy_tree(tree: pathlib.Path) -> pathlib.Path:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, tree / name)
    return tree


def run_mutants(tree: pathlib.Path, mutants) -> list[int]:
    """Each mutant applied alone to the tree, and pytest's exit code on its nodes."""
    codes = []
    for m in mutants:
        path = tree / m.file
        text = path.read_text()
        path.write_text(text.replace(m.old, m.new))
        try:
            codes.append(run_nodes(tree, m.nodes))
        finally:
            path.write_text(text)
    return codes


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="slitbound-mutants-") as tmp:
        # two copies, each running every other mutant
        trees = [copy_tree(pathlib.Path(tmp) / name) for name in ("a", "b")]
        stale = []
        for m in MUTANTS:
            count = (trees[0] / m.file).read_text().count(m.old)
            if count != 1:
                stale.append(m)
                print(f"STALE   {m.name}: its old text occurs {count} times in {m.file}")

        nodes = list(dict.fromkeys(node for m in MUTANTS for node in m.nodes))
        base = run_nodes(trees[0], nodes)
        if base != 0:
            print(f"the unmutated tree fails its nodes (pytest exit {base}); run "
                  f"pytest on them for the details:\n  {' '.join(nodes)}")
            return 1

        live = [m for m in MUTANTS if m not in stale]
        with concurrent.futures.ThreadPoolExecutor(len(trees)) as pool:
            halves = list(pool.map(run_mutants, trees, [live[0::2], live[1::2]]))
        codes = dict(zip([m.name for m in live[0::2] + live[1::2]], halves[0] + halves[1]))
        for m in live:
            # exit 1 is "tests failed"; anything else (a collection error, no
            # test found) is not a catch by the named tests
            code = codes[m.name]
            print(f"{'caught' if code == 1 else 'MISSED'}  {m.name}  "
                  f"(pytest exit {code}: {' '.join(m.nodes)})")
        caught = sum(code == 1 for code in codes.values())
        print(f"unmutated tree passes {len(nodes)} nodes; {caught} of {len(MUTANTS)} "
              "mutants caught")
        return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
