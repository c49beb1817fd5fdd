"""Write every output of the acceptance matrix for one source tree.

    python tests/output_matrix.py TREE OUTDIR

Each case runs its commands in order, each as a fresh
``python -m slitbound.cli`` with ``PYTHONPATH=TREE/src``, in ``OUTDIR/<case>/``
as the working directory, so the files a command writes land there.  Beside
them go ``<i>.stdout``, ``<i>.stderr`` and ``<i>.exit`` for the case's i-th
command.  The matrix is:

- the six commands of README.md's ``sh`` block, run in order as one case,
  since ``estimate`` reads the frame ``simulate`` writes;
- the extra cases of ``EXTRA`` below;
- the seven ``--help`` texts: the program's and each command's.

Run it on two trees into two directories and compare them with
``diff -r OUT_A OUT_B``; a change that keeps every output shows no
difference.  The commands come from this file and the README beside it, so
both trees run the same matrix.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import pathlib
import re
import shlex
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

_NOISY_GEOMETRY = ["--slit-width", "350um", "--wavelength", "532nm", "--focal-length", "200mm"]
EXTRA = {
    "lpbound-saturated": [["lpbound", "--xi", "0.179", "32", "40", "1e300"]],
    "lpbound-negative-zero": [["lpbound", "--xi", "-0"]],
    "minstate-wide": [["minstate", "--nmax", "100000", "--slit-width", "1m"]],
    # the density tables of both slit states at widths besides the README's,
    # each command in its own directory; at 3 um m*(edge/m) overshoots the
    # momentum edge that the grid pins
    "slit-tables": [["minstate", "--slit-width", "1m", "--out", "1m"],
                    ["minstate", "--slit-width", "3um", "--out", "3um"],
                    ["lanczos", "--slit-width", "3um", "--out", "3um"]],
    "frame-noisy": [
        ["simulate", "--pixels", "2048", "--pixel-size", "7.5um", "--noise-sigma", "1e-3",
         "--quantize", "--seed", "3", *_NOISY_GEOMETRY],
        ["estimate", "frame.csv", *_NOISY_GEOMETRY],
    ],
    "frame-noiseless": [["simulate", "--pixels", "1024"], ["estimate", "frame.csv"]],
    # 2 mm pixels are 21 band-quadrature panels each in u
    "frame-wide-pixels": [["simulate", "--pixels", "64", "--pixel-size", "2mm"],
                          ["estimate", "frame.csv"]],
    # y^2 overflows, but u = scale*y stays near 2.4e5: exit 0
    "frame-huge-extent": [
        ["simulate", "--pixels", "2", "--pixel-size", "2e155m", "--focal-length", "1e153m"],
        ["estimate", "frame.csv", "--focal-length", "1e153m"],
    ],
    # the band quadrature would need 1.69e8 panels: exit 2, one stderr line
    # and no trace.csv
    "frame-band-cap": [["simulate", "--pixels", "2"],
                       ["estimate", "frame.csv", "--slit-width", "1e9mm"]],
    # each size just past a library cap, the last three past MAX_PIXELS: exit
    # 2, one stderr line and no file; the last one names --pixel-size, which
    # is parsed before the detector checks its count
    "caps": [["minstate", "--nmax", "0"], ["minstate", "--nmax", "1000001"],
             ["simulate", "--pixels", "65537"], ["simulate", "--pixels", "65538"],
             ["simulate", "--pixels", "65538", "--pixel-size", "0"]],
    # a refused value of a flag: exit 2, one stderr line naming the flag and
    # no file
    "errors": [["lpbound", "--xi", "nan"], ["reanalyze", "--a", "inf"],
               ["simulate", "--seed", "-1"], ["simulate", "--noise-sigma", "nan"]],
    "lanczos-narrow": [["lanczos", "--slit-width", "1e-160m"]],
    "lanczos-wide": [["lanczos", "--slit-width", "1e170m"]],
    # both slit commands at the float maximum, where every value they write
    # is finite: exit 0 and every file
    "float-maximum-width": [["minstate", "--slit-width", "1.7e308m"],
                            ["lanczos", "--slit-width", "1.7e308m"]],
    # at a subnormal width the position density overflows: exit 3, one
    # stderr line and no file
    "lanczos-subnormal": [["lanczos", "--slit-width", "1e-310m"]],
    # the even tables at both ends of the width range and at the fewest
    # modes, each command in its own directory, and a negative-zero noise
    # sigma, which the report echoes as +0.0
    "slit-extremes": [
        *([command, "--slit-width", width, "--out", f"{command}-{width}"]
          for width in ("1e-160m", "1.7e308m") for command in ("minstate", "lanczos")),
        ["minstate", "--nmax", "1", "--out", "nmax1"],
        ["minstate", "--nmax", "2", "--out", "nmax2"],
        # the boundary sum's signs follow the parity of n, so odd n_max at scale too
        ["minstate", "--nmax", "3", "--out", "nmax3"],
        ["minstate", "--nmax", "4095", "--out", "nmax4095"],
        ["simulate", "--noise-sigma", "-0"],
    ],
}


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``slitbound ...`` lines of README.md's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("slitbound ")]


def cases() -> dict[str, list[list[str]]]:
    readme = readme_commands()
    help_cases = {"help": [["--help"]]}
    help_cases.update({f"help-{argv[0]}": [[argv[0], "--help"]] for argv in readme})
    return {"readme": readme, **EXTRA, **help_cases}


def run_case(tree: pathlib.Path, case_dir: pathlib.Path, commands) -> list[int]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    case_dir.mkdir(parents=True)
    codes = []
    for i, argv in enumerate(commands, 1):
        done = subprocess.run([sys.executable, "-m", "slitbound.cli", *argv],
                              cwd=case_dir, env=env, capture_output=True)
        (case_dir / f"{i}.stdout").write_bytes(done.stdout)
        (case_dir / f"{i}.stderr").write_bytes(done.stderr)
        (case_dir / f"{i}.exit").write_text(f"{done.returncode}\n")
        codes.append(done.returncode)
    return codes


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tests/output_matrix.py TREE OUTDIR", file=sys.stderr)
        return 2
    tree, out = pathlib.Path(args[0]).resolve(), pathlib.Path(args[1]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"output_matrix: {out} is not empty", file=sys.stderr)
        return 2
    for name, commands in cases().items():
        codes = run_case(tree, out / name, commands)
        print(f"{name}: exit {' '.join(map(str, codes))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
