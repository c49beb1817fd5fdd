"""Command-line surface.

Subcommands: minstate, lanczos, lpbound, reanalyze, simulate, estimate.
Every command is deterministic given its flags (fixed default seed 42) and
writes plot-ready CSV plus a strict JSON report.  A ``cmd_*`` function
computes and returns its files without writing any: a list of CSV tables
``(file name, header, columns[, comments[, even]])``, ``format_csv``'s
arguments, each column a list or an array, an even table given by its rows
i >= 0, and the report ``(file name, parameters, results, display)``.
``main`` takes the report's command from the parser, encodes every file in
memory, each table a column at a time, checking that every value is finite,
and only then writes them, the report last.  So exit 2 or 3 leaves no new
file, and a report on disk means its CSVs were written with it.  Exit codes:
0 success, 2 configuration error, 3 numeric failure, 4 I/O error.  The code
that holds a value checks it, sizes included, and ``_flag`` only names the
flag in its message.  Each command imports the compute modules it runs when
it runs, so a cold process loads, compiles and builds no other; numpy too
is imported only by the commands that compute on arrays, ``simulate`` and
``estimate``, so ``minstate``, ``lanczos``, ``lpbound`` and ``reanalyze``
run without it.  A command runs with RuntimeWarning ignored, so a failure
prints one line: a non-finite value numpy would warn of is refused on
encoding.  From the command line a command runs through ``run``: once
``main`` has written its files, it flushes stdout and stderr and ends the
process with ``os._exit``, without the interpreter's teardown, so atexit
handlers that other code registers (coverage.py's subprocess measurement,
say) do not run.  ``main`` called from Python returns its exit code.
"""

import argparse
import functools
import math
import os
import sys
import warnings

from . import InvalidArgument, NumericFailure
from .reports import atomic_write_text, format_csv, format_report, parse_length, read_frame_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULT_SLIT_WIDTH = "477um"
DEFAULT_WAVELENGTH = "632.82nm"
DEFAULT_FOCAL_LENGTH = "150mm"
DEFAULT_PIXELS = 3648
DEFAULT_PIXEL_SIZE = "8um"


def _flag(flag: str, fn, *args, **kwargs):
    """Call fn, prefixing an InvalidArgument it raises with the flag."""
    try:
        return fn(*args, **kwargs)
    except InvalidArgument as exc:
        raise InvalidArgument(f"{flag}: {exc}") from exc


def _geometry(args):
    """The SlitGeometry of the three geometry flags, and its report parameters."""
    from . import diffraction

    g = _flag(
        "--slit-width, --wavelength, --focal-length", diffraction.SlitGeometry,
        slit_width=_flag("--slit-width", parse_length, args.slit_width),
        wavelength=_flag("--wavelength", parse_length, args.wavelength),
        focal_length=_flag("--focal-length", parse_length, args.focal_length),
    )
    return g, {"slit_width_m": g.slit_width, "wavelength_m": g.wavelength,
               "focal_length_m": g.focal_length}


def _even_table(name: str, header: list, edge: float, m: int, f) -> tuple:
    """The CSV table of an even f on i*(edge/m), i = -m..m, its ends exactly -edge and edge:
    f runs on i >= 0 and format_csv mirrors the rows, so the grid is antisymmetric about 0
    and f's column even."""
    half = [i * (edge / m) for i in range(m)] + [edge]
    return name, header, [half, f(half)], None, True


def cmd_minstate(args):
    from . import core

    delta_x = _flag("--slit-width", parse_length, args.slit_width)
    state = _flag("--nmax", core.min_uncertainty_coefficients, args.nmax, delta_x)
    sigma_p = core.momentum_moments(state)
    residuals = core.verify_constraints(state)
    # cosine-state position spread: delta_x * sqrt(1/12 - 1/(2 pi^2))
    sigma_x = delta_x * math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2))
    report = core.build_report(sigma_x, sigma_p, delta_x)

    tables = [
        # c_-n is c_n bit for bit, so the table is even in n
        ("minstate_coefficients.csv", ["n", "c_n"],
         [range(state.n_max + 1), state.half], None, True),
        _even_table("minstate_position_density.csv", ["x_m", "density_per_m"], delta_x / 2, 500,
                    lambda x: [v * v for v in core.eval_position_wavefunction(x, delta_x)]),
        _even_table("minstate_momentum_density.csv", ["k_per_m", "density_m"],
                    8 * math.pi / delta_x, 1000,
                    lambda k: [v * v for v in core.eval_momentum_wavefunction(k, delta_x)]),
    ]
    return tables, (
        "minstate_report.json",
        {"slit_width_m": delta_x, "n_max": int(args.nmax), "hbar": 1.0},
        {
            **report._asdict(),
            "sigma_x_m": sigma_x,
            "parseval_residual": float(residuals.parseval),
            "boundary_residual": float(residuals.boundary),
            "truncation_warning": bool(residuals.boundary > 1e-3),
        },
        {"product_over_hbar": f"{report.product_over_hbar:.3f}"},
    )


def cmd_lanczos(args):
    from . import core, special

    delta_x = _flag("--slit-width", parse_length, args.slit_width)
    gamma = special.lanczos_gamma()
    report = core.build_report(None, gamma * math.pi / delta_x, delta_x)

    k_max = 16 * math.pi / delta_x
    # what the momentum CSV leaves out beyond |k| = k_max; the second moment's
    # bound, about 0.34/delta_x^2, is null outside widths of about 4e-155 to
    # 4e161 m, and both are nan below 2.8e-307 m, where k_max and the grid overflow
    w_tail, m2_tail = (special.lanczos_tail_bounds(delta_x, k_max) if k_max < math.inf
                       else (math.nan, math.nan))
    tables = [
        _even_table("lanczos_position_density.csv", ["x_m", "density_per_m"], delta_x / 2, 500,
                    lambda x: [v * v for v in special.eval_lanczos_position(x, delta_x)]),
        _even_table("lanczos_momentum_density.csv", ["k_per_m", "density_m"], k_max, 2000,
                    lambda k: special.eval_lanczos_momentum_density(k, delta_x)),
    ]
    return tables, (
        "lanczos_report.json",
        {"slit_width_m": delta_x, "hbar": 1.0},
        {
            **report._asdict(),
            "gamma": gamma,
            "k_max_per_m": k_max,
            "weight_tail_bound": w_tail,
            "second_moment_tail_bound": m2_tail if 0.0 < m2_tail < math.inf else None,
        },
        {
            "gamma": f"{gamma:.3f}",
            "product_over_hbar": f"{report.product_over_hbar:.3f}",
        },
    )


def cmd_lpbound(args):
    from .concentration import lp_lambda0

    results = [_flag("--xi", lp_lambda0, xi) for xi in args.xi]
    header = ["xi", "lambda0"]
    tables = [("lpbound.csv", header, [[getattr(r, f) for r in results] for f in header])]
    return tables, (
        "lpbound_report.json",
        {"xi": [r.xi for r in results]},
        # kernel_c = pi*xi/2 overflows above xi ~ 5.7e307, where lambda0 = 1
        # is still certified, and is then reported as null
        {"rows": [{**r._asdict(), "kernel_c": r.kernel_c if math.isfinite(r.kernel_c) else None}
                  for r in results]},
        {"lambda0": [f"{r.lambda0:.3f}" for r in results]},
    )


def cmd_reanalyze(args):
    from . import concentration

    rows = _flag("--a", concentration.reanalyze_products, args.a)
    header = ["a", "xi", "lambda0", "well_defined"]
    tables = [("reanalysis.csv", header, [[getattr(r, f) for r in rows] for f in header])]
    return tables, (
        "reanalysis_report.json",
        {"a": list(args.a), "threshold": concentration.WELL_DEFINED_THRESHOLD,
         "a_definition": "delta_x*delta_p/hbar, delta_p = 2*sigma_p",
         "a_threshold": 2.0 * math.pi * concentration.WELL_DEFINED_XI},
        {"rows": [r._asdict() for r in rows]},
        {
            "rows": [
                {"a": f"{r.a:.3f}", "xi": f"{r.xi:.3f}", "lambda0": f"{r.lambda0:.3f}",
                 "verdict": "well-defined" if r.well_defined else "not well-defined"}
                for r in rows
            ]
        },
    )


def cmd_simulate(args):
    import numpy as np

    from . import diffraction

    geometry, geometry_parameters = _geometry(args)
    detector = _flag("--pixels", diffraction.DetectorSpec, num_pixels=args.pixels,
                     pixel_size=_flag("--pixel-size", parse_length, args.pixel_size))
    noise = _flag("--noise-sigma", diffraction.NoiseSpec,
                  additive_sigma=args.noise_sigma, quantize=args.quantize)
    # NoiseSpec's checks again, now naming --seed
    noise = _flag("--seed", diffraction.NoiseSpec, noise.additive_sigma, args.seed, noise.quantize)
    intens = diffraction.synthesize_frame(geometry, detector, noise)
    tables = [("frame.csv", ["pixel", "y_mm", "intensity"],
               [np.arange(1, detector.num_pixels + 1), detector.pixel_positions() * 1e3, intens],
               ["normalized=false"])]
    return tables, (
        "simulate_report.json",
        {
            **geometry_parameters,
            "num_pixels": detector.num_pixels,
            "pixel_size_m": detector.pixel_size,
            "detector_span_m": detector.num_pixels * detector.pixel_size,
            "noise_sigma": noise.additive_sigma,
            "quantize": noise.quantize,
            "seed": noise.seed,
        },
        {
            "peak_intensity": float(np.max(intens)),
            "total_weight": float(np.sum(intens)) * detector.pixel_size,
        },
        None,
    )


def cmd_estimate(args):
    from . import diffraction, special

    geometry, geometry_parameters = _geometry(args)
    pixel_size, intens = read_frame_csv(args.frame)
    detector = _flag("frame", diffraction.DetectorSpec, len(intens), pixel_size)
    # theory first: it refuses too wide a band before the estimator's arithmetic
    theory = diffraction.theory_trace(geometry, detector)
    n, y_extent, gamma_hat = diffraction.gamma_trace(detector, intens.clip(0.0), geometry)
    gamma = special.lanczos_gamma()
    tables = [("trace.csv", ["n", "y_mm", "gamma_hat", "gamma_theory"],
               [n, y_extent * 1e3, gamma_hat, theory])]
    return tables, (
        "estimate_report.json",
        {"frame": os.path.basename(args.frame), **geometry_parameters},
        {
            "gamma_hat_final": float(gamma_hat[-1]),
            "gamma_theory_edge": float(theory[-1]),
            "gamma_exact": gamma,
            "exceeds_one": bool(gamma_hat[-1] > 1.0),
        },
        {
            "gamma_hat_final": f"{gamma_hat[-1]:.3f}",
            "gamma_exact": f"{gamma:.3f}",
        },
    )


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slit-width", default=DEFAULT_SLIT_WIDTH,
                   help="slit width (length with unit suffix, default %(default)s)")
    p.add_argument("--wavelength", default=DEFAULT_WAVELENGTH,
                   help="laser wavelength (default %(default)s)")
    p.add_argument("--focal-length", default=DEFAULT_FOCAL_LENGTH,
                   help="focal length of the imaging lens (default %(default)s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slitbound",
        description="Slit-state uncertainty bounds, concentration reanalysis and "
                    "4f diffraction simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minstate", help="minimum-uncertainty slit state and report")
    p.add_argument("--slit-width", default=DEFAULT_SLIT_WIDTH)
    p.add_argument("--nmax", type=int, default=4096)
    p.set_defaults(func=cmd_minstate)

    p = sub.add_parser("lanczos", help="truncated-sinc state, gamma constant and report")
    p.add_argument("--slit-width", default=DEFAULT_SLIT_WIDTH)
    p.set_defaults(func=cmd_lanczos)

    p = sub.add_parser("lpbound", help="concentration bound lambda0(xi)")
    p.add_argument("--xi", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_lpbound)

    p = sub.add_parser("reanalyze", help="reanalyze measured products a (units of hbar)")
    p.add_argument("--a", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_reanalyze)

    p = sub.add_parser("simulate", help="synthesize a CCD frame of the 4f pattern")
    _add_geometry_flags(p)
    p.add_argument("--pixels", type=int, default=DEFAULT_PIXELS)
    p.add_argument("--pixel-size", default=DEFAULT_PIXEL_SIZE)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="additive Gaussian sigma as a fraction of the frame peak")
    p.add_argument("--quantize", action="store_true")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the accumulative gamma estimator on a frame CSV")
    p.add_argument("frame", help="path to a frame CSV (pixel,y_mm,intensity)")
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_estimate)

    for p in sub.choices.values():  # last, as each help lists it last
        p.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite value is refused by the encoding checks below with one
        # message, so numpy's RuntimeWarnings about it would only add lines
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tables, (report_name, *report) = args.func(args)
        # encoding checks every value, so nothing is written unless all of it
        # passes; the report goes last, so on disk it vouches for its CSVs
        texts = [(table[0], format_csv(*table)) for table in tables]
        texts.append((report_name, format_report(args.command, *report)))
        for name, text in texts:
            atomic_write_text(os.path.join(args.out, name), text)
        return EXIT_OK
    except InvalidArgument as exc:
        print(f"slitbound: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"slitbound: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"slitbound: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """main on sys.argv, then os._exit: the teardown of every loaded module
    costs a cold command more than some of them spend computing.  OpenBLAS
    runs one thread unless the user chose a count: on a command's small
    arrays more threads cost more than they save."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where the descriptor was closed at start
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
