"""Command-line surface.

Subcommands: minstate, lanczos, lpbound, reanalyze, simulate, estimate.
Every command is deterministic given its flags (fixed default seed 42) and
writes plot-ready CSV plus a schema-validated JSON report.  Exit codes:
0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import core, diffraction, reanalysis, special
from .concentration import lp_lambda0
from .errors import InvalidArgument, NumericFailure
from .reports import fmt, parse_length, read_frame_csv, write_csv, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULT_SLIT_WIDTH = "477um"
DEFAULT_WAVELENGTH = "632.82nm"
DEFAULT_FOCAL_LENGTH = "150mm"
DEFAULT_PIXELS = 3648
DEFAULT_PIXEL_SIZE = "8um"

# upper bounds checked before allocating: 2*nmax+1 modes, one frame of pixels
MAX_NMAX = 1_000_000
MAX_PIXELS = 65_536


def _length(flag: str, text: str) -> float:
    try:
        return parse_length(text)
    except InvalidArgument as exc:
        raise InvalidArgument(f"{flag}: {exc}") from exc


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise InvalidArgument(f"{flag} must be <= {cap}, got {value}")


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def _geometry(args) -> core.SlitGeometry:
    return core.SlitGeometry(
        slit_width=_length("--slit-width", args.slit_width),
        wavelength=_length("--wavelength", args.wavelength),
        focal_length=_length("--focal-length", args.focal_length),
    )


def cmd_minstate(args) -> int:
    delta_x = _length("--slit-width", args.slit_width)
    if args.nmax < 1:
        raise InvalidArgument(f"--nmax must be >= 1, got {args.nmax}")
    _check_cap("--nmax", args.nmax, MAX_NMAX)
    units = core.UnitsConvention()
    state = core.min_uncertainty_coefficients(args.nmax, delta_x)
    _, sigma_p = core.momentum_moments(state, units)
    residuals = core.verify_constraints(state)
    # cosine-state position spread: delta_x * sqrt(1/12 - 1/(2 pi^2))
    sigma_x = delta_x * np.sqrt(1.0 / 12.0 - 1.0 / (2.0 * np.pi**2))
    report = core.build_report(sigma_x, sigma_p, delta_x, units)

    n = state.n_values
    write_csv(
        _out_path(args, "minstate_coefficients.csv"),
        ["n", "c_n"],
        zip(n.tolist(), state.coefficients.real.tolist()),
    )
    x = np.linspace(-delta_x / 2, delta_x / 2, 1001)
    psi = core.eval_position_wavefunction(x, delta_x)
    write_csv(
        _out_path(args, "minstate_position_density.csv"),
        ["x_m", "density_per_m"],
        zip(x.tolist(), (psi**2).tolist()),
    )
    k = np.linspace(-8 * np.pi / delta_x, 8 * np.pi / delta_x, 2001)
    psik = core.eval_momentum_wavefunction(k, delta_x)
    write_csv(
        _out_path(args, "minstate_momentum_density.csv"),
        ["k_per_m", "density_m"],
        zip(k.tolist(), (psik**2).tolist()),
    )
    write_report(
        _out_path(args, "minstate_report.json"),
        {
            "command": "minstate",
            "parameters": {"slit_width_m": delta_x, "n_max": int(args.nmax), "hbar": units.hbar},
            "results": {
                "sigma_x_m": sigma_x,
                "sigma_p": sigma_p,
                "delta_p": report.delta_p,
                "product_over_hbar": report.product_over_hbar,
                "verdicts": report.verdicts,
                "parseval_residual": float(residuals.parseval),
                "boundary_residual": float(residuals.boundary),
                "truncation_warning": bool(residuals.boundary > 1e-3),
            },
            "display": {"product_over_hbar": f"{report.product_over_hbar:.3f}"},
        },
    )
    return EXIT_OK


def cmd_lanczos(args) -> int:
    delta_x = _length("--slit-width", args.slit_width)
    units = core.UnitsConvention()
    state = special.LanczosState(delta_x)
    gamma = special.lanczos_gamma()
    sigma_p = gamma * np.pi * units.hbar / delta_x
    report = core.build_report(None, sigma_p, delta_x, units)

    x = np.linspace(-delta_x / 2, delta_x / 2, 1001)
    phi = special.eval_lanczos_position(x, state)
    write_csv(
        _out_path(args, "lanczos_position_density.csv"),
        ["x_m", "density_per_m"],
        zip(x.tolist(), (phi**2).tolist()),
    )
    k = np.linspace(-16 * np.pi / delta_x, 16 * np.pi / delta_x, 4001)
    dens = special.eval_lanczos_momentum_density(k, state)
    write_csv(
        _out_path(args, "lanczos_momentum_density.csv"),
        ["k_per_m", "density_m"],
        zip(k.tolist(), dens.tolist()),
    )
    write_report(
        _out_path(args, "lanczos_report.json"),
        {
            "command": "lanczos",
            "parameters": {"slit_width_m": delta_x, "hbar": units.hbar},
            "results": {
                "gamma": gamma,
                "sigma_p": sigma_p,
                "delta_p": report.delta_p,
                "product_over_hbar": report.product_over_hbar,
                "verdicts": report.verdicts,
            },
            "display": {
                "gamma": f"{gamma:.3f}",
                "product_over_hbar": f"{report.product_over_hbar:.3f}",
            },
        },
    )
    return EXIT_OK


def cmd_lpbound(args) -> int:
    results = [lp_lambda0(xi) for xi in args.xi]
    write_csv(
        _out_path(args, "lpbound.csv"),
        ["xi", "lambda0"],
        [(r.xi, r.lambda0) for r in results],
    )
    write_report(
        _out_path(args, "lpbound_report.json"),
        {
            "command": "lpbound",
            "parameters": {"xi": list(args.xi)},
            "results": {
                "rows": [
                    {"xi": r.xi, "kernel_c": r.kernel_c, "lambda0": r.lambda0,
                     "tail": r.tail}
                    for r in results
                ]
            },
            "display": {
                "lambda0": [f"{r.lambda0:.3f}" for r in results],
            },
        },
    )
    return EXIT_OK


def cmd_reanalyze(args) -> int:
    rows = reanalysis.reanalyze_products(args.a)
    write_csv(
        _out_path(args, "reanalysis.csv"),
        ["a", "xi", "lambda0", "well_defined"],
        [(r.a, r.xi, r.lambda0, r.well_defined) for r in rows],
    )
    write_report(
        _out_path(args, "reanalysis_report.json"),
        {
            "command": "reanalyze",
            "parameters": {"a": list(args.a), "threshold": 0.70},
            "results": {
                "rows": [
                    {"a": r.a, "xi": r.xi, "lambda0": r.lambda0,
                     "well_defined": r.well_defined}
                    for r in rows
                ]
            },
            "display": {
                "rows": [
                    {"a": f"{r.a:.3f}", "xi": f"{r.xi:.3f}", "lambda0": f"{r.lambda0:.3f}",
                     "verdict": "well-defined" if r.well_defined else "not well-defined"}
                    for r in rows
                ]
            },
        },
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    geometry = _geometry(args)
    _check_cap("--pixels", args.pixels, MAX_PIXELS)
    detector = diffraction.DetectorSpec(
        num_pixels=args.pixels,
        pixel_size=_length("--pixel-size", args.pixel_size),
    )
    noise = diffraction.NoiseSpec(
        additive_sigma=args.noise_sigma, seed=args.seed, quantize=args.quantize
    )
    frame = diffraction.synthesize_frame(geometry, detector, noise)
    y = detector.pixel_positions()
    write_csv(
        _out_path(args, "frame.csv"),
        ["pixel", "y_mm", "intensity"],
        zip(range(1, detector.num_pixels + 1), (y * 1e3).tolist(),
            frame.intensities.tolist()),
        comments=[f"normalized={'true' if frame.normalized else 'false'}"],
    )
    write_report(
        _out_path(args, "simulate_report.json"),
        {
            "command": "simulate",
            "parameters": {
                "slit_width_m": geometry.slit_width,
                "wavelength_m": geometry.wavelength,
                "focal_length_m": geometry.focal_length,
                "num_pixels": detector.num_pixels,
                "pixel_size_m": detector.pixel_size,
                "detector_span_m": detector.span,
                "noise_sigma": noise.additive_sigma,
                "quantize": noise.quantize,
                "seed": noise.seed,
            },
            "results": {
                "peak_intensity": float(np.max(frame.intensities)),
                "total_weight": float(np.sum(frame.intensities)) * detector.pixel_size,
            },
        },
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    geometry = _geometry(args)
    y, intens, _ = read_frame_csv(args.frame)
    y = np.asarray(y)
    intens = np.asarray(intens)
    if len(y) < 2:
        raise InvalidArgument("frame must have at least two pixels")
    # y_mm keeps 9 significant digits, so each y is within 5e-9*max|y| of its
    # true value: each spacing within 1e-8*max|y| of the true pitch, and the
    # span over N-1 within 1e-8*max|y|/(N-1)
    pixel_size = float((y[-1] - y[0]) / (len(y) - 1))
    if pixel_size <= 0 or np.any(np.abs(np.diff(y) - pixel_size) > 2e-8 * np.max(np.abs(y))):
        raise InvalidArgument("frame pixels must be uniformly spaced")
    detector = diffraction.DetectorSpec(num_pixels=len(y), pixel_size=pixel_size)
    frame = diffraction.normalize_frame(
        diffraction.CcdFrame(detector=detector, intensities=np.clip(intens, 0.0, None))
    )
    trace = diffraction.gamma_trace(frame, geometry)
    theory = diffraction.theory_trace(geometry, trace.y_extent)
    write_csv(
        _out_path(args, "trace.csv"),
        ["n", "y_mm", "gamma_hat", "gamma_theory"],
        zip(trace.n.tolist(), (trace.y_extent * 1e3).tolist(),
            trace.gamma_hat.tolist(), theory.tolist()),
    )
    gamma = special.lanczos_gamma()
    write_report(
        _out_path(args, "estimate_report.json"),
        {
            "command": "estimate",
            "parameters": {
                "frame": os.path.basename(args.frame),
                "slit_width_m": geometry.slit_width,
                "wavelength_m": geometry.wavelength,
                "focal_length_m": geometry.focal_length,
            },
            "results": {
                "gamma_hat_final": float(trace.gamma_hat[-1]),
                "gamma_theory_edge": float(theory[-1]),
                "gamma_exact": gamma,
                "exceeds_one": bool(trace.gamma_hat[-1] > 1.0),
            },
            "display": {
                "gamma_hat_final": f"{trace.gamma_hat[-1]:.3f}",
                "gamma_exact": f"{gamma:.3f}",
            },
        },
    )
    return EXIT_OK


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slit-width", default=DEFAULT_SLIT_WIDTH,
                   help="slit width (length with unit suffix, default %(default)s)")
    p.add_argument("--wavelength", default=DEFAULT_WAVELENGTH,
                   help="laser wavelength (default %(default)s)")
    p.add_argument("--focal-length", default=DEFAULT_FOCAL_LENGTH,
                   help="focal length of the imaging lens (default %(default)s)")


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
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_minstate)

    p = sub.add_parser("lanczos", help="truncated-sinc state, gamma constant and report")
    p.add_argument("--slit-width", default=DEFAULT_SLIT_WIDTH)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_lanczos)

    p = sub.add_parser("lpbound", help="concentration bound lambda0(xi)")
    p.add_argument("--xi", type=float, nargs="+", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_lpbound)

    p = sub.add_parser("reanalyze", help="reanalyze measured products a (units of hbar)")
    p.add_argument("--a", type=float, nargs="+", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_reanalyze)

    p = sub.add_parser("simulate", help="synthesize a CCD frame of the 4f pattern")
    _add_geometry_flags(p)
    p.add_argument("--pixels", type=int, default=DEFAULT_PIXELS)
    p.add_argument("--pixel-size", default=DEFAULT_PIXEL_SIZE)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="additive Gaussian sigma as a fraction of the frame peak")
    p.add_argument("--quantize", action="store_true")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the accumulative gamma estimator on a frame CSV")
    p.add_argument("frame", help="path to a frame CSV (pixel,y_mm,intensity)")
    _add_geometry_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgument as exc:
        print(f"slitbound: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"slitbound: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"slitbound: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
