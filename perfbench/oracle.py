"""Reference mathematics for the output checks, written apart from slitbound.

Nothing here imports the package under test.  The sine integral comes from
composite Gauss-Legendre quadrature of sin(t)/t, the truncated-sinc momentum
amplitude from its defining Fourier integral (reduced to Si in closed form
and cross-checked against direct quadrature by ``selfcheck.py``), and the
band second moment from an independent panelling of k^2 |phi~(k)|^2.
"""

from __future__ import annotations

import math

import numpy as np

# Si(2*pi) as tabulated in the literature (Abramowitz & Stegun, table 5.1 to
# 18 digits); used only for the gamma check, never fed to the quadrature.
SI_2PI_LITERATURE = 1.41815157613262845
GAMMA_EXACT = (2.0 / math.sqrt(3.0)) * math.sqrt(1.0 - 1.0 / (math.pi * SI_2PI_LITERATURE))

# Rounding-level slack for lambda0: the grid-400 eigensolve is good to ~1e-13
# and today's values at xi = 30..200 sit up to 7e-14 above 1.
LAMBDA_TOL = 1e-12
WELL_DEFINED_THRESHOLD = 0.70

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _sinc(t):
    return np.sinc(np.asarray(t, dtype=float) / np.pi)


def sine_integral(x):
    """Si(x) by 20-point Gauss-Legendre on unit panels, cumulated; odd in x."""
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    m = np.floor(ax)
    top = int(m.max()) if m.size else 0
    edges = np.arange(top + 1, dtype=float)
    # Si at the integer panel edges
    nodes = edges[:-1, None] + 0.5 * (_GL_X[None, :] + 1.0)
    panel = 0.5 * (_sinc(nodes) @ _GL_W)
    at_edges = np.concatenate([[0.0], np.cumsum(panel)])
    # the partial panel [m, |x|]
    half = 0.5 * (ax - m)
    part = half[..., None] * _sinc(m[..., None] + half[..., None] * (_GL_X + 1.0))
    si = at_edges[m.astype(int)] + part @ _GL_W
    return np.sign(xa) * si


SI_2PI = float(sine_integral(2.0 * np.pi))


def momentum_bracket(u):
    """Si(u+pi) - Si(u-pi): the Fourier integral of the truncated sinc,
    int_{-pi}^{pi} sin(t)/t cos(u t/pi) dt, at u = k*delta_x/2."""
    u = np.asarray(u, dtype=float)
    return sine_integral(u + np.pi) - sine_integral(u - np.pi)


def momentum_density(k, slit_width: float):
    """|phi~(k)|^2 of the normalized truncated-sinc state."""
    u = np.asarray(k, dtype=float) * slit_width / 2.0
    return slit_width / (8.0 * np.pi**2 * SI_2PI) * momentum_bracket(u) ** 2


def theory_gamma(u_edge: float) -> float:
    """(delta_x/pi) sqrt(int_{|k| <= K} k^2 |phi~|^2 dk) with u_edge = K*delta_x/2.

    In u the moment is (2/(pi^2 Si(2pi) delta_x^2)) int_0^U u^2 bracket^2 du,
    so the value is independent of delta_x; unit panels in u, 20 nodes each.
    """
    npanel = max(1, int(math.ceil(u_edge)))
    edges = np.linspace(0.0, u_edge, npanel + 1)
    half = np.diff(edges)[:, None] / 2.0
    u = (edges[:-1, None] + edges[1:, None]) / 2.0 + half * _GL_X[None, :]
    integral = float(np.sum(half * _GL_W[None, :] * u**2 * momentum_bracket(u) ** 2))
    return math.sqrt(2.0 * integral / SI_2PI) / np.pi**2


def constant_trial_quotient(xi: float) -> float:
    """Rayleigh quotient of the constant on [-1, 1] for the sinc kernel,
    (2/pi)[Si(2c) - (1 - cos 2c)/(2c)], c = pi*xi/2: a lower bound on lambda0."""
    c = np.pi * xi / 2.0
    if c == 0.0:
        return 0.0
    return float(2.0 / np.pi * (sine_integral(2.0 * c) - (1.0 - np.cos(2.0 * c)) / (2.0 * c)))


def lambda0_problems(pairs) -> list[str]:
    """Checks on (xi, lambda0, well_defined-or-None) triples; returns the
    violations found, an empty list when every triple passes."""
    bad = []
    for xi, lam, verdict in pairs:
        upper = min(1.0, xi)  # trace of the operator is 2c/pi = xi
        if not (-LAMBDA_TOL <= lam <= upper + LAMBDA_TOL):
            bad.append(f"lambda0({xi!r}) = {lam!r} outside [0, min(1, xi)]")
        lower = constant_trial_quotient(xi)
        if lam < lower - LAMBDA_TOL:
            bad.append(f"lambda0({xi!r}) = {lam!r} below the trial quotient {lower!r}")
        if verdict is not None and verdict != (lam >= WELL_DEFINED_THRESHOLD):
            bad.append(f"well_defined at xi={xi!r} is {verdict} for lambda0 {lam!r}")
    ordered = sorted(pairs)
    for (x0, l0, _), (x1, l1, _) in zip(ordered, ordered[1:]):
        if l1 < l0 - LAMBDA_TOL:
            bad.append(f"lambda0 decreases from xi={x0!r} ({l0!r}) to xi={x1!r} ({l1!r})")
    return bad


def read_csv(path: str):
    """Header and float rows of a slitbound CSV, skipping '#' comment lines."""
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([_cell(v) for v in line.split(",")])
    return header, rows


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def estimator_trace(y, intensity, slit_width, wavelength, focal_length):
    """gamma_hat_n by its defining sum over the frame normalized on the
    detector: (2 dx/(lambda f)) sqrt(sum_{pairs<=n} dy y_i^2 I_i)."""
    y = np.asarray(y, dtype=float)
    intensity = np.clip(np.asarray(intensity, dtype=float), 0.0, None)
    dy = float(np.median(np.diff(y)))
    weights = intensity / (np.sum(intensity) * dy)
    terms = dy * y**2 * weights
    half = y.size // 2
    pairs = terms[half - 1::-1] + terms[half:]
    return 2.0 * slit_width / (wavelength * focal_length) * np.sqrt(np.cumsum(pairs))


def frame_problems(frame_csv: str, trace_csv: str, report: dict, spec: dict) -> list[str]:
    """Independent checks of one simulate+estimate pass.

    ``spec`` holds the inputs the benchmark generated: slit_width, wavelength
    and focal_length in meters, pixels, noise_sigma and quantize.
    """
    bad = []
    dx, lam, f = spec["slit_width"], spec["wavelength"], spec["focal_length"]
    _, frame = read_csv(frame_csv)
    frame = np.asarray(frame, dtype=float)
    y = frame[:, 1] * 1e-3
    intensity = frame[:, 2]
    if frame.shape[0] != spec["pixels"]:
        return [f"frame has {frame.shape[0]} pixels, expected {spec['pixels']}"]
    header, trace = read_csv(trace_csv)
    if header != ["n", "y_mm", "gamma_hat", "gamma_theory"]:
        return [f"trace.csv header {header}"]
    trace = np.asarray(trace, dtype=float)
    gamma_hat, theory = trace[:, 2], trace[:, 3]

    own_hat = estimator_trace(y, intensity, dx, lam, f)
    if not np.allclose(gamma_hat, own_hat, rtol=2e-8, atol=1e-12):
        worst = float(np.max(np.abs(gamma_hat - own_hat)))
        bad.append(f"gamma_hat differs from the defining sum by up to {worst:.3e}")

    if np.any(np.diff(theory) < -1e-8) or theory[-1] > GAMMA_EXACT * (1 + 1e-8):
        bad.append("theory trace is not nondecreasing and <= gamma")
    k0 = 2.0 * np.pi / lam
    u_edge = dx / 2.0 * k0 * trace[-1, 1] * 1e-3 / f
    own_edge = theory_gamma(u_edge)
    if abs(theory[-1] - own_edge) > 2e-8:
        bad.append(f"theory edge {theory[-1]!r} against quadrature {own_edge!r}")

    if spec["noise_sigma"] == 0.0:
        own_intensity = k0 / f * momentum_density(k0 * y / f, dx)
        peak = float(np.max(own_intensity))
        step = peak / 65535 if spec["quantize"] else 0.0
        excess = float(np.max(np.abs(intensity - own_intensity))) - 0.5 * step
        if excess > 1e-8 * peak:
            bad.append(f"noiseless frame departs from |phi~|^2 by {excess:.3e} beyond quantization")
        if not spec["quantize"]:
            # the estimator is a midpoint sum of the same integrand: its gap to
            # the band integral is the pixel-discretisation error, predicted here
            own_gap = float(estimator_trace(y, own_intensity, dx, lam, f)[-1]) - own_edge
            gap = float(gamma_hat[-1] - theory[-1])
            if abs(gap - own_gap) > 5e-8:
                bad.append(f"edge gap gamma_hat - theory = {gap:.3e}, "
                           f"pixel discretisation predicts {own_gap:.3e}")

    results = report.get("results", {})
    if abs(results.get("gamma_exact", 0.0) - GAMMA_EXACT) > 1e-12:
        bad.append(f"estimate report gamma_exact {results.get('gamma_exact')!r}")
    if abs(results.get("gamma_hat_final", np.nan) - own_hat[-1]) > 2e-8 * own_hat[-1]:
        bad.append("estimate report gamma_hat_final does not match the trace")
    return bad


def minstate_problems(report: dict) -> list[str]:
    """product_over_hbar of the truncated cosine state is <= pi and within the
    truncation tail of pi: with T2 = sum_{|n|>N} n^2 |c_n|^2 <= 16/(9 pi^2 N)
    the product is at least pi * sqrt(1 - 4*T2)."""
    n_max = report["parameters"]["n_max"]
    product = report["results"]["product_over_hbar"]
    lower = np.pi * math.sqrt(1.0 - 64.0 / (9.0 * np.pi**2 * n_max))
    if not lower <= product <= np.pi * (1 + 1e-12):
        return [f"minstate product {product!r} outside [{lower!r}, pi]"]
    return []
