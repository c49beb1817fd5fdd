"""4f single-slit diffraction bench: its optics, detector-plane intensity,
synthetic line-CCD frames, and the accumulative estimator of the
uncertainty excess factor gamma.

The focal-plane mapping y/f = k/k0 samples the prepared state's wavenumber
density.  In u = delta_x*k/2 = s*y, with the fringe scale s = pi*delta_x/(lambda*f)
of ``SlitGeometry.scale``, the estimator expands symmetrically from the center,

    gamma_hat_n = (2/pi) * sqrt(sum_i u_i^2 * I_i / sum_i I_i),

over pixels i = N/2-n+1 .. N/2+n of the frame, and converges to gamma (minus
the off-detector tail) as n -> N/2; it, the frame and the theory depend on s alone.

In u every truncated-sinc state is the one of width 2, whose wavenumber is u.
``band_moments`` integrates an even function of u, u^2 times its density for
the theory trace, on the detector's pixel grid, the edges u = n*scale*pixel_size:
each pixel interval is cut into the same number of equal panels of at most
pi/2, with 8-point Gauss-Legendre on every panel, at most MAX_PANELS per call.
"""

import math

import numpy as np

from . import InvalidArgument, _number, _real, reports
from .special import eval_lanczos_momentum_density

# resolution of the line CCD's A/D converter, which quantizes a frame
ADC_BITS = 16
# at most this many band-quadrature panels (8 nodes each) in one call
MAX_PANELS = 1 << 20
# panels whose nodes are evaluated together: about 7 MB of temporaries
_BLOCK = 1 << 13
# panel width in u: a quarter period of the amplitude Si(u + pi) - Si(u - pi)
_PANEL = math.pi / 2.0

# 8-point Gauss-Legendre nodes and weights on [-1, 1]: the values of
# np.polynomial.legendre.leggauss(8)
_GL8_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
              -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
              0.7966664774136267, 0.9602898564975362)
_GL8_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                0.22238103445337443, 0.10122853629037706)


class SlitGeometry:
    """Slit width, laser wavelength and focal length of the imaging lens."""

    __slots__ = ("slit_width", "wavelength", "focal_length", "scale")

    def __init__(self, slit_width: float, wavelength: float, focal_length: float):
        for name, value in zip(self.__slots__, (slit_width, wavelength, focal_length)):
            setattr(self, name, _number(value, name))
        # the detector maps y to u = slit_width*k/2 = scale*y; lambda*f can underflow to 0
        lf = self.wavelength * self.focal_length
        self.scale = _number(math.pi * self.slit_width / lf if lf > 0 else math.inf, "scale")


class DetectorSpec:
    """Line-CCD geometry."""

    __slots__ = ("num_pixels", "pixel_size")

    def __init__(self, num_pixels: int, pixel_size: float):
        if not hasattr(type(num_pixels), "__index__"):
            raise InvalidArgument(f"num_pixels must be an integer, got {num_pixels!r}")
        if num_pixels > reports.MAX_PIXELS:
            raise InvalidArgument(f"num_pixels must be <= {reports.MAX_PIXELS}, got {num_pixels}")
        if num_pixels < 2 or num_pixels % 2 != 0:
            raise InvalidArgument(f"num_pixels must be even and >= 2, got {num_pixels}")
        self.num_pixels, self.pixel_size = num_pixels, _number(pixel_size, "pixel_size")

    def pixel_positions(self) -> np.ndarray:
        """Pixel centers y_i = (i - (N+1)/2) * pixel_size, i = 1..N; symmetric
        about 0 with no pixel exactly at the center."""
        i = np.arange(1, self.num_pixels + 1)
        return (i - (self.num_pixels + 1) / 2.0) * self.pixel_size


class NoiseSpec:
    """Additive Gaussian noise (sigma as a fraction of the frame peak) and
    optional quantization by the ADC_BITS A/D converter."""

    __slots__ = ("additive_sigma", "seed", "quantize")

    def __init__(self, additive_sigma: float = 0.0, seed: int = 42, quantize: bool = False):
        self.additive_sigma = _number(additive_sigma, "additive_sigma", strict=False)
        if not hasattr(type(seed), "__index__") or seed < 0:
            raise InvalidArgument(f"seed must be an integer >= 0, got {seed!r}")
        self.seed, self.quantize = seed, quantize


def synthesize_frame(
    geometry: SlitGeometry, detector: DetectorSpec, noise: NoiseSpec = NoiseSpec()
) -> np.ndarray:
    """The frame's intensities: the detector-plane intensity density
    s * rho(s*y), rho the width-2 state's density in u and s the scale,
    normalized to 1 over the real line, sampled at the pixel centers y with
    the noise model applied, additive zero-mean Gaussian (sigma relative to
    the frame peak), optional quantization saturating at the peak, negatives
    clipped to 0.  Deterministic for a fixed seed."""
    intens = geometry.scale * eval_lanczos_momentum_density(
        geometry.scale * detector.pixel_positions(), 2.0)
    peak = float(np.max(intens))
    if noise.additive_sigma > 0:
        rng = np.random.default_rng(noise.seed)
        intens = intens + rng.normal(0.0, noise.additive_sigma * peak, size=intens.shape)
    if noise.quantize:
        levels = (1 << ADC_BITS) - 1
        dn = np.rint(np.clip(intens / peak, 0.0, 1.0) * levels)
        intens = dn * (peak / levels)
    return np.clip(intens, 0.0, None)


def gamma_trace(
    detector: DetectorSpec, intensities, geometry: SlitGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulative estimate of the uncertainty excess factor from a frame,
    (2/pi) * sqrt(sum u_i^2 * I_i / sum I_i) with u = scale*y, expanding pixel
    pairs symmetrically from the center.  Returns (n, y_extent, gamma_hat)."""
    # the largest u^2 checked as a Python float, before arrays overflow
    u_max = geometry.scale * ((detector.num_pixels - 1) / 2.0 * detector.pixel_size)
    if not math.isfinite(u_max * u_max):
        raise InvalidArgument(f"frame extent scale*y = +-{u_max:.3g} is too large: u^2 overflows")
    v = np.asarray(_real(np.asarray(intensities), "intensities"), dtype=float)
    if v.shape != (detector.num_pixels,):
        raise InvalidArgument("intensities length must equal num_pixels")
    if not np.all((v >= 0) & np.isfinite(v)):
        raise InvalidArgument("intensities must be nonnegative and finite")
    with np.errstate(over="ignore"):  # refused below, without numpy's warning
        total = float(np.sum(v))
    if total == math.inf:
        raise InvalidArgument("cannot normalize a frame whose intensity sum overflows")
    if total <= 0:
        raise InvalidArgument("cannot normalize an all-zero frame")
    terms = (geometry.scale * detector.pixel_positions())**2 * (v / total)
    half = detector.num_pixels // 2
    # pair n (1-based) joins pixels N/2-n+1 and N/2+n
    inner = terms[half - 1 :: -1]  # center-left outward
    outer = terms[half:]           # center-right outward
    cum = np.cumsum(inner + outer)
    gamma_hat = 2.0 / np.pi * np.sqrt(cum)
    n = np.arange(1, half + 1)
    # outer |y| reached after n pairs = outer edge of pixel N/2+n
    y_extent = n * detector.pixel_size
    return n, y_extent, gamma_hat


def band_moments(f, width: float, count: int) -> np.ndarray:
    """Cumulative integrals int_{|u| <= j*width} f(u) du of the even array
    function f at the edges j*width, j = 1..count.

    Every interval is tiled by the same number of equal panels of at most
    pi/2, with 8-point Gauss-Legendre on every panel; f takes the nodes u > 0
    of up to _BLOCK panels at once, as a (panels, 8) array.
    """
    width = _number(width, "width")
    if count < 0:
        raise InvalidArgument(f"band_moments needs count >= 0, got {count}")
    per = math.ceil(width / _PANEL)
    if not count * per <= MAX_PANELS:  # a NaN or infinite count fails as well
        raise InvalidArgument(
            f"the band quadrature needs {count * per:.3g} panels of pi/slit_width, "
            f"more than {MAX_PANELS}")
    h = width / per / 2.0  # panel k: midpoint (2k+1)*h, half-width h
    panels = np.empty(count * per)
    nodes_gl, weights_gl = np.array(_GL8_NODES), np.array(_GL8_WEIGHTS)
    for b in range(0, panels.size, _BLOCK):
        mid = (2.0 * np.arange(b, min(b + _BLOCK, panels.size)) + 1.0) * h
        panels[b:b + _BLOCK] = f(mid[:, None] + h * nodes_gl) @ (h * weights_gl)
    return np.cumsum(2.0 * panels.reshape(count, per).sum(axis=1))


def theory_trace(geometry: SlitGeometry, detector: DetectorSpec) -> np.ndarray:
    """Band-limited excess factor (2/pi) * sqrt(int_{|u| <= scale*y} u^2 |phi~(u)|^2 du)
    at the outer |y| = n*pixel_size of pixel pairs n = 1..N/2, the y_extent of
    ``gamma_trace``, by ``band_moments``.  Nondecreasing with limit gamma."""
    m2 = band_moments(lambda u: u * u * eval_lanczos_momentum_density(u, 2.0),
                      geometry.scale * detector.pixel_size, detector.num_pixels // 2)
    return 2.0 / np.pi * np.sqrt(m2)
