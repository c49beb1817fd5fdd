"""4f single-slit diffraction bench: detector-plane intensity, synthetic
line-CCD frames, and the accumulative estimator of the uncertainty excess
factor gamma.

The focal-plane mapping y/f = k/k0 samples the prepared state's wavenumber
density.  In u = delta_x*k/2 = s*y, with the fringe scale s = pi*delta_x/(lambda*f)
of ``SlitGeometry.scale``, the estimator expands symmetrically from the center,

    gamma_hat_n = (2/pi) * sqrt(sum_i u_i^2 * I_i / sum_i I_i),

over pixels i = N/2-n+1 .. N/2+n of the frame, and converges to gamma (minus
the off-detector tail) as n -> N/2; it and the theory depend on s alone.

In u every truncated-sinc state is the one of width 2, whose wavenumber is u.
``band_moments`` integrates its density for the theory trace: 8-point
Gauss-Legendre on panels of pi/2 in u, at most MAX_PANELS of them per call.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SlitGeometry
from .errors import InvalidArgument
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


class DetectorSpec:
    """Line-CCD geometry."""

    __slots__ = ("num_pixels", "pixel_size")

    def __init__(self, num_pixels: int, pixel_size: float):
        if num_pixels < 2 or num_pixels % 2 != 0:
            raise InvalidArgument(f"num_pixels must be even and >= 2, got {num_pixels}")
        if not pixel_size > 0:
            raise InvalidArgument(f"pixel_size must be positive, got {pixel_size}")
        self.num_pixels, self.pixel_size = num_pixels, pixel_size

    @property
    def span(self) -> float:
        return self.num_pixels * self.pixel_size

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
        if not (np.isfinite(additive_sigma) and additive_sigma >= 0):
            raise InvalidArgument(
                f"additive_sigma must be finite and nonnegative, got {additive_sigma}"
            )
        if seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {seed}")
        self.additive_sigma, self.seed, self.quantize = additive_sigma, seed, quantize


def synthesize_frame(
    geometry: SlitGeometry, detector: DetectorSpec, noise: NoiseSpec = NoiseSpec()
) -> np.ndarray:
    """The frame's intensities: the detector-plane intensity density
    (k0/f) * |phi~(k0*y/f)|^2, normalized to 1 over the real line, sampled at
    the pixel centers y with the noise model applied, additive zero-mean
    Gaussian (sigma relative to the frame peak), optional quantization
    saturating at the peak, negatives clipped to 0.  Deterministic for a
    fixed seed."""
    k = geometry.k0 * detector.pixel_positions() / geometry.focal_length
    intens = geometry.k0 / geometry.focal_length * eval_lanczos_momentum_density(
        k, geometry.slit_width)
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
    v = np.asarray(intensities, dtype=float)
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


def band_moments(u_edges, power: int) -> np.ndarray:
    """Cumulative band moments int_{|u| <= u_j} |u|^power * density(u) du of
    the width-2 truncated-sinc state, for every edge u_j of a nondecreasing
    array of nonnegative edges.

    Each interval [u_{j-1}, u_j] (with u_{-1} = 0) is tiled by equal panels
    of at most pi/2, with 8-point Gauss-Legendre on every panel.
    """
    hi = np.asarray(u_edges, dtype=float)
    lo = np.concatenate([[0.0], hi.ravel()[:-1]])
    if hi.ndim != 1 or not np.all(np.isfinite(hi)) or np.any(hi < lo):
        raise InvalidArgument("u_edges must be 1-d, finite, nonnegative and nondecreasing")
    npanel = np.maximum(1.0, np.ceil((hi - lo) / _PANEL))
    # counted as floats, so that a count past the integers is caught too
    _check_panels(float(np.sum(npanel)))
    npanel = npanel.astype(int)
    # panel i of interval j spans lo_j + [i, i+1]*step_j, the last one ending
    # exactly at hi_j (the edges np.linspace would give)
    j = np.repeat(np.arange(hi.size), npanel)
    first = np.cumsum(npanel) - npanel
    i = np.arange(j.size) - first[j]
    step = ((hi - lo) / npanel)[j]
    left = i * step + lo[j]
    right = np.where(i + 1 == npanel[j], hi[j], (i + 1) * step + lo[j])
    half = (right - left) / 2.0
    mid = (left + right) / 2.0
    panels = np.empty(j.size)
    nodes_gl, weights_gl = np.array([_GL8_NODES]), np.array([_GL8_WEIGHTS])
    for b in range(0, j.size, _BLOCK):
        h = half[b:b + _BLOCK, None]
        nodes = mid[b:b + _BLOCK, None] + h * nodes_gl
        vals = nodes**power * eval_lanczos_momentum_density(nodes, 2.0)
        # one BLAS dot product per panel, summed the way np.dot sums one panel
        panels[b:b + _BLOCK] = np.matmul((h * weights_gl)[:, None, :],
                                         vals[:, :, None])[:, 0, 0]
    return np.cumsum(2.0 * np.add.reduceat(panels, first))


def _check_panels(total: float) -> None:
    # a NaN or infinite count fails the comparison as well
    if not total <= MAX_PANELS:
        raise InvalidArgument(
            f"the band quadrature needs {total:.3g} panels of pi/slit_width, "
            f"more than {MAX_PANELS}")


def theory_trace(geometry: SlitGeometry, y_grid) -> np.ndarray:
    """Band-limited excess factor (2/pi) * sqrt(int_{|u| <= scale*y} u^2 |phi~(u)|^2 du) at
    each outer |y|, by ``band_moments``.  Nondecreasing with limit gamma."""
    y = np.asarray(y_grid, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)) or np.any(y <= 0) or np.any(np.diff(y) <= 0):
        raise InvalidArgument("y_grid must be 1-d, finite, positive and strictly increasing")
    # the band edge as a Python float, so inf is refused before any array holds it
    _check_panels(geometry.scale * float(y.max(initial=0.0)) / _PANEL)
    return 2.0 / np.pi * np.sqrt(band_moments(geometry.scale * y, 2))
