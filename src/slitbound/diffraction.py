"""4f single-slit diffraction bench: detector-plane intensity, synthetic
line-CCD frames, and the accumulative estimator of the uncertainty excess
factor gamma.

The focal-plane mapping is y/f = k/k0, so the detector samples the
wavenumber density of the prepared truncated-sinc state directly.  The
estimator expands symmetrically from the detector center,

    gamma_hat_n = (2*delta_x/(lambda*f)) * sqrt(sum_i delta_y * y_i^2 * I_i),

over pixels i = N/2-n+1 .. N/2+n of the normalized frame, and converges to
gamma (minus the off-detector tail) as n -> N/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import SlitGeometry
from .errors import InvalidArgument
from .special import LanczosState, eval_lanczos_momentum_density, lanczos_band_moments

# resolution of the line CCD's A/D converter, which quantizes a frame
ADC_BITS = 16


@dataclass(frozen=True)
class DetectorSpec:
    """Line-CCD geometry."""

    num_pixels: int
    pixel_size: float

    def __post_init__(self):
        if self.num_pixels < 2 or self.num_pixels % 2 != 0:
            raise InvalidArgument(f"num_pixels must be even and >= 2, got {self.num_pixels}")
        if not self.pixel_size > 0:
            raise InvalidArgument(f"pixel_size must be positive, got {self.pixel_size}")

    @property
    def span(self) -> float:
        return self.num_pixels * self.pixel_size

    def pixel_positions(self) -> np.ndarray:
        """Pixel centers y_i = (i - (N+1)/2) * pixel_size, i = 1..N; symmetric
        about 0 with no pixel exactly at the center."""
        i = np.arange(1, self.num_pixels + 1)
        return (i - (self.num_pixels + 1) / 2.0) * self.pixel_size


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise (sigma as a fraction of the frame peak) and
    optional quantization by the ADC_BITS A/D converter."""

    additive_sigma: float = 0.0
    seed: int = 42
    quantize: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.additive_sigma) and self.additive_sigma >= 0):
            raise InvalidArgument(
                f"additive_sigma must be finite and nonnegative, got {self.additive_sigma}"
            )
        if self.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CcdFrame:
    detector: DetectorSpec
    intensities: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.intensities, dtype=float)
        if v.shape != (self.detector.num_pixels,):
            raise InvalidArgument("intensities length must equal num_pixels")
        if np.any(v < 0):
            raise InvalidArgument("intensities must be nonnegative")
        object.__setattr__(self, "intensities", v)


@dataclass(frozen=True)
class EstimatorTrace:
    n: np.ndarray
    y_extent: np.ndarray
    gamma_hat: np.ndarray


def intensity_profile(geometry: SlitGeometry, y):
    """Detector-plane intensity density (k0/f) * |phi~(k0*y/f)|^2; even in y
    and normalized to 1 over the real line."""
    state = LanczosState(geometry.slit_width)
    k = geometry.k0 * np.asarray(y, dtype=float) / geometry.focal_length
    out = geometry.k0 / geometry.focal_length * eval_lanczos_momentum_density(k, state)
    return float(out) if np.isscalar(y) else out


def synthesize_frame(
    geometry: SlitGeometry, detector: DetectorSpec, noise: NoiseSpec = NoiseSpec()
) -> CcdFrame:
    """Sample the intensity profile at the pixel centers and apply the noise
    model: additive zero-mean Gaussian (sigma relative to the frame peak),
    optional quantization saturating at the peak, negatives clipped to 0.
    Deterministic for a fixed seed."""
    y = detector.pixel_positions()
    intens = intensity_profile(geometry, y)
    peak = float(np.max(intens))
    if noise.additive_sigma > 0:
        rng = np.random.default_rng(noise.seed)
        intens = intens + rng.normal(0.0, noise.additive_sigma * peak, size=intens.shape)
    if noise.quantize:
        levels = (1 << ADC_BITS) - 1
        dn = np.rint(np.clip(intens / peak, 0.0, 1.0) * levels)
        intens = dn * (peak / levels)
    intens = np.clip(intens, 0.0, None)
    return CcdFrame(detector=detector, intensities=intens, normalized=False)


def normalize_frame(frame: CcdFrame) -> CcdFrame:
    """Rescale so that sum(pixel_size * I_i) = 1."""
    total = float(np.sum(frame.intensities)) * frame.detector.pixel_size
    if total <= 0:
        raise InvalidArgument("cannot normalize an all-zero frame")
    return replace(frame, intensities=frame.intensities / total, normalized=True)


def gamma_trace(frame: CcdFrame, geometry: SlitGeometry) -> EstimatorTrace:
    """Accumulative estimate of the uncertainty excess factor from a
    normalized frame, expanding pixel pairs symmetrically from the center."""
    if not frame.normalized:
        raise InvalidArgument("gamma_trace requires a normalized frame")
    det = frame.detector
    N = det.num_pixels
    y = det.pixel_positions()
    terms = det.pixel_size * y**2 * frame.intensities
    half = N // 2
    # pair n (1-based) joins pixels N/2-n+1 and N/2+n
    inner = terms[half - 1 :: -1]  # center-left outward
    outer = terms[half:]           # center-right outward
    cum = np.cumsum(inner + outer)
    prefactor = 2.0 * geometry.slit_width / (geometry.wavelength * geometry.focal_length)
    gamma_hat = prefactor * np.sqrt(cum)
    n = np.arange(1, half + 1)
    # outer |y| reached after n pairs = outer edge of pixel N/2+n
    y_extent = n * det.pixel_size
    return EstimatorTrace(n=n, y_extent=y_extent, gamma_hat=gamma_hat)


def theory_trace(geometry: SlitGeometry, y_grid) -> np.ndarray:
    """Band-limited theory value of the excess factor at each outer |y|:
    (delta_x/pi) * sqrt(int_{|k| <= k0*y/f} k^2 |phi~(k)|^2 dk).
    Monotone nondecreasing with limit gamma."""
    y = np.asarray(y_grid, dtype=float)
    if y.ndim != 1 or np.any(y <= 0) or np.any(np.diff(y) <= 0):
        raise InvalidArgument("y_grid must be 1-d, positive and strictly increasing")
    state = LanczosState(geometry.slit_width)
    m2 = lanczos_band_moments(state, geometry.k0 * y / geometry.focal_length, 2)
    return geometry.slit_width / np.pi * np.sqrt(m2)
