"""Fourier basis on a slit interval, the minimum-uncertainty state and
standard-deviation inequality checks.

A particle prepared by a slit of width ``delta_x`` lives on the interval
[-delta_x/2, delta_x/2].  The momentum point-spectrum on that interval is
p_n = hbar * 2*pi*n/delta_x, and any slit state is a coefficient vector c_n
over those modes.  The variational minimum of sigma_p subject to
normalization and a vanishing boundary amplitude is the half-period cosine
state; its coefficients and moments are provided here together with the
inequality verdicts (Kennard, delta_x * delta_p against 2 hbar and h, and
the sharp bound sigma_p * delta_x >= pi * hbar).  Units are natural,
hbar = 1, so a momentum is a wavenumber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


@dataclass(frozen=True)
class SlitGeometry:
    """Slit width, laser wavelength and focal length of the imaging lens."""

    slit_width: float
    wavelength: float
    focal_length: float

    def __post_init__(self):
        for name in ("slit_width", "wavelength", "focal_length"):
            if not getattr(self, name) > 0:
                raise InvalidArgument(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def k0(self) -> float:
        """Vacuum wavenumber 2*pi/wavelength."""
        return 2.0 * np.pi / self.wavelength


class FourierState:
    """Slit state as a truncated coefficient vector c_n, n = -n_max..n_max.

    Coefficients are renormalized at construction so that sum |c_n|^2 = 1
    holds to machine precision (Parseval).
    """

    def __init__(self, slit_width: float, coefficients):
        if not slit_width > 0:
            raise InvalidArgument(f"slit_width must be positive, got {slit_width}")
        c = np.asarray(coefficients, dtype=complex).copy()
        if c.ndim != 1 or c.size % 2 == 0 or c.size < 3:
            raise InvalidArgument(
                "coefficients must be a 1-d odd-length vector covering n=-n_max..n_max "
                "with n_max >= 1"
            )
        norm2 = float(np.sum(np.abs(c) ** 2))
        if norm2 == 0.0:
            raise InvalidArgument("cannot normalize a zero coefficient vector")
        c /= np.sqrt(norm2)
        self.slit_width = float(slit_width)
        self.coefficients = c
        self.coefficients.setflags(write=False)

    @property
    def n_max(self) -> int:
        return (self.coefficients.size - 1) // 2

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)


@dataclass(frozen=True)
class UncertaintyReport:
    """Uncertainty measures and inequality verdicts, products in units of hbar."""

    sigma_p: float
    delta_x: float
    delta_p: float
    product_over_hbar: float
    verdicts: dict
    sigma_x: float | None = None


def min_uncertainty_coefficients(n_max: int, delta_x: float) -> FourierState:
    """Coefficients of the variational minimum-uncertainty slit state.

    c_n is proportional to (-1)^n / (1 - 4 n^2), renormalized after
    truncation at |n| <= n_max.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise InvalidArgument(f"n_max must be an integer >= 1, got {n_max!r}")
    n = np.arange(-n_max, n_max + 1)
    c = (np.sqrt(8.0) / np.pi) * (-1.0) ** n / (1.0 - 4.0 * n.astype(float) ** 2)
    return FourierState(delta_x, c)


def momentum_moments(state: FourierState):
    """Mean and standard deviation of momentum from the coefficient series.

    Returns (mean, sigma_p) with mean = (2*pi/delta_x) * sum n |c_n|^2.
    """
    w = np.abs(state.coefficients) ** 2
    if abs(np.sum(w) - 1.0) > 1e-8:
        raise InvalidArgument("state does not satisfy Parseval within tolerance")
    n = state.n_values.astype(float)
    scale = 2.0 * np.pi / state.slit_width
    m1 = float(np.dot(n, w))
    m2 = float(np.dot(n * n, w))
    var = m2 - m1 * m1
    mean = scale * m1
    sigma_p = scale * np.sqrt(max(var, 0.0))
    return mean, sigma_p


def eval_position_wavefunction(x, delta_x: float):
    """Half-period cosine amplitude sqrt(2/delta_x) * cos(pi*x/delta_x).

    Defined only inside the slit; |x| > delta_x/2 is a domain error.
    """
    if not delta_x > 0:
        raise InvalidArgument(f"delta_x must be positive, got {delta_x}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > delta_x / 2 * (1 + 1e-12)):
        raise InvalidArgument("x outside the slit: the prepared state vanishes there")
    out = np.sqrt(2.0 / delta_x) * np.cos(np.pi * xa / delta_x)
    return float(out) if np.isscalar(x) else out


def eval_momentum_wavefunction(k, delta_x: float):
    """Wavenumber-space amplitude of the minimum-uncertainty state.

    2*sqrt(pi*delta_x) * cos(delta_x*k/2) / (pi^2 - delta_x^2 k^2), with the
    removable singularities at delta_x*k = +/- pi evaluated by their finite
    limit sqrt(delta_x/pi)/2.
    """
    if not delta_x > 0:
        raise InvalidArgument(f"delta_x must be positive, got {delta_x}")
    u = np.asarray(k, dtype=float) * delta_x
    amp = 2.0 * np.sqrt(np.pi * delta_x)
    near = np.minimum(np.abs(u - np.pi), np.abs(u + np.pi)) < 1e-4
    safe = np.where(near, 0.0, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.cos(safe / 2.0) / (np.pi**2 - safe**2)
    # near u = +/- pi: with s = |u| - pi, cos(u/2)/(pi^2-u^2) = sin(s/2)/(s*(2*pi+s))
    s = np.abs(u) - np.pi
    limit = 0.5 * np.sinc(s / (2.0 * np.pi)) / (2.0 * np.pi + s)
    out = amp * np.where(near, limit, direct)
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class ConstraintResiduals:
    parseval: float
    boundary: float


def verify_constraints(state: FourierState) -> ConstraintResiduals:
    """Residuals of the two slit-state constraints.

    parseval = |sum |c_n|^2 - 1|; boundary = |sum (-1)^n conj(c_n)|, the
    amplitude left at the slit edges.
    """
    c = state.coefficients
    n = state.n_values
    parseval = abs(float(np.sum(np.abs(c) ** 2)) - 1.0)
    boundary = abs(np.sum((-1.0) ** n * np.conj(c)))
    return ConstraintResiduals(parseval=parseval, boundary=float(boundary))


def build_report(sigma_x: float | None, sigma_p: float, delta_x: float) -> UncertaintyReport:
    """Assemble the uncertainty products and all inequality verdicts.

    delta_p = 2*sigma_p by definition; the product reported is
    sigma_p * delta_x / hbar so the sharp bound reads product >= pi.
    """
    if sigma_p < 0 or (sigma_x is not None and sigma_x < 0):
        raise InvalidArgument("standard deviations must be nonnegative")
    if not delta_x > 0:
        raise InvalidArgument(f"delta_x must be positive, got {delta_x}")
    delta_p = 2.0 * sigma_p
    product = sigma_p * delta_x
    verdicts = {
        "sigma_p_delta_x_gt_hbar": bool(product > 1.0),
        "sigma_p_delta_x_ge_pi_hbar": bool(product >= np.pi),
        "delta_x_delta_p_gt_2hbar": bool(delta_x * delta_p > 2.0),
        "delta_x_delta_p_ge_2pi_hbar": bool(delta_x * delta_p >= 2.0 * np.pi),
    }
    if sigma_x is not None:
        verdicts["kennard"] = bool(sigma_x * sigma_p >= 0.5)
    return UncertaintyReport(
        sigma_x=sigma_x,
        sigma_p=sigma_p,
        delta_x=delta_x,
        delta_p=delta_p,
        product_over_hbar=product,
        verdicts=verdicts,
    )
