"""Fourier basis on a slit interval, the minimum-uncertainty state and
standard-deviation inequality checks.

A particle prepared by a slit of width ``delta_x`` lives on the interval
[-delta_x/2, delta_x/2].  The momentum point-spectrum on that interval is
p_n = hbar * 2*pi*n/delta_x, and any slit state is a coefficient vector c_n
over those modes.  The variational minimum of sigma_p subject to
normalization and a vanishing boundary amplitude is the half-period cosine
state; its coefficients and moments are provided here together with the
inequality verdicts (Kennard, Popoviciu-derived, and the sharp bound
sigma_p * delta_x >= pi * hbar).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, NumericFailure

PARSEVAL_TOL = 1e-10


@dataclass(frozen=True)
class UnitsConvention:
    """Action-unit convention; hbar = 1 gives natural units."""

    hbar: float = 1.0

    def __post_init__(self):
        if not self.hbar > 0:
            raise InvalidArgument(f"hbar must be positive, got {self.hbar}")

    @property
    def h(self) -> float:
        return 2.0 * np.pi * self.hbar


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

    def __init__(self, slit_width: float, coefficients, normalize: bool = True):
        if not slit_width > 0:
            raise InvalidArgument(f"slit_width must be positive, got {slit_width}")
        c = np.asarray(coefficients, dtype=complex).copy()
        if c.ndim != 1 or c.size % 2 == 0 or c.size < 3:
            raise InvalidArgument(
                "coefficients must be a 1-d odd-length vector covering n=-n_max..n_max "
                "with n_max >= 1"
            )
        norm2 = float(np.sum(np.abs(c) ** 2))
        if normalize:
            if norm2 == 0.0:
                raise InvalidArgument("cannot normalize a zero coefficient vector")
            c /= np.sqrt(norm2)
        elif abs(norm2 - 1.0) > PARSEVAL_TOL:
            raise InvalidArgument(f"coefficients not normalized: sum |c_n|^2 = {norm2!r}")
        self.slit_width = float(slit_width)
        self.coefficients = c
        self.coefficients.setflags(write=False)

    @property
    def n_max(self) -> int:
        return (self.coefficients.size - 1) // 2

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def mode_wavenumbers(self) -> np.ndarray:
        """k_n = 2*pi*n/delta_x for each stored mode."""
        return 2.0 * np.pi * self.n_values / self.slit_width

    def with_slit_width(self, slit_width: float) -> "FourierState":
        return FourierState(slit_width, self.coefficients, normalize=False)


@dataclass(frozen=True)
class SampledDensity:
    """Probability density tabulated on a strictly increasing 1-d grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise InvalidArgument("grid and values must be 1-d arrays of equal length >= 2")
        if not np.all(np.diff(g) > 0):
            raise InvalidArgument("grid must be strictly increasing")
        if np.any(v < 0):
            raise InvalidArgument("density values must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.values, self.grid))

    def second_moment(self) -> float:
        return float(np.trapezoid(self.grid**2 * self.values, self.grid))


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


def momentum_moments(state: FourierState, units: UnitsConvention = UnitsConvention()):
    """Mean and standard deviation of momentum from the coefficient series.

    Returns (mean, sigma_p) with mean = (2*pi*hbar/delta_x) * sum n |c_n|^2.
    """
    w = np.abs(state.coefficients) ** 2
    if abs(np.sum(w) - 1.0) > 1e-8:
        raise InvalidArgument("state does not satisfy Parseval within tolerance")
    n = state.n_values.astype(float)
    scale = 2.0 * np.pi * units.hbar / state.slit_width
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


def eval_momentum_density(state: FourierState, k):
    """Exact |psi~(k)|^2 of a truncated slit state.

    Each mode restricted to the slit transforms to a shifted sinc, so the
    amplitude is sqrt(delta_x/2pi) * sum c_n sinc((k - k_n) delta_x / 2).
    Normalized over k by Plancherel since sum |c_n|^2 = 1.
    """
    dx = state.slit_width
    ka = np.atleast_1d(np.asarray(k, dtype=float))
    kn = state.mode_wavenumbers()
    # np.sinc(z) = sin(pi z)/(pi z); argument (k - k_n) dx / 2 = pi * z
    z = (ka[:, None] - kn[None, :]) * dx / (2.0 * np.pi)
    amp = np.sqrt(dx / (2.0 * np.pi)) * (np.sinc(z) @ state.coefficients)
    dens = np.abs(amp) ** 2
    return float(dens[0]) if np.isscalar(k) else dens


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


@dataclass(frozen=True)
class StationarityReport:
    symmetric: bool
    alpha: complex | None
    beta: complex | None
    max_residual: float | None
    mean_momentum: float


def verify_stationarity(
    state: FourierState, units: UnitsConvention = UnitsConvention()
) -> StationarityReport:
    """Check the Euler-Lagrange conditions of the variational problem.

    For a symmetric state (<p> = 0) the stationarity condition reads
    ((2*pi*hbar/delta_x)^2 n^2 - beta) c_n = (-1)^n alpha for every n.  The
    multipliers are fitted from the n = 0 and n = 1 conditions and the
    maximum residual over all stored n is returned.  Non-symmetric states
    are reported as such instead of being fitted.
    """
    mean, _ = momentum_moments(state, units)
    scale = 2.0 * np.pi * units.hbar / state.slit_width
    if abs(mean) > 1e-10 * scale:
        return StationarityReport(
            symmetric=False, alpha=None, beta=None, max_residual=None, mean_momentum=mean
        )
    c = state.coefficients
    i0 = state.n_max  # index of n = 0
    c0, c1 = c[i0], c[i0 + 1]
    K2 = scale**2
    # n=0: -beta c0 - alpha = 0;  n=1: -beta c1 + alpha = -K2 c1
    A = np.array([[-c0, -1.0], [-c1, 1.0]], dtype=complex)
    try:
        beta, alpha = np.linalg.solve(A, np.array([0.0, -K2 * c1], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"multiplier fit is singular: {exc}") from exc
    n = state.n_values.astype(float)
    lhs = (K2 * n**2 - beta) * c
    rhs = (-1.0) ** state.n_values * alpha
    resid = float(np.max(np.abs(lhs - rhs)))
    return StationarityReport(
        symmetric=True, alpha=complex(alpha), beta=complex(beta),
        max_residual=resid, mean_momentum=mean,
    )


def popoviciu_sigma_x(density: SampledDensity) -> float:
    """Standard deviation of a density supported on an interval.

    By the variance bound for bounded distributions the result never
    exceeds half the support length.
    """
    total = density.integral()
    if abs(total - 1.0) > 1e-8:
        raise InvalidArgument(f"density is not normalized: integral = {total!r}")
    mu = density.mean()
    var = density.second_moment() - mu * mu
    return float(np.sqrt(max(var, 0.0)))


def build_report(
    sigma_x: float | None,
    sigma_p: float,
    delta_x: float,
    units: UnitsConvention = UnitsConvention(),
) -> UncertaintyReport:
    """Assemble the uncertainty products and all inequality verdicts.

    delta_p = 2*sigma_p by definition; the product reported is
    sigma_p * delta_x / hbar so the sharp bound reads product >= pi.
    """
    if sigma_p < 0 or (sigma_x is not None and sigma_x < 0):
        raise InvalidArgument("standard deviations must be nonnegative")
    if not delta_x > 0:
        raise InvalidArgument(f"delta_x must be positive, got {delta_x}")
    hbar = units.hbar
    delta_p = 2.0 * sigma_p
    product = sigma_p * delta_x / hbar
    verdicts = {
        "sigma_p_delta_x_gt_hbar": bool(sigma_p * delta_x > hbar),
        "sigma_p_delta_x_ge_pi_hbar": bool(sigma_p * delta_x >= np.pi * hbar),
        "delta_x_delta_p_gt_2hbar": bool(delta_x * delta_p > 2.0 * hbar),
        "delta_x_delta_p_ge_2pi_hbar": bool(delta_x * delta_p >= 2.0 * np.pi * hbar),
    }
    if sigma_x is not None:
        verdicts["kennard"] = bool(sigma_x * sigma_p >= hbar / 2.0)
    return UncertaintyReport(
        sigma_x=sigma_x,
        sigma_p=sigma_p,
        delta_x=delta_x,
        delta_p=delta_p,
        product_over_hbar=product,
        verdicts=verdicts,
    )


def random_symmetric_state(
    n_max: int, delta_x: float, rng: np.random.Generator, project_boundary: bool = True
) -> FourierState:
    """Random normalized state with c_n = c_{-n}, optionally with the
    boundary constraint sum (-1)^n c_n = 0 projected in.  Used by the
    property tests and by stationarity spot checks."""
    half = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    c = np.concatenate([half[:0:-1], half])
    if project_boundary:
        v = (-1.0) ** np.arange(-n_max, n_max + 1)
        c = c - v * (np.dot(v, c) / np.dot(v, v))
    return FourierState(delta_x, c)
