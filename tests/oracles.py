"""Independent oracles shared by the tests: sampled densities and their
moments, generic truncated slit states and the Euler-Lagrange check of the
variational problem.  None of this runs on the command line's path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slitbound import FourierState, InvalidArgument, NumericFailure, momentum_moments


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


def concentration_probability(density: SampledDensity, delta_p: float) -> float:
    """Probability mass of a sampled momentum density inside |p| <= delta_p/2.

    The density must be normalized to 1.
    """
    if not isinstance(density, SampledDensity):
        raise InvalidArgument("density must be a SampledDensity")
    if delta_p < 0:
        raise InvalidArgument(f"delta_p must be nonnegative, got {delta_p}")
    if delta_p == 0:
        return 0.0
    if abs(density.integral() - 1.0) > 1e-8:
        raise InvalidArgument(f"density not normalized: integral = {density.integral()!r}")
    g, v = density.grid, density.values
    lo = max(-delta_p / 2.0, g[0])
    hi = min(delta_p / 2.0, g[-1])
    if hi <= lo:
        return 0.0
    pts = np.unique(np.concatenate([[lo], g[(g > lo) & (g < hi)], [hi]]))
    return float(np.trapezoid(np.interp(pts, g, v), pts))


def eval_momentum_density(state: FourierState, k):
    """Exact |psi~(k)|^2 of a truncated slit state.

    Each mode restricted to the slit transforms to a shifted sinc, so the
    amplitude is sqrt(delta_x/2pi) * sum c_n sinc((k - k_n) delta_x / 2)
    with k_n = 2*pi*n/delta_x.  Normalized over k by Plancherel since
    sum |c_n|^2 = 1.
    """
    dx = state.slit_width
    ka = np.atleast_1d(np.asarray(k, dtype=float))
    kn = 2.0 * np.pi * state.n_values / dx
    # np.sinc(z) = sin(pi z)/(pi z); argument (k - k_n) dx / 2 = pi * z
    z = (ka[:, None] - kn[None, :]) * dx / (2.0 * np.pi)
    amp = np.sqrt(dx / (2.0 * np.pi)) * (np.sinc(z) @ state.coefficients)
    dens = np.abs(amp) ** 2
    return float(dens[0]) if np.isscalar(k) else dens


def random_symmetric_state(
    n_max: int, delta_x: float, rng: np.random.Generator, project_boundary: bool = True
) -> FourierState:
    """Random normalized state with c_n = c_{-n}, optionally with the
    boundary constraint sum (-1)^n c_n = 0 projected in."""
    half = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    c = np.concatenate([half[:0:-1], half])
    if project_boundary:
        v = (-1.0) ** np.arange(-n_max, n_max + 1)
        c = c - v * (np.dot(v, c) / np.dot(v, v))
    return FourierState(delta_x, c)


@dataclass(frozen=True)
class StationarityReport:
    symmetric: bool
    alpha: complex | None
    beta: complex | None
    max_residual: float | None
    mean_momentum: float


def verify_stationarity(state: FourierState) -> StationarityReport:
    """Check the Euler-Lagrange conditions of the variational problem.

    For a symmetric state (<p> = 0) the stationarity condition reads
    ((2*pi/delta_x)^2 n^2 - beta) c_n = (-1)^n alpha for every n.  The
    multipliers are fitted from the n = 0 and n = 1 conditions and the
    maximum residual over all stored n is returned.  Non-symmetric states
    are reported as such instead of being fitted.
    """
    mean, _ = momentum_moments(state)
    scale = 2.0 * np.pi / state.slit_width
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
