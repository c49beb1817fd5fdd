"""Independent oracles shared by the tests: sampled densities and their
moments, generic truncated slit states, the Euler-Lagrange check of the
variational problem, the numpy formulas of the cosine state that the
pure-Python `core` replaced and of the truncated-sinc position amplitude
that the pure-Python `special` replaced, the detector-plane intensity
profile that `synthesize_frame` samples, the full columns of an even
table, a fixed-size lambda0 solve and one built by index writes, with that
matrix's smallest eigenvalue.  None of this runs on the command line's path."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from slitbound import (FourierState, InvalidArgument, NumericFailure,
                       eval_lanczos_momentum_density, momentum_moments)
from slitbound.special import SI_2PI


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
    kn = 2.0 * np.pi * np.asarray(state.n_values) / dx
    # np.sinc(z) = sin(pi z)/(pi z); argument (k - k_n) dx / 2 = pi * z
    z = (ka[:, None] - kn[None, :]) * dx / (2.0 * np.pi)
    amp = np.sqrt(dx / (2.0 * np.pi)) * (np.sinc(z) @ np.asarray(state.coefficients))
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
    c = np.asarray(state.coefficients)
    i0 = state.n_max  # index of n = 0
    c0, c1 = c[i0], c[i0 + 1]
    K2 = scale**2
    # n=0: -beta c0 - alpha = 0;  n=1: -beta c1 + alpha = -K2 c1
    A = np.array([[-c0, -1.0], [-c1, 1.0]], dtype=complex)
    try:
        beta, alpha = np.linalg.solve(A, np.array([0.0, -K2 * c1], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"multiplier fit is singular: {exc}") from exc
    n = np.asarray(state.n_values, dtype=float)
    lhs = (K2 * n**2 - beta) * c
    rhs = (-1.0) ** np.asarray(state.n_values) * alpha
    resid = float(np.max(np.abs(lhs - rhs)))
    return StationarityReport(
        symmetric=True, alpha=complex(alpha), beta=complex(beta),
        max_residual=resid, mean_momentum=mean,
    )


def np_normalized(c) -> np.ndarray:
    """c as complex, scaled to sum |c_n|^2 = 1 by numpy's pairwise sum."""
    c = np.asarray(c, dtype=complex)
    return c / np.sqrt(float(np.sum(np.abs(c) ** 2)))


def np_cosine_coefficients(n_max: int) -> np.ndarray:
    """Normalized cosine-state coefficients (-1)^n / (1 - 4 n^2), n = -n_max..n_max."""
    n = np.arange(-n_max, n_max + 1)
    return np_normalized((np.sqrt(8.0) / np.pi) * (-1.0) ** n / (1.0 - 4.0 * n.astype(float) ** 2))


def np_momentum_moments(c: np.ndarray, slit_width: float) -> tuple[float, float]:
    """(mean, sigma_p) of normalized coefficients c_n, n = -n_max..n_max, by BLAS dots."""
    w = np.abs(c) ** 2
    n = np.arange(-(c.size // 2), c.size // 2 + 1).astype(float)
    scale = 2.0 * np.pi / slit_width
    m1 = float(np.dot(n, w))
    var = float(np.dot(n * n, w)) - m1 * m1
    return scale * m1, scale * float(np.sqrt(max(var, 0.0)))


def np_constraint_residuals(c: np.ndarray) -> tuple[float, float]:
    """(|sum |c_n|^2 - 1|, |sum (-1)^n conj(c_n)|) by numpy's pairwise sums."""
    n = np.arange(-(c.size // 2), c.size // 2 + 1)
    return (abs(float(np.sum(np.abs(c) ** 2)) - 1.0),
            float(abs(np.sum((-1.0) ** n * np.conj(c)))))


def np_position_wavefunction(x, delta_x: float) -> np.ndarray:
    """sqrt(2/delta_x) * cos(pi*(x/delta_x)) on an array of x."""
    return np.sqrt(2.0 / delta_x) * np.cos(np.pi * (np.asarray(x, dtype=float) / delta_x))


def np_lanczos_position(x, slit_width: float) -> np.ndarray:
    """sqrt(pi/(Si(2pi)*dx)) * sin(t)/t, t = 2pi*(x/dx), on an array of x:
    1 at t = 0 and 0 outside the slit."""
    xa = np.asarray(x, dtype=float)
    amp = math.sqrt(math.pi / SI_2PI) / math.sqrt(slit_width)
    t = 2.0 * np.pi * (xa / slit_width)
    safe = np.where(t == 0.0, 1.0, t)
    sinc = np.where(t == 0.0, 1.0, np.sin(safe) / safe)
    return np.where(np.abs(xa) <= slit_width / 2.0, amp * sinc, 0.0)


def np_intensity_profile(geometry, y) -> np.ndarray:
    """Detector-plane intensity density (k0/f) * |phi~(k0*y/f)|^2 on an array
    of y; even in y and normalized to 1 over the real line."""
    k = geometry.k0 * np.asarray(y, dtype=float) / geometry.focal_length
    return geometry.k0 / geometry.focal_length * eval_lanczos_momentum_density(
        k, geometry.slit_width)


def np_momentum_wavefunction(k, delta_x: float) -> np.ndarray:
    """2*sqrt(pi)*sqrt(delta_x) * cos(delta_x*k/2) / (pi^2 - delta_x^2 k^2) on an array
    of k, within 1e-4 of delta_x*k = +/- pi by the limit form
    sinc(s/(2 pi))/(2*(2 pi + s)), s = |delta_x*k| - pi."""
    u = np.asarray(k, dtype=float) * delta_x
    near = np.minimum(np.abs(u - np.pi), np.abs(u + np.pi)) < 1e-4
    safe = np.where(near, 0.0, u)
    direct = np.cos(safe / 2.0) / (np.pi**2 - safe**2)
    s = np.abs(u) - np.pi
    limit = 0.5 * np.sinc(s / (2.0 * np.pi)) / (2.0 * np.pi + s)
    return 2.0 * np.sqrt(np.pi) * np.sqrt(delta_x) * np.where(near, limit, direct)


def np_symmetric_grid(edge: float, m: int) -> np.ndarray:
    """i*(edge/m), i = -m..m, with the ends set to -edge and edge and the
    negative half the negated positive half: the density tables' grid."""
    half = np.arange(m + 1) * (edge / m)
    half[-1] = edge
    return np.concatenate([-half[:0:-1], half])


def mirrored(table: tuple) -> tuple:
    """An even table of a command, given by its rows i >= 0, with its full
    columns instead: the grid's rows i > 0 negated, last first, before it and
    each value column mirrored the same way, which format_csv must encode."""
    name, header, (grid, *values), comments, even = table
    assert even is True
    return (name, header, [[-v for v in grid[:0:-1]] + list(grid),
                           *(column[:0:-1] + column for column in values)], comments)


def np_minstate_tables(delta_x: float, n_max: int) -> list:
    """The three `minstate` CSV tables from the numpy formulas, each density
    evaluated on every point of its grid, not mirrored."""
    x = np_symmetric_grid(delta_x / 2, 500)
    k = np_symmetric_grid(8 * np.pi / delta_x, 1000)
    return [
        ("minstate_coefficients.csv", ["n", "c_n"],
         [np.arange(-n_max, n_max + 1), np_cosine_coefficients(n_max).real]),
        ("minstate_position_density.csv", ["x_m", "density_per_m"],
         [x, np_position_wavefunction(x, delta_x) ** 2]),
        ("minstate_momentum_density.csv", ["k_per_m", "density_m"],
         [k, np_momentum_wavefunction(k, delta_x) ** 2]),
    ]


def prolate_lambda0_48(xi: float) -> float:
    """lambda0(xi) from the prolate eigenproblem on the first 48 even
    normalized Legendre polynomials, not rounded to 1: the fixed-size solve
    that the size rule of `lp_lambda0` replaced."""
    c = np.pi * xi / 2.0
    n = 2.0 * np.arange(48)
    diag = n * (n + 1) + c * c * (2 * n * (n + 1) - 1) / ((2 * n + 3) * (2 * n - 1))
    m = n[:-1]
    off = c * c * (m + 1) * (m + 2) / ((2 * m + 3) * np.sqrt((2 * m + 1) * (2 * m + 5)))
    _, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    beta = vecs[:, 0]
    # P_2k(0) = sqrt((4k+1)/2) (-1)^k (2k-1)!!/(2k)!!
    k = np.arange(1, 48)
    p_at_zero = np.sqrt((2 * n + 1) / 2.0) * np.cumprod(np.r_[1.0, (1 - 2 * k) / (2 * k)])
    return float(c / np.pi * beta[0] ** 2 / (beta @ p_at_zero) ** 2)


def prolate_matrix_indexed(xi: float) -> tuple[float, np.ndarray]:
    """(c, T): the prolate matrix of `lp_lambda0`'s expansion at min(xi, 32),
    built from np.diag and two index writes on the same 16 + ceil(c/2) terms."""
    nn = 2.0 * np.arange(42)
    u2_diag = (2 * nn * (nn + 1) - 1) / ((2 * nn + 3) * (2 * nn - 1))
    u2_off = ((nn[:-1] + 1) * (nn[:-1] + 2)
              / ((2 * nn[:-1] + 3) * np.sqrt((2 * nn[:-1] + 1) * (2 * nn[:-1] + 5))))
    c = np.pi * min(xi, 32.0) / 2.0
    n = 16 + math.ceil(c / 2.0)
    prolate = np.diag(nn[:n] * (nn[:n] + 1) + c * c * u2_diag[:n])
    i = np.arange(n - 1)
    prolate[i + 1, i] = prolate[i, i + 1] = c * c * u2_off[: n - 1]
    return c, prolate


def prolate_lambda0_indexed(xi: float) -> tuple[float, float]:
    """(lambda0, tail) of `lp_lambda0`'s expansion from LAPACK: `eigh` of
    `prolate_matrix_indexed`, the dense solve that `lp_lambda0` replaced."""
    c, prolate = prolate_matrix_indexed(xi)
    nn = 2.0 * np.arange(len(prolate))
    p_at_zero = np.sqrt((2 * nn + 1) / 2.0) * np.cumprod(
        np.concatenate([[1.0], (1.0 - nn[1:]) / nn[1:]]))
    _, vecs = np.linalg.eigh(prolate)
    beta = vecs[:, 0]
    tail = float(np.max(np.abs(beta[-4:])))
    lam = float(c / np.pi * beta[0] ** 2 / (beta @ p_at_zero) ** 2)
    return (1.0 if lam > 1.0 - 1e-14 else lam), tail


def prolate_chi0_indexed(xi: float) -> float:
    """The smallest eigenvalue chi_0 of `prolate_matrix_indexed`, by LAPACK's
    `eigvalsh`."""
    return float(np.linalg.eigvalsh(prolate_matrix_indexed(xi)[1])[0])
