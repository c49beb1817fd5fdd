"""Sine integral and the truncated-sinc (Lanczos window) slit state.

The sinc main lobe truncated at its first zeros is the experimentally
preparable stand-in for the cosine minimum-uncertainty state.  Its
uncertainty product exceeds the sharp bound by the exact factor

    gamma = (2/sqrt(3)) * sqrt(1 - 1/(pi*Si(2*pi))) = 1.0168880...

Everything here reduces to the sine integral Si(x) = int_0^x sin(t)/t dt,
implemented to full double accuracy with a small-argument Pade approximant
and the auxiliary-function asymptotic form

    Si(x) = pi/2 - f(x)*cos(x) - g(x)*sin(x),   x > 4,

using the classic rational approximations for f and g (relative error
below 1e-16 on their range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

# Rational-approximation coefficients for the auxiliary functions f, g and
# the small-argument Pade form of Si (Cephes/Boost lineage, |x| >= 4 resp.
# |x| <= 4).
_F_NUM = (
    1.0, 7.44437068161936700618e2, 1.96396372895146869801e5,
    2.37750310125431834034e7, 1.43073403821274636888e9,
    4.33736238870432522765e10, 6.40533830574022022911e11,
    4.20968180571076940208e12, 1.00795182980368574617e13,
    4.94816688199951963482e12, -4.94701168645415959931e11,
)
_F_DEN = (
    1.0, 7.46437068161927678031e2, 1.97865247031583951450e5,
    2.41535670165126845144e7, 1.47478952192985464958e9,
    4.58595115847765779830e10, 7.08501308149515401563e11,
    5.06084464593475076774e12, 1.43468549171581016479e13,
    1.11535493509914254097e13,
)
_G_NUM = (
    1.0, 8.1359520115168615e2, 2.35239181626478200e5,
    3.12557570795778731e7, 2.06297595146763354e9,
    6.83052205423625007e10, 1.09049528450362786e12,
    7.57664583257834349e12, 1.81004487464664575e13,
    6.43291613143049485e12, -1.36517137670871689e12,
)
_G_DEN = (
    1.0, 8.19595201151451564e2, 2.40036752835578777e5,
    3.26026661647090822e7, 2.23355543278099360e9,
    7.87465017341829930e10, 1.39866710696414565e12,
    1.17164723371736605e13, 4.01839087307656620e13,
    3.99653257887490811e13,
)
_SI_NUM = (
    1.0, -4.54393409816329991e-2, 1.15457225751016682e-3,
    -1.41018536821330254e-5, 9.43280809438713025e-8,
    -3.53201978997168357e-10, 7.08240282274875911e-13,
    -6.05338212010422477e-16,
)
_SI_DEN = (
    1.0, 1.01162145739225565e-2, 4.99175116169755106e-5,
    1.55654986308745614e-7, 3.28067571055789734e-10,
    4.5049097575386581e-13, 3.21107051193712168e-16,
)


def _poly(coeffs, y):
    acc = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * y + c
    return acc


def sine_integral(x):
    """Si(x) = int_0^x sin(t)/t dt; odd in x, absolute accuracy < 1e-12."""
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    small = ax * ax <= 16.0
    out = np.empty_like(ax)
    # each point takes one branch: the Pade form, or f and g of y = 1/x^2
    xs = ax[small]
    out[small] = xs * _poly(_SI_NUM, xs * xs) / _poly(_SI_DEN, xs * xs)
    xl = ax[~small]
    y = 1.0 / (xl * xl)
    f = _poly(_F_NUM, y) / (xl * _poly(_F_DEN, y))
    g = y * _poly(_G_NUM, y) / _poly(_G_DEN, y)
    out[~small] = np.pi / 2.0 - f * np.cos(xl) - g * np.sin(xl)
    out *= np.sign(xa)
    return float(out) if np.isscalar(x) else out


SI_2PI = float(sine_integral(2.0 * np.pi))


@dataclass(frozen=True)
class LanczosState:
    """Truncated-sinc slit state of width delta_x (amplitude zero at the
    slit edges, which sit at the first zeros of the sinc)."""

    slit_width: float

    def __post_init__(self):
        if not self.slit_width > 0:
            raise InvalidArgument(f"slit_width must be positive, got {self.slit_width}")


def eval_lanczos_position(x, state: LanczosState):
    """Normalized position amplitude sqrt(pi/(Si(2pi)*dx)) * sinc(2pi x/dx).

    Returns 0 outside the slit (the preparation truncates there).
    """
    dx = state.slit_width
    xa = np.asarray(x, dtype=float)
    # np.sinc(z) = sin(pi z)/(pi z), here at z = (2 pi x/dx)/pi
    amp = np.sqrt(np.pi / (SI_2PI * dx)) * np.sinc(2.0 * np.pi * xa / dx / np.pi)
    out = np.where(np.abs(xa) <= dx / 2.0, amp, 0.0)
    return float(out) if np.isscalar(x) else out


def lanczos_gamma() -> float:
    """Exact excess factor of the truncated-sinc uncertainty product:
    sigma_p * delta_x = gamma * pi * hbar."""
    return 2.0 / np.sqrt(3.0) * np.sqrt(1.0 - 1.0 / (np.pi * SI_2PI))


def eval_lanczos_momentum_density(k, state: LanczosState):
    """Wavenumber density of the truncated-sinc state.

    (dx / (8 pi^2 Si(2pi))) * [Si(dx*k/2 + pi) - Si(dx*k/2 - pi)]^2;
    even in k and normalized over the real line.
    """
    dx = state.slit_width
    u = np.asarray(k, dtype=float) * dx / 2.0
    dsi = sine_integral(u + np.pi) - sine_integral(u - np.pi)
    out = dx / (8.0 * np.pi**2 * SI_2PI) * dsi**2
    return float(out) if np.isscalar(k) else out


def lanczos_band_moments(state: LanczosState, k_edges, power: int) -> np.ndarray:
    """Cumulative band moments int_{|k| <= k_j} |k|^power * density(k) dk
    for every edge k_j of a nondecreasing array of nonnegative edges.

    Each interval [k_{j-1}, k_j] (with k_{-1} = 0) is tiled by equal panels
    of at most pi/dx, a quarter of the period 4*pi/dx in k of the amplitude
    Si(u + pi) - Si(u - pi), u = dx*k/2, with 16-point Gauss-Legendre on
    every panel; all panels are evaluated in one pass.
    """
    hi = np.asarray(k_edges, dtype=float)
    lo = np.concatenate([[0.0], hi.ravel()[:-1]])
    if hi.ndim != 1 or np.any(hi < lo):
        raise InvalidArgument("k_edges must be 1-d, nonnegative and nondecreasing")
    npanel = np.maximum(1, np.ceil((hi - lo) / (np.pi / state.slit_width))).astype(int)
    # panel i of interval j spans lo_j + [i, i+1]*step_j, the last one ending
    # exactly at hi_j (the edges np.linspace would give)
    j = np.repeat(np.arange(hi.size), npanel)
    first = np.cumsum(npanel) - npanel
    i = np.arange(j.size) - first[j]
    step = ((hi - lo) / npanel)[j]
    left = i * step + lo[j]
    right = np.where(i + 1 == npanel[j], hi[j], (i + 1) * step + lo[j])
    xg, wg = np.polynomial.legendre.leggauss(16)
    half = (right - left) / 2.0
    nodes = ((left + right) / 2.0)[:, None] + half[:, None] * xg[None, :]
    vals = nodes**power * eval_lanczos_momentum_density(nodes, state)
    # one BLAS dot product per panel, summed the way np.dot sums one panel
    panels = np.matmul((half[:, None] * wg[None, :])[:, None, :], vals[:, :, None])
    return np.cumsum(2.0 * np.add.reduceat(panels[:, 0, 0], first))


def _tail_prefactors(state: LanczosState, k_max: float):
    """(U, C, lead) shared by the tail bounds: U = dx*k_max/2, C the density
    prefactor in the u-measure (both tails), and lead >= 1 the inflation of
    the bracket's leading term 2pi/(u^2-pi^2) at U."""
    U = state.slit_width * k_max / 2.0
    if U <= 2.0 * np.pi:
        raise InvalidArgument("tail bound requires dx*k_max/2 > 2*pi")
    lead = ((2*np.pi/(U**2 - np.pi**2) + 4*np.pi*U/(U**2 - np.pi**2)**2
             + 8/(U - np.pi)**3) / (2*np.pi/(U**2 - np.pi**2)))
    return U, 1.0 / (4.0 * np.pi**2 * SI_2PI), lead


def lanczos_weight_tail_bound(state: LanczosState, k_max: float) -> float:
    """Certified upper bound on the probability mass beyond |k| > k_max.

    Uses the two-term asymptotics of Si with remainder <= 4/v^3, so with
    u = dx*k/2 the bracket in the density is at most
    2pi/(u^2-pi^2) + 4pi*u/(u^2-pi^2)^2 + 8/(u-pi)^3.
    Valid for dx*k_max/2 > 2*pi.
    """
    U, C, lead = _tail_prefactors(state, k_max)
    # integrand (in u) is <= C * bracket(u)^2, decreasing; bound the integral
    # by the leading 1/(3 (U-pi)^3) behavior with the bracket inflated at U
    integral = (2.0 * np.pi) ** 2 * lead**2 / (3.0 * (U - np.pi) ** 3)
    return 2.0 * C * integral


def lanczos_second_moment_tail_bound(state: LanczosState, k_max: float) -> float:
    """Certified upper bound on int_{|k| > k_max} k^2 density dk."""
    U, C, lead = _tail_prefactors(state, k_max)
    # u^2 * bracket(u)^2 <= (2pi)^2 * lead^2 * u^2/(u^2-pi^2)^2 <= that /(U-pi)
    integral_u = (2.0 * np.pi) ** 2 * lead**2 / (U - np.pi)
    # back to k units: k^2 dk = (2/dx)^3 u^2 du
    return 2.0 * C * integral_u * (2.0 / state.slit_width) ** 2
