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

The module loads no numpy, so ``lanczos`` starts without it: on a number
or a sequence every formula is Python float arithmetic.  Si and the two
evaluators take an array through numpy, imported there, with the same
coefficient tables and the same order of operations, so an array and a
list of the same points give the same bits.  ``lanczos_band_moments``,
which ``diffraction`` runs, is numpy throughout.
"""

from __future__ import annotations

import math

from .core import _over
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
    # Horner's rule as a multiply and an add per step, each rounded, so a
    # float and an array element get the same bits.  The first step makes
    # acc a new float or array; an array is then updated in place
    acc = coeffs[-1] * y + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= y
        acc += c
    return acc


def _si(x: float) -> float:
    ax = abs(x)
    if ax * ax <= 16.0:
        out = ax * _poly(_SI_NUM, ax * ax) / _poly(_SI_DEN, ax * ax)
    elif not math.isfinite(ax):
        # math.cos and math.sin raise at infinity, where numpy gives nan
        return math.nan
    else:
        y = 1.0 / (ax * ax)
        f = _poly(_F_NUM, y) / (ax * _poly(_F_DEN, y))
        g = y * _poly(_G_NUM, y) / _poly(_G_DEN, y)
        out = math.pi / 2.0 - f * math.cos(ax) - g * math.sin(ax)
    # np.sign's factor: Si(-0.0) is 0.0
    return out if x >= 0 else -out


def _sinc(t: float) -> float:
    """sin(t)/t as np.sinc forms it: 1 at t = 0, and nan at an infinite t,
    where math.sin raises and numpy gives nan."""
    if not t:
        return 1.0
    return math.sin(t) / t if math.isfinite(t) else math.nan


def sine_integral(x):
    """Si(x) = int_0^x sin(t)/t dt; odd in x, absolute accuracy < 1e-12.
    A float for a number, a list for a sequence, an array for an array."""
    if not hasattr(x, "dtype"):
        return _over(_si, x)
    import numpy as np

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


SI_2PI = _si(2.0 * math.pi)

# at most this many band-quadrature panels (8 nodes each) in one call
MAX_PANELS = 1 << 20
# panels whose nodes are evaluated together: about 7 MB of temporaries
_BLOCK = 1 << 13


# 8-point Gauss-Legendre nodes and weights on [-1, 1]: the values of
# np.polynomial.legendre.leggauss(8)
_GL8_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
              -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
              0.7966664774136267, 0.9602898564975362)
_GL8_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                0.22238103445337443, 0.10122853629037706)


class LanczosState:
    """Truncated-sinc slit state of width delta_x (amplitude zero at the
    slit edges, which sit at the first zeros of the sinc)."""

    __slots__ = ("slit_width",)

    def __init__(self, slit_width: float):
        if not slit_width > 0:
            raise InvalidArgument(f"slit_width must be positive, got {slit_width}")
        self.slit_width = slit_width


def eval_lanczos_position(x, state: LanczosState):
    """Normalized position amplitude sqrt(pi/(Si(2pi)*dx)) * sinc(2pi x/dx).

    Returns 0 outside the slit (the preparation truncates there).  A float
    for a number, a list for a sequence, an array for an array.
    """
    dx = state.slit_width
    amp = math.sqrt(math.pi / (SI_2PI * dx))
    if not hasattr(x, "dtype"):
        def phi(v):
            if not abs(v) <= dx / 2.0:
                return 0.0
            # np.sinc(z) at z = (2 pi x/dx)/pi is sin(t)/t at t = pi*z
            t = math.pi * (2.0 * math.pi * v / dx / math.pi)
            return amp * _sinc(t)

        return _over(phi, x)
    import numpy as np

    xa = np.asarray(x, dtype=float)
    out = np.where(np.abs(xa) <= dx / 2.0, amp * np.sinc(2.0 * np.pi * xa / dx / np.pi), 0.0)
    return float(out) if np.isscalar(x) else out


def lanczos_gamma() -> float:
    """Exact excess factor of the truncated-sinc uncertainty product:
    sigma_p * delta_x = gamma * pi * hbar."""
    return 2.0 / math.sqrt(3.0) * math.sqrt(1.0 - 1.0 / (math.pi * SI_2PI))


def eval_lanczos_momentum_density(k, state: LanczosState):
    """Wavenumber density of the truncated-sinc state.

    (dx / (8 pi^2 Si(2pi))) * [Si(dx*k/2 + pi) - Si(dx*k/2 - pi)]^2;
    even in k and normalized over the real line.  A float for a number, a
    list for a sequence, an array for an array.
    """
    dx = state.slit_width
    scale = dx / (8.0 * math.pi**2 * SI_2PI)
    if not hasattr(k, "dtype"):
        def density(v):
            u = v * dx / 2.0
            dsi = _si(u + math.pi) - _si(u - math.pi)
            return scale * (dsi * dsi)

        return _over(density, k)
    import numpy as np

    u = np.asarray(k, dtype=float) * dx / 2.0
    dsi = sine_integral(u + np.pi) - sine_integral(u - np.pi)
    out = scale * dsi**2
    return float(out) if np.isscalar(k) else out


def lanczos_band_moments(state: LanczosState, k_edges, power: int):
    """Cumulative band moments int_{|k| <= k_j} |k|^power * density(k) dk
    for every edge k_j of a nondecreasing array of nonnegative edges.

    Each interval [k_{j-1}, k_j] (with k_{-1} = 0) is tiled by equal panels
    of at most pi/dx, a quarter of the period 4*pi/dx in k of the amplitude
    Si(u + pi) - Si(u - pi), u = dx*k/2, with 8-point Gauss-Legendre on
    every panel.  Returns an array.
    """
    import numpy as np

    hi = np.asarray(k_edges, dtype=float)
    lo = np.concatenate([[0.0], hi.ravel()[:-1]])
    if hi.ndim != 1 or not np.all(np.isfinite(hi)) or np.any(hi < lo):
        raise InvalidArgument("k_edges must be 1-d, finite, nonnegative and nondecreasing")
    npanel = np.maximum(1.0, np.ceil((hi - lo) / (np.pi / state.slit_width)))
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
        vals = nodes**power * eval_lanczos_momentum_density(nodes, state)
        # one BLAS dot product per panel, summed the way np.dot sums one panel
        panels[b:b + _BLOCK] = np.matmul((h * weights_gl)[:, None, :],
                                         vals[:, :, None])[:, 0, 0]
    return np.cumsum(2.0 * np.add.reduceat(panels, first))


def check_band_edge(state: LanczosState, k_max: float) -> None:
    """Refuse a band [0, k_max] of more than MAX_PANELS panels of
    pi/slit_width.  Given k_max as a Python float, an edge that overflowed
    to infinity is refused without a numpy warning and before any array
    holds it."""
    _check_panels(k_max / (math.pi / state.slit_width))


def _check_panels(total: float) -> None:
    # a NaN or infinite count fails the comparison as well
    if not total <= MAX_PANELS:
        raise InvalidArgument(
            f"the band quadrature needs {total:.3g} panels of pi/slit_width, "
            f"more than {MAX_PANELS}")


def _tail_prefactors(state: LanczosState, k_max: float):
    """(d, C, lead) shared by the tail bounds: d = U - pi at U = dx*k_max/2,
    C the density prefactor in the u-measure (both tails), and lead >= 1 the
    inflation of the bracket's leading term 2pi/(u^2-pi^2) at U."""
    U = state.slit_width * k_max / 2.0
    if U <= 2.0 * math.pi:
        raise InvalidArgument("tail bound requires dx*k_max/2 > 2*pi")
    # the bracket over its leading term, as quotients near 1 divided by d: a
    # huge or infinite U gives 0 or nan, never a ZeroDivisionError or an
    # OverflowError (Python floats raise both where numpy gives inf)
    d, s = U - math.pi, U + math.pi
    lead = 1.0 + 2.0 * (U / s) / d + 4.0 / math.pi * (s / d) / d
    return d, 1.0 / (4.0 * math.pi**2 * SI_2PI), lead


def lanczos_weight_tail_bound(state: LanczosState, k_max: float) -> float:
    """Certified upper bound on the probability mass beyond |k| > k_max.

    Uses the two-term asymptotics of Si with remainder <= 4/v^3, so with
    u = dx*k/2 the bracket in the density is at most
    2pi/(u^2-pi^2) + 4pi*u/(u^2-pi^2)^2 + 8/(u-pi)^3.
    Valid for dx*k_max/2 > 2*pi.
    """
    d, C, lead = _tail_prefactors(state, k_max)
    # integrand (in u) is <= C * bracket(u)^2, decreasing; bound the integral
    # by the leading 1/(3 (U-pi)^3) behavior with the bracket inflated at U
    integral = (2.0 * math.pi) ** 2 * (lead * lead) / (3.0 * d * d * d)
    return 2.0 * C * integral


def lanczos_second_moment_tail_bound(state: LanczosState, k_max: float) -> float:
    """Certified upper bound on int_{|k| > k_max} k^2 density dk."""
    d, C, lead = _tail_prefactors(state, k_max)
    # u^2 * bracket(u)^2 <= (2pi)^2 * lead^2 * u^2/(u^2-pi^2)^2 <= that /(U-pi)
    integral_u = (2.0 * math.pi) ** 2 * (lead * lead) / d
    # back to k units: k^2 dk = (2/dx)^3 u^2 du
    return 2.0 * C * integral_u * (2.0 / state.slit_width) * (2.0 / state.slit_width)
