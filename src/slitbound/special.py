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
or a sequence every formula is Python float arithmetic.  Si and the
momentum density also take an array through numpy, imported there.  Each
rational form of Si is one function of nested Horner expressions that runs
on a float and on an array alike, so an array and a list of the same points
give the same bits.  The slit width is a float, as in ``core``.
"""

import math

from . import InvalidArgument, _number, _real
from .core import _over, _sinc

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


def _pade(ax, y):
    # Si by its Pade form at ax = |x| <= 4 and y = x^2, on a float or an array
    p0, p1, p2, p3, p4, p5, p6, p7 = _SI_NUM
    q0, q1, q2, q3, q4, q5, q6 = _SI_DEN
    return (ax * (((((((p7 * y + p6) * y + p5) * y + p4) * y + p3) * y + p2) * y + p1) * y + p0)
            / ((((((q6 * y + q5) * y + q4) * y + q3) * y + q2) * y + q1) * y + q0))


def _asymptotic(ax, y, cos_x, sin_x):
    # Si = pi/2 - f*cos(x) - g*sin(x) by the auxiliary functions f and g at ax = |x| > 4
    # and y = 1/x^2, on a float or an array, given cos(ax) and sin(ax)
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10 = _F_NUM
    q0, q1, q2, q3, q4, q5, q6, q7, q8, q9 = _F_DEN
    f = (((((((((((p10 * y + p9) * y + p8) * y + p7) * y + p6) * y + p5) * y + p4) * y + p3)
             * y + p2) * y + p1) * y + p0)
         / (ax * (((((((((q9 * y + q8) * y + q7) * y + q6) * y + q5) * y + q4) * y + q3) * y
                    + q2) * y + q1) * y + q0)))
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10 = _G_NUM
    q0, q1, q2, q3, q4, q5, q6, q7, q8, q9 = _G_DEN
    g = (y * ((((((((((p10 * y + p9) * y + p8) * y + p7) * y + p6) * y + p5) * y + p4) * y
                  + p3) * y + p2) * y + p1) * y + p0)
         / (((((((((q9 * y + q8) * y + q7) * y + q6) * y + q5) * y + q4) * y + q3) * y + q2)
             * y + q1) * y + q0))
    return math.pi / 2.0 - f * cos_x - g * sin_x


def _si(x: float) -> float:
    # Si on a float, by the forms the array path evaluates
    ax = abs(x)
    y = ax * ax
    if y <= 16.0:
        out = _pade(ax, y)
    else:
        # math.cos and math.sin raise at inf, where numpy gives nan
        out = _asymptotic(ax, 1.0 / y, math.cos(ax), math.sin(ax)) if ax < math.inf else math.nan
    # np.sign's factor: Si(-0.0) is 0.0
    return out if x >= 0 else -out


def sine_integral(x):
    """Si(x) = int_0^x sin(t)/t dt; odd in x, absolute error at most 1e-15.
    A float for a number, a list for a sequence, an array for an array."""
    if not hasattr(x, "dtype"):
        return _over(_si, x)
    import numpy as np

    xa = np.asarray(_real(x, "points"), dtype=float)
    ax = np.abs(xa)
    small = ax * ax <= 16.0
    out = np.empty_like(ax)
    a = ax[small]
    out[small] = _pade(a, a * a)
    a = ax[~small]
    # at inf, 0 * nan = nan
    out[~small] = _asymptotic(a, 1.0 / (a * a), np.cos(a), np.sin(a))
    out *= np.sign(xa)
    return float(out) if np.isscalar(x) else out


SI_2PI = _si(2.0 * math.pi)


def eval_lanczos_position(x, delta_x: float):
    """Normalized position amplitude sqrt(pi/(Si(2pi)*dx)) * sinc(2pi x/dx), dx = delta_x.

    Returns 0 outside the slit (the preparation truncates there).  A float
    for a number, a list for a sequence.
    """
    delta_x = _number(delta_x, "delta_x")
    amp = math.sqrt(math.pi / SI_2PI) / math.sqrt(delta_x)

    def phi(v):
        if abs(v) > delta_x / 2.0:
            return 0.0
        return amp * _sinc(2.0 * math.pi * (v / delta_x))

    return _over(phi, x)


def lanczos_gamma() -> float:
    """Exact excess factor of the truncated-sinc uncertainty product:
    sigma_p * delta_x = gamma * pi * hbar."""
    return 2.0 / math.sqrt(3.0) * math.sqrt(1.0 - 1.0 / (math.pi * SI_2PI))


def eval_lanczos_momentum_density(k, delta_x: float):
    """Wavenumber density of the truncated-sinc state of width dx = delta_x.

    (dx / (8 pi^2 Si(2pi))) * [Si(dx*k/2 + pi) - Si(dx*k/2 - pi)]^2;
    even in k and normalized over the real line.  A float for a number, a
    list for a sequence, an array for an array.
    """
    delta_x = _number(delta_x, "delta_x")
    scale = delta_x / (8.0 * math.pi**2 * SI_2PI)

    def density(v, si=_si):
        u = v * delta_x / 2.0
        dsi = si(u + math.pi) - si(u - math.pi)
        return scale * (dsi * dsi)

    if not hasattr(k, "dtype"):
        return _over(density, k)
    import numpy as np

    out = density(np.asarray(_real(k, "points"), dtype=float), sine_integral)
    return float(out) if np.isscalar(k) else out


def lanczos_tail_bounds(delta_x: float, k_max: float) -> tuple[float, float]:
    """Certified upper bounds (weight, second_moment) on the probability
    mass and on int k^2 density dk beyond |k| > k_max.

    Uses the two-term asymptotics of Si with remainder <= 4/v^3, so with
    u = dx*k/2 the bracket in the density is at most
    2pi/(u^2-pi^2) + 4pi*u/(u^2-pi^2)^2 + 8/(u-pi)^3.
    Valid for dx*k_max/2 > 2*pi, with dx = delta_x.
    """
    delta_x = _number(delta_x, "delta_x")
    U = delta_x * _number(k_max, "k_max") / 2.0
    if U <= 2.0 * math.pi:
        raise InvalidArgument("tail bound requires dx*k_max/2 > 2*pi")
    # lead >= 1 inflates the bracket's leading term 2pi/(u^2-pi^2) at U, as
    # quotients near 1 divided by d = U - pi: a huge or infinite U gives 0 or
    # nan, never a ZeroDivisionError or an OverflowError (Python floats raise
    # both where numpy gives inf)
    d, s = U - math.pi, U + math.pi
    lead = 1.0 + 2.0 * (U / s) / d + 4.0 / math.pi * (s / d) / d
    # the density prefactor in the u-measure, both tails
    C = 1.0 / (4.0 * math.pi**2 * SI_2PI)
    # integrand (in u) is <= C * bracket(u)^2, decreasing; bound the integral
    # by the leading 1/(3 (U-pi)^3) behavior with the bracket inflated at U
    integral = (2.0 * math.pi) ** 2 * (lead * lead) / (3.0 * d * d * d)
    # u^2 * bracket(u)^2 <= (2pi)^2 * lead^2 * u^2/(u^2-pi^2)^2 <= that /(U-pi)
    integral_u = (2.0 * math.pi) ** 2 * (lead * lead) / d
    # back to k units: k^2 dk = (2/dx)^3 u^2 du
    return (2.0 * C * integral,
            2.0 * C * integral_u * (2.0 / delta_x) * (2.0 / delta_x))
