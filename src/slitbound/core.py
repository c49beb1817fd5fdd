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

The module is pure Python on floats and loads no numpy, so ``minstate``,
like ``lpbound`` and ``reanalyze``, starts without it.  Every sum is a
math.fsum.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from . import InvalidArgument

# the most modes per side, checked before the 2*n_max+1 modes are built
MAX_NMAX = 1_000_000


class FourierState:
    """Slit state as a truncated coefficient vector c_n, n = -n_max..n_max.

    Coefficients are renormalized at construction so that sum |c_n|^2 = 1
    holds to machine precision (Parseval).  ``coefficients`` is a tuple of
    complex, ``weights`` the tuple of their |c_n|^2, formed once for every
    moment and check, and ``n_values`` the matching range of n.
    """

    def __init__(self, slit_width: float, coefficients):
        _check_width(slit_width)
        try:
            raw = tuple(coefficients)
            c = tuple(map(complex, raw))
        except (TypeError, ValueError):
            c = ()
        except OverflowError:  # an int beyond the float range, whose square is inf
            c = (math.inf,) * len(raw)
        if len(c) % 2 == 0 or len(c) < 3:
            raise InvalidArgument(
                "coefficients must be a 1-d odd-length vector covering n=-n_max..n_max "
                "with n_max >= 1"
            )
        try:
            norm2 = math.fsum([v * v for v in map(abs, c)])
        except OverflowError:  # a modulus or the sum beyond the float range
            norm2 = math.inf
        if not 2.0**-1022 <= norm2 < math.inf:  # zero, subnormal, inf or nan
            raise InvalidArgument(f"cannot normalize a coefficient vector of squared norm {norm2}")
        norm = math.sqrt(norm2)
        self.slit_width = float(slit_width)
        self.coefficients = tuple([z / norm for z in c])
        self.weights = tuple([v * v for v in map(abs, self.coefficients)])

    @property
    def n_max(self) -> int:
        return (len(self.coefficients) - 1) // 2

    @property
    def n_values(self) -> range:
        return range(-self.n_max, self.n_max + 1)


class UncertaintyReport(NamedTuple):
    """A slit-state report's bound block, products in units of hbar: the
    fields are the report's keys, so a command writes the record whole."""

    sigma_p: float
    delta_p: float
    product_over_hbar: float
    verdicts: dict


def min_uncertainty_coefficients(n_max: int, delta_x: float) -> FourierState:
    """Coefficients of the variational minimum-uncertainty slit state.

    c_n is proportional to (-1)^n / (1 - 4 n^2), renormalized after
    truncation at |n| <= n_max.
    """
    if not hasattr(type(n_max), "__index__") or not 1 <= n_max <= MAX_NMAX:
        raise InvalidArgument(f"n_max must be an integer from 1 to {MAX_NMAX}, got {n_max!r}")
    a = math.sqrt(8.0) / math.pi
    half = [(-a if n % 2 else a) / (1.0 - 4.0 * n * n) for n in range(n_max + 1)]
    return FourierState(delta_x, half[:0:-1] + half)


def momentum_moments(state: FourierState):
    """Mean and standard deviation of momentum from the coefficient series.

    Returns (mean, sigma_p) with mean = (2*pi/delta_x) * sum n |c_n|^2.
    """
    w = state.weights
    if abs(math.fsum(w) - 1.0) > 1e-8:
        raise InvalidArgument("state does not satisfy Parseval within tolerance")
    n = state.n_values
    scale = 2.0 * math.pi / state.slit_width
    m1 = math.fsum(map(operator.mul, n, w))
    m2 = math.fsum(map(operator.mul, map(operator.mul, n, n), w))  # each term (k*k)*x
    var = m2 - m1 * m1
    mean = scale * m1
    sigma_p = scale * math.sqrt(max(var, 0.0))
    return mean, sigma_p


def _check_width(delta_x: float) -> None:
    """Refuse a slit width that is not positive: zero, negative or nan."""
    if not delta_x > 0:
        raise InvalidArgument(f"delta_x must be positive, got {delta_x}")


def _over(f, x):
    """f at a number x as a float, or the list of f over a sequence x."""
    return [f(float(v)) for v in x] if hasattr(x, "__iter__") else f(float(x))


def _nan_at_inf(f):
    """The math function f with nan at an infinite argument, where math raises
    and numpy gives nan: the output checks refuse the value as non-finite."""
    return lambda t: f(t) if math.isfinite(t) else math.nan


_cos, _sin = _nan_at_inf(math.cos), _nan_at_inf(math.sin)


def _sinc(t: float) -> float:
    """sin(t)/t as np.sinc forms it: 1 at t = 0, nan at an infinite t."""
    return _sin(t) / t if t else 1.0


def eval_position_wavefunction(x, delta_x: float):
    """Half-period cosine amplitude sqrt(2/delta_x) * cos(pi*x/delta_x).

    Defined only inside the slit; |x| > delta_x/2 is a domain error.  A
    float for a number x, a list for a sequence.
    """
    _check_width(delta_x)
    amp = math.sqrt(2.0 / delta_x)

    def psi(v):
        if abs(v) > delta_x / 2 * (1 + 1e-12):
            raise InvalidArgument("x outside the slit: the prepared state vanishes there")
        return amp * _cos(math.pi * (v / delta_x))

    return _over(psi, x)


def _momentum_shape(u: float) -> float:
    """cos(u/2)/(pi^2 - u^2), within 1e-4 of u = +/- pi by the form without
    the removable singularity: with s = |u| - pi it is sin(s/2)/(s*(2*pi+s))."""
    s = abs(u) - math.pi
    if abs(s) < 1e-4:
        y = math.pi * (s / (2.0 * math.pi))
        return 0.5 * _sinc(y) / (2.0 * math.pi + s)
    return _cos(u / 2.0) / (math.pi**2 - u * u)


def eval_momentum_wavefunction(k, delta_x: float):
    """Wavenumber-space amplitude of the minimum-uncertainty state.

    2*sqrt(pi*delta_x) * cos(delta_x*k/2) / (pi^2 - delta_x^2 k^2), with the
    removable singularities at delta_x*k = +/- pi evaluated by their finite
    limit sqrt(delta_x/pi)/2.  A float for a number k, a list for a sequence.
    """
    _check_width(delta_x)
    amp = 2.0 * math.sqrt(math.pi) * math.sqrt(delta_x)
    return _over(lambda v: amp * _momentum_shape(v * delta_x), k)


class ConstraintResiduals(NamedTuple):
    parseval: float
    boundary: float


def verify_constraints(state: FourierState) -> ConstraintResiduals:
    """Residuals of the two slit-state constraints.

    parseval = |sum |c_n|^2 - 1|; boundary = |sum (-1)^n conj(c_n)|, the
    amplitude left at the slit edges.
    """
    c = state.coefficients
    parseval = abs(math.fsum(state.weights) - 1.0)
    # index i holds n = i - n_max, so the even n start at index n_max % 2
    even, odd = c[state.n_max % 2::2], c[1 - state.n_max % 2::2]
    real = math.fsum([z.real for z in even] + [-z.real for z in odd])
    imag = math.fsum([z.imag for z in even] + [-z.imag for z in odd])
    return ConstraintResiduals(parseval=parseval, boundary=math.hypot(real, imag))


def build_report(sigma_x: float | None, sigma_p: float, delta_x: float) -> UncertaintyReport:
    """The report's bound block: uncertainty products and inequality verdicts.

    delta_p = 2*sigma_p by definition; the product reported is sigma_p *
    delta_x / hbar so the sharp bound reads product >= pi.  A sigma_x adds
    the Kennard verdict."""
    if sigma_p < 0 or (sigma_x is not None and sigma_x < 0):
        raise InvalidArgument("standard deviations must be nonnegative")
    _check_width(delta_x)
    delta_p = 2.0 * sigma_p
    product = sigma_p * delta_x
    verdicts = {
        "sigma_p_delta_x_gt_hbar": bool(product > 1.0),
        "sigma_p_delta_x_ge_pi_hbar": bool(product >= math.pi),
        "delta_x_delta_p_gt_2hbar": bool(delta_x * delta_p > 2.0),
        "delta_x_delta_p_ge_2pi_hbar": bool(delta_x * delta_p >= 2.0 * math.pi),
    }
    if sigma_x is not None:
        verdicts["kennard"] = bool(sigma_x * sigma_p >= 0.5)
    return UncertaintyReport(sigma_p, delta_p, product, verdicts)
