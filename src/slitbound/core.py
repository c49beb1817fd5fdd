"""Fourier basis on a slit interval, the minimum-uncertainty state and
standard-deviation inequality checks.

A particle prepared by a slit of width ``delta_x`` lives on the interval
[-delta_x/2, delta_x/2].  The momentum point-spectrum on that interval is
p_n = hbar * 2*pi*n/delta_x, and a slit state is an even coefficient vector
c_n = c_-n over those modes, given as its half c_0..c_N and kept normalized;
each sum over the modes takes c_0 once and c_1..c_N twice.  The variational
minimum of sigma_p subject to normalization and a vanishing boundary
amplitude is the half-period cosine state; its coefficients and moments
are provided here together with the inequality verdicts (Kennard,
delta_x * delta_p against 2 hbar and h, and the sharp bound
sigma_p * delta_x >= pi * hbar).  Units are natural, hbar = 1, so a
momentum is a wavenumber.

The module is pure Python on floats and loads no numpy, so ``minstate``,
like ``lpbound`` and ``reanalyze``, starts without it.  Every sum is a
math.fsum.
"""

import math
from typing import NamedTuple

from . import InvalidArgument, _ordered

# the most modes per side, checked before the 2*n_max+1 modes are built
MAX_NMAX = 1_000_000


class FourierState:
    """Even slit state c_n = c_-n, n = -n_max..n_max, given by its half.

    ``half`` is c_0..c_n_max in order with n_max >= 1, real or complex; a
    non-number, a Decimal, text, bytes, a set or a mapping is refused.  It is
    kept divided by the norm, a numpy scalar read through tolist(): Parseval
    holds to machine precision and a real input stays real.  ``weights`` is
    the half's |c_n|^2, formed once for every moment and check.
    """

    def __init__(self, slit_width: float, *, half):
        _check_width(slit_width)
        try:
            half = tuple(_ordered(half, "half"))
            if len(half) < 2:  # the length first, before an overflowing entry
                raise ValueError
            if not {float, int, complex}.issuperset(map(type, half)):
                # tolist() reads a numpy scalar as an array's entry; a Decimal refuses + 0.0
                half = [z.tolist() if hasattr(z, "tolist") else z + 0.0 for z in half]
            sq = [v * v for v in map(float, map(abs, half))]  # a float before it is squared
            norm2 = math.fsum(sq + sq[1:])
        except (TypeError, ValueError):  # not a sequence, not numbers or too short
            raise InvalidArgument("half must be a 1-d vector c_0..c_N with N >= 1") from None
        except OverflowError:  # an entry, a modulus or the sum beyond the float range
            norm2 = math.inf
        if not 2.0**-1022 <= norm2 < math.inf:  # zero, subnormal, inf or nan
            raise InvalidArgument(f"cannot normalize a coefficient vector of squared norm {norm2}")
        norm = math.sqrt(norm2)
        self.slit_width = float(slit_width)
        self.n_max = len(half) - 1
        self.half = tuple([z / norm for z in half])
        self.weights = tuple([v * v for v in map(abs, self.half)])


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
    return FourierState(delta_x, half=half)


def momentum_moments(state: FourierState) -> float:
    """Standard deviation of momentum from the coefficient series.

    An even state's mean is 0, so sigma_p = (2*pi/delta_x) * sqrt(sum n^2 |c_n|^2)."""
    w = state.weights
    if abs(math.fsum(w + w[1:]) - 1.0) > 1e-8:
        raise InvalidArgument("state does not satisfy Parseval within tolerance")
    # each n > 0 term doubled, exactly, for -n: m2 is the fsum over every mode
    m2 = 2.0 * math.fsum([n * n * v for n, v in enumerate(w)])
    return 2.0 * math.pi / state.slit_width * math.sqrt(m2)


def _check_width(delta_x: float) -> None:
    """Refuse a slit width that is not positive and finite: zero, negative, inf or nan."""
    if not 0 < delta_x < math.inf:
        raise InvalidArgument(f"delta_x must be positive and finite, got {delta_x}")


def _over(f, x):
    """f at a number x as a float, or the list of f over a sequence x."""
    return [f(float(v)) for v in _ordered(x, "points")] if hasattr(x, "__iter__") else f(float(x))


def _sinc(t: float) -> float:
    """sin(t)/t as np.sinc forms it, 1 at t = 0; each caller's |t| is at most pi."""
    return math.sin(t) / t if t else 1.0


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
        return amp * math.cos(math.pi * (v / delta_x))

    return _over(psi, x)


def _momentum_shape(u: float) -> float:
    """cos(u/2)/(pi^2 - u^2), within 1e-4 of u = +/- pi by the form without
    the removable singularity: with s = |u| - pi it is sin(s/2)/(s*(2*pi+s))."""
    s = abs(u) - math.pi
    if abs(s) < 1e-4:
        y = math.pi * (s / (2.0 * math.pi))
        return 0.5 * _sinc(y) / (2.0 * math.pi + s)
    # the grids reach an infinite u below a width of about 1e-309 m, where
    # math.cos raises: nan there, as numpy gives, refused as non-finite
    return (math.cos(u / 2.0) if math.isfinite(u) else math.nan) / (math.pi**2 - u * u)


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
    h, w = state.half, state.weights
    # (-1)^n c_n over every mode: -c_0, then 2 c_n for the even n >= 0 and -2 c_n for the odd
    t = [-h[0]] + [2.0 * z for z in h[::2]] + [-2.0 * z for z in h[1::2]]
    boundary = math.hypot(math.fsum([z.real for z in t]), math.fsum([z.imag for z in t]))
    return ConstraintResiduals(parseval=abs(math.fsum(w + w[1:]) - 1.0), boundary=boundary)


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
