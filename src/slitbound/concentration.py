"""Least upper bound on the momentum probability captured by a window.

For a state confined to an interval of width delta_x, the probability that
its momentum lies in a window of width delta_p cannot exceed lambda0(xi),
xi = delta_x*delta_p/h: the largest eigenvalue of the time-/band-limiting
concentration operator.  On the normalized interval [-1, 1] the operator
kernel is sin(c(u-v))/(pi(u-v)) with bandwidth parameter c = pi*xi/2
(band |k| <= delta_p/(2 hbar) against half-width delta_x/2 gives
c = delta_x*delta_p/(4 hbar)).

lambda0 comes from the ground state of the prolate matrix, a symmetric
tridiagonal eigenproblem of at most 42 terms solved in pure Python: Newton's
iteration on det(T - mu) from an estimate of the smallest eigenvalue that the
bottom-up LDL^T pivots certify to lie below it (Sturm), else from mu = 0, and
the eigenvector from the ratios of those pivots.  No numpy is loaded.

Measured products delta_x*delta_p = a*hbar are reanalyzed here too: each maps
to the window parameter xi = a/(2*pi), and its momentum uncertainty is well
defined when lambda0(xi) reaches the 70 % probability weight.
"""

import itertools
import math
import operator
from typing import NamedTuple

from . import InvalidArgument, NumericFailure, _ordered

# a momentum uncertainty is well defined when its window can hold at least
# this probability weight
WELL_DEFINED_THRESHOLD = 0.70
# the first double at which lp_lambda0 reaches WELL_DEFINED_THRESHOLD: a
# 40-digit solve of the same expansion crosses at 0.834937951317756172, and
# the double nearest it, 0.8349379513177562, lies below and reads 1 ulp short
WELL_DEFINED_XI = 0.8349379513177563

# psi0 is expanded on n = 16 + ceil(c/2) even normalized Legendre polynomials
# P_0, ..., P_2n-2, which keeps the last four coefficients below 3e-18 for every
# c; the largest n, at c = pi*_XI_SATURATED/2, is 42 (tail ~2.4e-23 there)
_N_TERMS = 42
# lambda0 is nondecreasing and at most 1, and Slepian's asymptotic
# 1 - lambda0 ~ 4 sqrt(pi c) exp(-2c) is ~1e-42 at xi = 32, so lambda0 of every
# larger xi is that of xi = 32 to double precision: one solve serves them all
_XI_SATURATED = 32.0
_TAIL_TOL = 1e-15
# the computed lambda0 carries a rounding error of a few 1e-15 (it reads
# 1 - 3.8e-15 to 1 + 2.4e-15 on a 1e-3 grid from xi = 14 up), so a value
# within _LAMBDA_ROUNDING of 1 is reported as 1; an excess over 1 beyond
# _LAMBDA_EXCESS_TOL is a fault
_LAMBDA_ROUNDING = 1e-14
_LAMBDA_EXCESS_TOL = 1e-12

_N = [2.0 * k for k in range(_N_TERMS)]
# the prolate matrix at c: diagonal N(N+1) + c^2 <P_N, u^2 P_N> and
# off-diagonal c^2 <P_N+2, u^2 P_N>, cut to the solve's size
_U2_DIAG = [(2 * n * (n + 1) - 1) / ((2 * n + 3) * (2 * n - 1)) for n in _N]
_U2_OFF = [(n + 1) * (n + 2) / ((2 * n + 3) * math.sqrt((2 * n + 1) * (2 * n + 5)))
           for n in _N[:-1]]
# P_2k(0) = sqrt((4k+1)/2) (-1)^k (2k)!/(4^k k!^2), the ratio as a running product
_P_AT_ZERO = [math.sqrt((2 * n + 1) / 2.0) * r for n, r in zip(
    _N, itertools.accumulate([(1.0 - n) / n for n in _N[1:]], operator.mul, initial=1.0))]


class LpBoundResult(NamedTuple):
    xi: float
    kernel_c: float
    lambda0: float
    tail: float


def lp_lambda0(xi: float) -> LpBoundResult:
    """Largest concentration eigenvalue lambda0(xi), with the expansion tail.

    The top eigenfunction psi0 of the concentration operator is the ground
    state of the prolate operator -d/du (1-u^2) d/du + c^2 u^2, which commutes
    with it (Slepian & Pollak 1961) and is symmetric tridiagonal on the even
    normalized Legendre polynomials (Osipov, Rokhlin & Xiao 2013).  With
    psi0 = sum_k beta_k P_2k, lambda0 = (c/pi) beta_0^2 / psi0(0)^2.  ``tail``
    is the largest |beta_k| of the last four terms, the truncation
    certificate.

    Monotone nondecreasing in xi, lambda0(0) = 0, -> 1 as xi -> infinity.
    """
    if not (math.isfinite(xi) and xi >= 0):
        raise InvalidArgument(f"xi must be finite and nonnegative, got {xi}")
    xi = abs(xi)  # -0.0 as +0.0, so no result is a negative zero
    lam, tail = _solve(xi) if xi < _XI_SATURATED else _SATURATED
    return LpBoundResult(xi=float(xi), kernel_c=math.pi * xi / 2.0, lambda0=lam, tail=tail)


def _start(c: float) -> float:
    """Newton's start: chi_0(c)'s small-c series or large-c form, kept below it."""
    return c * c / 3.0 - 2.0 * c**4 / 135.0 if c < 2.0 else c - 0.75 - 0.35 / c


def _solve(xi: float) -> tuple[float, float]:
    """(lambda0, tail) from the prolate eigenproblem at xi <= _XI_SATURATED.

    From any mu below the smallest eigenvalue of T, Newton's iteration on
    det(T - mu) rises monotonically to it: each step is 1/trace((T - mu)^-1),
    summed from the bottom-up LDL^T pivots p_k of T - mu and their
    mu-derivatives.  It starts at _start(c) if every pivot there is positive,
    which puts the start below that eigenvalue (Sturm), and otherwise restarts
    from mu = 0, below it as T is positive definite for c > 0; no xi from 1e-3
    up restarts, many below 4.2e-4 do.  The iteration ends when a step no
    longer moves mu, or when p_0 reaches 0 (at once for c = 0), which puts mu
    on the eigenvalue to rounding.  The eigenvector follows from the last
    pivots, x_k/x_{k-1} = -b_{k-1}/p_k with x_0 = 1, where b is the
    off-diagonal: its decaying tail keeps its relative accuracy, and its small
    components underflow rather than overflow."""
    c = math.pi * xi / 2.0
    n = 16 + math.ceil(c / 2.0)
    c2 = c * c
    diag = [m * (m + 1) + c2 * u for m, u in zip(_N[:n], _U2_DIAG)]
    off = [c2 * u for u in _U2_OFF[:n - 1]]
    off2 = [b * b for b in off]
    mu = start = _start(c)
    while True:
        # pivots p_n-1, ..., p_1, t = b^2/p_k+1, q = -(dp_k/dmu)/p_k, s = sum q
        p = diag[-1] - mu
        pivots, q = [p], 1.0 / p
        s = q
        for d, b2 in zip(diag[-2:0:-1], off2[:0:-1]):
            t = b2 / p
            p = d - mu - t
            q = (1.0 + t * q) / p
            pivots.append(p)
            s += q
        t = off2[0] / p
        p0 = diag[0] - mu - t
        if mu == start != 0.0 and (p0 <= 0.0 or min(pivots) <= 0.0):
            mu = start = 0.0  # the first pass found the start not below chi_0
            continue
        if p0 <= 0.0:
            break
        step = 1.0 / (s + (1.0 + t * q) / p0)
        if mu + step == mu:
            break
        mu += step
    x = [1.0]
    for b, p in zip(off, reversed(pivots)):
        x.append(-b * x[-1] / p)
    tail = max(map(abs, x[-4:])) / math.hypot(*x)
    if tail > _TAIL_TOL:
        raise NumericFailure(
            f"Legendre expansion tail {tail:.3e} exceeds {_TAIL_TOL} at xi={xi}"
        )
    lam = c / math.pi / sum(map(operator.mul, x, _P_AT_ZERO)) ** 2
    if lam - 1.0 > _LAMBDA_EXCESS_TOL:
        raise NumericFailure(f"lambda0 = {lam!r} exceeds 1 at xi={xi}")
    if lam > 1.0 - _LAMBDA_ROUNDING:
        lam = 1.0
    return lam, tail


# (lambda0, tail) of every xi >= _XI_SATURATED, solved once at import
_SATURATED = _solve(_XI_SATURATED)


class ReanalysisRow(NamedTuple):
    a: float
    xi: float
    lambda0: float
    well_defined: bool


def reanalyze_products(a_values) -> list[ReanalysisRow]:
    """One ReanalysisRow per product a (in units of hbar): xi = a/(2*pi),
    the concentration bound at that xi, and the well-definedness verdict."""
    a_arr = [float(a) for a in _ordered(a_values, "products a")]
    if not all(math.isfinite(a) and a > 0 for a in a_arr):
        raise InvalidArgument("all products a must be finite and positive")
    rows = []
    for a in a_arr:
        xi = a / (2.0 * math.pi)
        lam = lp_lambda0(xi).lambda0
        rows.append(ReanalysisRow(a, xi, lam, lam >= WELL_DEFINED_THRESHOLD))
    return rows
