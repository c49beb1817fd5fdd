"""Least upper bound on the momentum probability captured by a window.

For a state confined to an interval of width delta_x, the probability that
its momentum lies in a window of width delta_p cannot exceed lambda0(xi),
xi = delta_x*delta_p/h: the largest eigenvalue of the time-/band-limiting
concentration operator.  On the normalized interval [-1, 1] the operator
kernel is sin(c(u-v))/(pi(u-v)) with bandwidth parameter c = pi*xi/2
(band |k| <= delta_p/(2 hbar) against half-width delta_x/2 gives
c = delta_x*delta_p/(4 hbar)).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, NumericFailure

# a momentum uncertainty is well defined when its window can hold at least
# this probability weight
WELL_DEFINED_THRESHOLD = 0.70

# psi0 is expanded on n = 16 + ceil(c/2) even normalized Legendre polynomials
# P_0, ..., P_2n-2, which keeps the last four coefficients below 3e-18 for every
# c; the largest n, at c = pi*_XI_SATURATED/2, is 42 (tail ~2.4e-23 there)
_N_TERMS = 42
# lambda0 is nondecreasing and at most 1, and Slepian's asymptotic
# 1 - lambda0 ~ 4 sqrt(pi c) exp(-2c) is ~1e-42 at xi = 32, so lambda0 of every
# larger xi is that of xi = 32 to double precision: one solve serves them all
_XI_SATURATED = 32.0
_TAIL_TOL = 1e-15
# the computed lambda0 carries a rounding error of about 1e-15 (it reads
# 1 +- 1.3e-15 from xi = 12 up), so a value within _LAMBDA_ROUNDING of 1 is
# reported as 1; an excess over 1 beyond _LAMBDA_EXCESS_TOL is a fault
_LAMBDA_ROUNDING = 1e-14
_LAMBDA_EXCESS_TOL = 1e-12

_N = 2.0 * np.arange(_N_TERMS)
# matrix of u^2 between normalized Legendre polynomials: diagonal <P_n, u^2 P_n>
# and off-diagonal <P_n+2, u^2 P_n>
_U2_DIAG = (2 * _N * (_N + 1) - 1) / ((2 * _N + 3) * (2 * _N - 1))
_U2_OFF = ((_N[:-1] + 1) * (_N[:-1] + 2)
           / ((2 * _N[:-1] + 3) * np.sqrt((2 * _N[:-1] + 1) * (2 * _N[:-1] + 5))))
# the prolate matrix at c is _PROLATE_0 + c^2 _U2, both cut to the solve's size
_PROLATE_0 = np.diag(_N * (_N + 1))
_U2 = np.diag(_U2_DIAG) + np.diag(_U2_OFF, 1) + np.diag(_U2_OFF, -1)
# P_2k(0) = sqrt((4k+1)/2) (-1)^k (2k)!/(4^k k!^2), the ratio as a running product
_P_AT_ZERO = np.sqrt((2 * _N + 1) / 2.0) * np.cumprod(
    np.concatenate([[1.0], (1.0 - _N[1:]) / _N[1:]]))


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
    lam, tail = _solve(xi) if xi < _XI_SATURATED else _saturated()
    return LpBoundResult(xi=float(xi), kernel_c=np.pi * xi / 2.0, lambda0=lam, tail=tail)


@functools.cache
def _saturated() -> tuple[float, float]:
    """(lambda0, tail) of every xi >= _XI_SATURATED, solved on first use."""
    return _solve(_XI_SATURATED)


def _solve(xi: float) -> tuple[float, float]:
    """(lambda0, tail) from the prolate eigenproblem at xi <= _XI_SATURATED."""
    c = np.pi * xi / 2.0
    n = 16 + math.ceil(c / 2.0)
    try:
        _, vecs = np.linalg.eigh(_PROLATE_0[:n, :n] + (c * c) * _U2[:n, :n])
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"prolate eigensolve failed at xi={xi}: {exc}") from exc
    beta = vecs[:, 0]
    coeffs = beta.tolist()
    tail = max(map(abs, coeffs[-4:]))
    if tail > _TAIL_TOL:
        raise NumericFailure(
            f"Legendre expansion tail {tail:.3e} exceeds {_TAIL_TOL} at xi={xi}"
        )
    lam = float(c / np.pi * coeffs[0] ** 2 / (beta @ _P_AT_ZERO[:n]) ** 2)
    if lam - 1.0 > _LAMBDA_EXCESS_TOL:
        raise NumericFailure(f"lambda0 = {lam!r} exceeds 1 at xi={xi}")
    if lam > 1.0 - _LAMBDA_ROUNDING:
        lam = 1.0
    return lam, tail


def well_defined_verdict(probability: float) -> bool:
    """True iff the captured probability weight reaches
    WELL_DEFINED_THRESHOLD (closed comparison)."""
    if not 0.0 <= probability <= 1.0:
        raise InvalidArgument(f"probability must be in [0, 1], got {probability}")
    return probability >= WELL_DEFINED_THRESHOLD
