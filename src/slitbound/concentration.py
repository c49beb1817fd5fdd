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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericFailure

# a momentum uncertainty is well defined when its window can hold at least
# this probability weight
WELL_DEFINED_THRESHOLD = 0.70

# psi0 is expanded on the even normalized Legendre polynomials P_0, P_2, ...,
# P_94; at c = pi*_XI_SATURATED/2 the last four coefficients are ~5e-27
_N_TERMS = 48
# lambda0 is nondecreasing and at most 1, and Slepian's asymptotic
# 1 - lambda0 ~ 4 sqrt(pi c) exp(-2c) is ~1e-42 at xi = 32, so lambda0 of every
# larger xi is that of xi = 32 to double precision
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
# P_2k(0) = sqrt((4k+1)/2) (-1)^k (2k)!/(4^k k!^2), the ratio as a running product
_P_AT_ZERO = np.sqrt((2 * _N + 1) / 2.0) * np.cumprod(
    np.concatenate([[1.0], (1.0 - _N[1:]) / _N[1:]]))


@dataclass(frozen=True)
class LpBoundResult:
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
    if not (np.isfinite(xi) and xi >= 0):
        raise InvalidArgument(f"xi must be finite and nonnegative, got {xi}")
    c = np.pi * min(xi, _XI_SATURATED) / 2.0
    prolate = np.diag(_N * (_N + 1) + c * c * _U2_DIAG)
    i = np.arange(_N_TERMS - 1)
    prolate[i + 1, i] = prolate[i, i + 1] = c * c * _U2_OFF
    try:
        _, vecs = np.linalg.eigh(prolate)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"prolate eigensolve failed at xi={xi}: {exc}") from exc
    beta = vecs[:, 0]
    tail = float(np.max(np.abs(beta[-4:])))
    if tail > _TAIL_TOL:
        raise NumericFailure(
            f"Legendre expansion tail {tail:.3e} exceeds {_TAIL_TOL} at xi={xi}"
        )
    lam = float(c / np.pi * beta[0] ** 2 / (beta @ _P_AT_ZERO) ** 2)
    if lam - 1.0 > _LAMBDA_EXCESS_TOL:
        raise NumericFailure(f"lambda0 = {lam!r} exceeds 1 at xi={xi}")
    if lam > 1.0 - _LAMBDA_ROUNDING:
        lam = 1.0
    return LpBoundResult(xi=float(xi), kernel_c=np.pi * xi / 2.0, lambda0=lam, tail=tail)


def well_defined_verdict(probability: float) -> bool:
    """True iff the captured probability weight reaches
    WELL_DEFINED_THRESHOLD (closed comparison)."""
    if not 0.0 <= probability <= 1.0:
        raise InvalidArgument(f"probability must be in [0, 1], got {probability}")
    return probability >= WELL_DEFINED_THRESHOLD
