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

from .core import SampledDensity
from .errors import InvalidArgument, NumericFailure

_EIG_RESIDUAL_TOL = 1e-10
# largest excess of lambda0 over 1 that counts as rounding and is clipped;
# at grid 400 the excess is below 1e-13 up to xi = 200, 3e-12 at xi = 236
# and 2.0 at xi = 400
_LAMBDA_EXCESS_TOL = 1e-12


@dataclass(frozen=True)
class LpBoundResult:
    xi: float
    kernel_c: float
    lambda0: float
    grid_size: int
    residual: float


def _nystrom_matrix(xi: float, grid_size: int) -> np.ndarray:
    """Nystrom discretization of the concentration operator: the sinc kernel
    at Gauss-Legendre nodes on [-1, 1], symmetrized with the square-root
    weight diagonal."""
    if xi < 0:
        raise InvalidArgument(f"xi must be nonnegative, got {xi}")
    if grid_size < 32:
        raise InvalidArgument(f"grid_size must be >= 32, got {grid_size}")
    c = np.pi * xi / 2.0
    u, w = np.polynomial.legendre.leggauss(grid_size)
    du = u[:, None] - u[None, :]
    off = ~np.eye(grid_size, dtype=bool)
    kernel = np.full_like(du, c / np.pi)
    kernel[off] = np.sin(c * du[off]) / (np.pi * du[off])
    sw = np.sqrt(w)
    return sw[:, None] * kernel * sw[None, :]


def concentration_eigenvalues(xi: float, grid_size: int = 400) -> np.ndarray:
    """All eigenvalues of the Nystrom-discretized concentration operator,
    ascending."""
    return np.linalg.eigvalsh(_nystrom_matrix(xi, grid_size))


def lp_lambda0(xi: float, grid_size: int = 400) -> LpBoundResult:
    """Largest concentration eigenvalue lambda0(xi), with eigen-residual.

    Monotone nondecreasing in xi, lambda0(0) = 0, -> 1 as xi -> infinity.
    Raises NumericFailure where the grid no longer resolves the kernel and
    the eigenvalue exceeds 1 by more than rounding.
    """
    A = _nystrom_matrix(xi, grid_size)
    if xi == 0.0:
        return LpBoundResult(xi=0.0, kernel_c=0.0, lambda0=0.0,
                             grid_size=grid_size, residual=0.0)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            f"concentration eigensolve failed at xi={xi}, grid={grid_size}: {exc}"
        ) from exc
    lam = float(vals[-1])
    v = vecs[:, -1]
    residual = float(np.linalg.norm(A @ v - lam * v))
    if residual > _EIG_RESIDUAL_TOL:
        raise NumericFailure(
            f"eigenpair residual {residual:.3e} exceeds {_EIG_RESIDUAL_TOL} "
            f"at xi={xi}, grid={grid_size}"
        )
    if lam - 1.0 > _LAMBDA_EXCESS_TOL:
        raise NumericFailure(
            f"lambda0 = {lam!r} exceeds 1 at xi={xi}: grid={grid_size} "
            f"does not resolve the kernel"
        )
    return LpBoundResult(xi=float(xi), kernel_c=np.pi * xi / 2.0, lambda0=min(lam, 1.0),
                         grid_size=int(grid_size), residual=residual)


def concentration_probability(density, delta_p: float, assume_normalized: bool = False) -> float:
    """Probability mass of a momentum density inside |p| <= delta_p/2.

    ``density`` is either a SampledDensity or a callable density function;
    the density must be normalized to 1 (checked unless assume_normalized).
    """
    if delta_p < 0:
        raise InvalidArgument(f"delta_p must be nonnegative, got {delta_p}")
    if delta_p == 0:
        return 0.0
    if isinstance(density, SampledDensity):
        if not assume_normalized and abs(density.integral() - 1.0) > 1e-8:
            raise InvalidArgument(f"density not normalized: integral = {density.integral()!r}")
        g, v = density.grid, density.values
        lo, hi = -delta_p / 2.0, delta_p / 2.0
        lo = max(lo, g[0])
        hi = min(hi, g[-1])
        if hi <= lo:
            return 0.0
        pts = np.unique(np.concatenate([[lo], g[(g > lo) & (g < hi)], [hi]]))
        return float(np.trapezoid(np.interp(pts, g, v), pts))
    if callable(density):
        from scipy.integrate import quad

        if not assume_normalized:
            total, _ = quad(density, -np.inf, np.inf, limit=400)
            if abs(total - 1.0) > 1e-6:
                raise InvalidArgument(f"density not normalized: integral = {total!r}")
        val, _ = quad(density, -delta_p / 2.0, delta_p / 2.0, limit=400, epsabs=1e-12)
        return float(min(max(val, 0.0), 1.0))
    raise InvalidArgument("density must be a SampledDensity or a callable")


def well_defined_verdict(probability: float, threshold: float = 0.70) -> bool:
    """True iff the captured probability weight reaches the threshold
    (closed comparison, default 70%)."""
    if not 0.0 <= probability <= 1.0:
        raise InvalidArgument(f"probability must be in [0, 1], got {probability}")
    return probability >= threshold
