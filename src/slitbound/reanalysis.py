"""Reanalysis of published slit uncertainty products.

Takes measured products delta_x*delta_p = a*hbar, maps each to the window
parameter xi = a/(2*pi), looks up the concentration bound lambda0(xi), and
applies the >= 70% probability-weight criterion for a well-defined momentum
uncertainty.  Also provides the fringe-slope momentum estimate those
products were derived from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concentration import lp_lambda0, well_defined_verdict
from .core import UnitsConvention
from .errors import InvalidArgument


@dataclass(frozen=True)
class FringeSlopes:
    """Interferogram fringe displacement data: mode frequency shift and the
    extreme fringe velocities."""

    delta_omega: float
    xdot_max: float
    xdot_min: float

    def __post_init__(self):
        if self.xdot_max < self.xdot_min:
            raise InvalidArgument("xdot_max must be >= xdot_min")


@dataclass(frozen=True)
class ReanalysisRow:
    a: float
    xi: float
    lambda0: float
    well_defined: bool


def fringe_delta_p(
    slopes: FringeSlopes,
    units: UnitsConvention = UnitsConvention(),
    pi_correction: bool = False,
) -> float:
    """Momentum spread estimated from the extreme fringe slopes:
    hbar * (delta_omega/2) * (xdot_max - xdot_min) / (xdot_max * xdot_min).

    ``pi_correction`` applies the suggested (not adopted) extra factor pi.
    """
    if slopes.xdot_max == 0.0 or slopes.xdot_min == 0.0:
        raise InvalidArgument(
            "fringe-slope momentum estimate requires nonzero xdot_max and xdot_min"
        )
    value = (
        units.hbar
        * (slopes.delta_omega / 2.0)
        * (slopes.xdot_max - slopes.xdot_min)
        / (slopes.xdot_max * slopes.xdot_min)
    )
    if pi_correction:
        value *= np.pi
    return value


def reanalyze_products(a_values, threshold: float = 0.70) -> list[ReanalysisRow]:
    """One ReanalysisRow per product a (in units of hbar): xi = a/(2*pi),
    the concentration bound at that xi, and the well-definedness verdict."""
    a_arr = [float(a) for a in a_values]
    if not all(np.isfinite(a) and a > 0 for a in a_arr):
        raise InvalidArgument("all products a must be finite and positive")
    rows = []
    for a in a_arr:
        xi = a / (2.0 * np.pi)
        lam = lp_lambda0(xi).lambda0
        rows.append(
            ReanalysisRow(a=a, xi=xi, lambda0=lam,
                          well_defined=well_defined_verdict(lam, threshold))
        )
    return rows
