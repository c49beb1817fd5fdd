"""Reanalysis of published slit uncertainty products.

Takes measured products delta_x*delta_p = a*hbar, maps each to the window
parameter xi = a/(2*pi), looks up the concentration bound lambda0(xi), and
applies the >= 70% probability-weight criterion for a well-defined momentum
uncertainty.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .concentration import lp_lambda0, well_defined_verdict
from .errors import InvalidArgument


class ReanalysisRow(NamedTuple):
    a: float
    xi: float
    lambda0: float
    well_defined: bool


def reanalyze_products(a_values) -> list[ReanalysisRow]:
    """One ReanalysisRow per product a (in units of hbar): xi = a/(2*pi),
    the concentration bound at that xi, and the well-definedness verdict."""
    a_arr = [float(a) for a in a_values]
    if not all(math.isfinite(a) and a > 0 for a in a_arr):
        raise InvalidArgument("all products a must be finite and positive")
    rows = []
    for a in a_arr:
        xi = a / (2.0 * math.pi)
        lam = lp_lambda0(xi).lambda0
        rows.append(ReanalysisRow(a=a, xi=xi, lambda0=lam, well_defined=well_defined_verdict(lam)))
    return rows
