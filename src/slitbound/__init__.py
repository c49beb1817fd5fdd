"""Numerical verification of the sharp slit uncertainty bound
sigma_p * delta_x >= pi * hbar, concentration-bound reanalysis of measured
uncertainty products, and an end-to-end 4f diffraction simulation.

The package defines the exception types and the readers' vector check and
imports no submodule; every other name below loads its submodule on first use (PEP 562)."""

import importlib
from collections.abc import Mapping, Set

__version__ = "0.1.0"


class InvalidArgument(ValueError):
    """An input violates a documented precondition."""


class NumericFailure(RuntimeError):
    """A numerical routine failed to converge or produced an unusable result."""


def _ordered(x, name: str):
    """x, unless text, bytes, a set or a mapping: those iterate by character, hash or key."""
    if isinstance(x, (str, bytes, bytearray, Set, Mapping)):
        raise InvalidArgument(f"{name} must be numbers in order, not a {type(x).__name__}")
    return x


# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(["LpBoundResult", "ReanalysisRow", "lp_lambda0", "reanalyze_products"],
                    "concentration"),
    **dict.fromkeys(["FourierState", "UncertaintyReport", "build_report",
                     "eval_momentum_wavefunction", "eval_position_wavefunction",
                     "min_uncertainty_coefficients", "momentum_moments",
                     "verify_constraints"], "core"),
    **dict.fromkeys(["DetectorSpec", "NoiseSpec", "SlitGeometry", "gamma_trace",
                     "synthesize_frame", "theory_trace"], "diffraction"),
    **dict.fromkeys(["eval_lanczos_momentum_density", "eval_lanczos_position", "lanczos_gamma",
                     "sine_integral"], "special"),
}
__all__ = ["InvalidArgument", "NumericFailure", *_HOMES]


def __getattr__(name):
    if name not in _HOMES:
        # an AttributeError lets `from slitbound import cli` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    # stored, so later lookups of the name cost what an eager import's would
    globals()[name] = value
    return value
