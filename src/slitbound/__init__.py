"""Numerical verification of the sharp slit uncertainty bound
sigma_p * delta_x >= pi * hbar, concentration-bound reanalysis of measured
uncertainty products, and an end-to-end 4f diffraction simulation.

The package defines the exception types and the readers of every public entry and imports
no submodule; every other name below loads its submodule on first use (PEP 562)."""

import importlib
import math
from collections.abc import Mapping, Set

__version__ = "0.1.0"


class InvalidArgument(ValueError):
    """An input violates a documented precondition."""


class NumericFailure(RuntimeError):
    """A numerical routine failed to converge or produced an unusable result."""


def _ordered(x, name: str):
    """x, if a 1-d sequence, but not text, bytes, a set or a mapping: by character, hash or key."""
    if isinstance(x, (str, bytes, bytearray, Set, Mapping)) or not hasattr(x, "__iter__") \
            or getattr(x, "ndim", 1) != 1:
        raise InvalidArgument(f"{name} must be numbers in order, not a {type(x).__name__}")
    return x


def _real(x, name: str):
    """x, if real: numpy data of kind b, i, u or f (read as floats, text is parsed and a
    complex loses its imaginary part), any other object a type with __float__."""
    if not (x.dtype.kind in "biuf" if hasattr(x, "dtype") else hasattr(type(x), "__float__")):
        raise InvalidArgument(f"{name} must be real, not {getattr(x, 'dtype', type(x).__name__)}")
    return x


def _float(x, name: str) -> float:
    """x as a float, if one real number within the float range."""
    try:
        return float(_real(x, name))
    except (OverflowError, TypeError):  # an int or a Fraction past the floats, or an array
        raise InvalidArgument(f"{name} must be one number within the float range") from None


def _number(x, name: str, strict: bool = True) -> float:
    """x as a float, refused unless finite and positive, or nonnegative where not strict."""
    v = _float(x, name)
    if not (v < math.inf and (v > 0 if strict else v >= 0)):
        raise InvalidArgument(f"{name} must be positive and finite, got {v}" if strict
                              else f"{name} must be finite and nonnegative, got {v}")
    return abs(v)  # -0.0 as +0.0, so no result or report echoes a negative zero


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
