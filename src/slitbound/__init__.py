"""Numerical verification of the sharp slit uncertainty bound
sigma_p * delta_x >= pi * hbar, concentration-bound reanalysis of measured
uncertainty products, and an end-to-end 4f diffraction simulation.

Only the exception types are imported with the package; every other name
below loads its submodule on first use (PEP 562)."""

import importlib

from .errors import InvalidArgument, NumericFailure

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(["LpBoundResult", "lp_lambda0", "well_defined_verdict"], "concentration"),
    **dict.fromkeys(["FourierState", "SlitGeometry", "UncertaintyReport", "build_report",
                     "eval_momentum_wavefunction", "eval_position_wavefunction",
                     "min_uncertainty_coefficients", "momentum_moments",
                     "verify_constraints"], "core"),
    **dict.fromkeys(["CcdFrame", "DetectorSpec", "EstimatorTrace", "NoiseSpec", "gamma_trace",
                     "intensity_profile", "normalize_frame", "synthesize_frame",
                     "theory_trace"], "diffraction"),
    **dict.fromkeys(["ReanalysisRow", "reanalyze_products"], "reanalysis"),
    **dict.fromkeys(["LanczosState", "eval_lanczos_momentum_density", "eval_lanczos_position",
                     "lanczos_gamma", "sine_integral"], "special"),
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
