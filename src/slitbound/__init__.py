"""Numerical verification of the sharp slit uncertainty bound
sigma_p * delta_x >= pi * hbar, concentration-bound reanalysis of measured
uncertainty products, and an end-to-end 4f diffraction simulation."""

from .concentration import LpBoundResult, lp_lambda0, well_defined_verdict
from .core import (
    FourierState,
    SlitGeometry,
    UncertaintyReport,
    build_report,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    min_uncertainty_coefficients,
    momentum_moments,
    verify_constraints,
)
from .diffraction import (
    CcdFrame,
    DetectorSpec,
    EstimatorTrace,
    NoiseSpec,
    gamma_trace,
    intensity_profile,
    normalize_frame,
    synthesize_frame,
    theory_trace,
)
from .errors import InvalidArgument, NumericFailure
from .reanalysis import ReanalysisRow, reanalyze_products
from .special import (
    LanczosState,
    eval_lanczos_momentum_density,
    eval_lanczos_position,
    lanczos_gamma,
    sine_integral,
)

__version__ = "0.1.0"
