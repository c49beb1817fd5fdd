"""The library's failure contract: every public entry returns or raises
InvalidArgument or NumericFailure, and warns of nothing, whatever number it
is given.

Each entry is called with each of INPUTS in turn in every argument it reads
as a number or as numbers, alone or in a list, the other arguments valid.
An argument that is one of the library's own objects (a FourierState, a
SlitGeometry, a DetectorSpec, a NoiseSpec) or a function is given a valid one.
"""

import datetime
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import slitbound as sb
from slitbound import InvalidArgument, NumericFailure
from slitbound.diffraction import band_moments
from slitbound.reports import parse_length
from slitbound.special import lanczos_tail_bounds

INPUTS = {
    "text": "1.0", "None": None, "complex": 1 + 2j, "int-beyond-float": 10**400,
    "nan": math.nan, "-inf": -math.inf, "np.complex128": np.complex128(1 + 5j),
    "np.str_": np.str_("1.0"), "bytes": b"1", "dict": {1.0: 2.0}, "list": [1.0],
    "datetime64": np.datetime64(datetime.date(2020, 1, 1)), "Fraction": Fraction(1, 3),
    "Decimal": Decimal("0.5"), "True": True, "float16-zero": np.float16(0.0),
    "0-d array": np.array(0.5),
}
GEOMETRY = sb.SlitGeometry(477e-6, 632.82e-9, 0.150)
DETECTOR = sb.DetectorSpec(4, 8e-6)
# each entry's calls, one for each argument it reads as a number or as numbers
ENTRIES = {
    "lp_lambda0": [sb.lp_lambda0],
    "reanalyze_products": [sb.reanalyze_products, lambda v: sb.reanalyze_products([v])],
    "FourierState": [lambda v: sb.FourierState(v, half=[1.0, 0.5]),
                     lambda v: sb.FourierState(1.0, half=v),
                     lambda v: sb.FourierState(1.0, half=[v, 0.5])],
    "min_uncertainty_coefficients": [lambda v: sb.min_uncertainty_coefficients(v, 1.0),
                                     lambda v: sb.min_uncertainty_coefficients(4, v)],
    "eval_position_wavefunction": [lambda v: sb.eval_position_wavefunction(v, 1.0),
                                   lambda v: sb.eval_position_wavefunction([v], 1.0),
                                   lambda v: sb.eval_position_wavefunction(0.0, v)],
    "eval_momentum_wavefunction": [lambda v: sb.eval_momentum_wavefunction(v, 1.0),
                                   lambda v: sb.eval_momentum_wavefunction([v], 1.0),
                                   lambda v: sb.eval_momentum_wavefunction(0.0, v)],
    "build_report": [lambda v: sb.build_report(v, 1.0, 1.0),
                     lambda v: sb.build_report(None, v, 1.0),
                     lambda v: sb.build_report(None, 1.0, v)],
    "SlitGeometry": [lambda v: sb.SlitGeometry(v, 632.82e-9, 0.150),
                     lambda v: sb.SlitGeometry(477e-6, v, 0.150),
                     lambda v: sb.SlitGeometry(477e-6, 632.82e-9, v)],
    "DetectorSpec": [lambda v: sb.DetectorSpec(v, 8e-6), lambda v: sb.DetectorSpec(4, v)],
    "NoiseSpec": [sb.NoiseSpec, lambda v: sb.NoiseSpec(1e-3, v)],
    "gamma_trace": [lambda v: sb.gamma_trace(DETECTOR, v, GEOMETRY),
                    lambda v: sb.gamma_trace(DETECTOR, [v] * 4, GEOMETRY)],
    "sine_integral": [sb.sine_integral, lambda v: sb.sine_integral([v])],
    "eval_lanczos_position": [lambda v: sb.eval_lanczos_position(v, 1.0),
                              lambda v: sb.eval_lanczos_position([v], 1.0),
                              lambda v: sb.eval_lanczos_position(0.0, v)],
    "eval_lanczos_momentum_density": [
        lambda v: sb.eval_lanczos_momentum_density(v, 1.0),
        lambda v: sb.eval_lanczos_momentum_density([v], 1.0),
        lambda v: sb.eval_lanczos_momentum_density(np.array([0.0, 1.0]), v)],
    "lanczos_tail_bounds": [lambda v: lanczos_tail_bounds(v, 100.0),
                            lambda v: lanczos_tail_bounds(1.0, v)],
    "band_moments": [lambda v: band_moments(np.cos, v, 3)],
    "parse_length": [parse_length],
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_raises_only_library_errors(entry):
    failures = []
    for i, call in enumerate(ENTRIES[entry]):
        for name, value in INPUTS.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    call(value)
                except (InvalidArgument, NumericFailure):
                    pass
                except Exception as exc:
                    failures.append(f"call {i}, {name}: {type(exc).__name__}: {exc}")
    assert failures == []


@pytest.mark.parametrize("call", [
    lambda z: sb.eval_lanczos_position(0.0, z),
    lambda z: sb.NoiseSpec(z),
    lambda z: band_moments(np.cos, z, 3),
], ids=["eval_lanczos_position", "NoiseSpec", "band_moments"])
def test_numpy_complex_scalar_refused(call):
    # once cut to its real part with only numpy's ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match=" must be real, not complex128$"):
            call(np.complex128(0.1 + 3j))


@pytest.mark.parametrize("bad", [1.5, np.float64(1.5), np.array(1.5), np.ones((2, 2))],
                         ids=["float", "float64", "0-d", "2-d"])
def test_a_vector_reader_refuses_what_is_not_one_sequence(bad):
    # a number is not iterable, a 0-d array raises on iteration, and a 2-d
    # array's rows are no numbers; the evaluators read a number alone
    want = f" must be numbers in order, not a {type(bad).__name__}$"
    with pytest.raises(InvalidArgument, match="^products a" + want):
        sb.reanalyze_products(bad)
    if isinstance(bad, np.ndarray):
        with pytest.raises(InvalidArgument, match="^points" + want):
            sb.eval_position_wavefunction(bad, 1.0)


@pytest.mark.parametrize("call", [
    sb.lp_lambda0,
    lambda v: sb.build_report(None, v, 1.0),
    lambda v: sb.SlitGeometry(v, 632.82e-9, 0.150),
    lambda v: sb.eval_position_wavefunction([v], 1.0),
    lambda v: sb.reanalyze_products([v]),
], ids=["lp_lambda0", "build_report", "SlitGeometry", "eval_position_wavefunction",
        "reanalyze_products"])
def test_an_array_where_a_number_is_read_is_refused(call):
    # float() of an array of one dimension or more raises TypeError
    with pytest.raises(InvalidArgument, match=" must be one number within the float range$"):
        call(np.array([0.5, 1.0]))
