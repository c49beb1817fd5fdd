import numpy as np
import pytest
from scipy.integrate import quad

from slitbound import (
    FourierState,
    InvalidArgument,
    LanczosState,
    NumericFailure,
    SampledDensity,
    concentration_probability,
    eval_lanczos_momentum_density,
    eval_momentum_density,
    eval_momentum_wavefunction,
    lp_lambda0,
    min_uncertainty_coefficients,
    well_defined_verdict,
)
from slitbound.concentration import concentration_eigenvalues
from slitbound.core import random_symmetric_state

# mass of the minimum-uncertainty momentum density inside |k| <= 2 pi / dx,
# frozen from an adaptive-quadrature oracle (epsabs 1e-13)
MIN_STATE_MASS_2PI_WINDOW = 0.9700940527700347


class TestLambda0:
    def test_zero(self):
        res = lp_lambda0(0.0)
        assert res.lambda0 == 0.0
        assert res.kernel_c == 0.0

    @pytest.mark.parametrize(
        "xi,expected,tol",
        [
            (0.179, 0.178, 0.005),
            (0.392, 0.376, 0.005),
            (0.433, 0.412, 0.005),
            (1.0, 0.78, 0.01),
        ],
    )
    def test_published_values(self, xi, expected, tol):
        assert lp_lambda0(xi).lambda0 == pytest.approx(expected, abs=tol)

    def test_large_xi_saturates(self):
        assert lp_lambda0(10.0).lambda0 > 0.999

    def test_residual_small(self):
        for xi in (0.2, 1.0, 2.5):
            assert lp_lambda0(xi).residual < 1e-10

    def test_monotone_in_xi(self):
        xis = np.arange(0.0, 3.01, 0.1)
        vals = [lp_lambda0(float(x)).lambda0 for x in xis]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_grid_convergence(self):
        for xi in (0.5, 1.5, 3.0):
            a = lp_lambda0(xi, grid_size=400).lambda0
            b = lp_lambda0(xi, grid_size=800).lambda0
            assert abs(a - b) < 1e-8

    def test_spectrum_in_unit_interval(self):
        for xi in (0.3, 1.0, 2.0, 3.0):
            ev = concentration_eigenvalues(xi, 400)
            assert ev.min() >= -1e-12
            assert ev.max() <= 1.0 + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgument):
            lp_lambda0(-0.1)
        with pytest.raises(InvalidArgument):
            lp_lambda0(1.0, grid_size=8)

    def test_nearby_xi_not_conflated(self):
        # xi values that agree to 6 decimals are still distinct inputs
        lp_lambda0(0.1000004)
        res = lp_lambda0(0.1000001)
        assert res.xi == 0.1000001
        assert res.kernel_c == np.pi * 0.1000001 / 2.0

    def test_rounding_excess_clipped_to_one(self):
        # grid-400 Nystrom rounds to 1 + ~5e-14 here
        for xi in (15.0, 100.0, 200.0):
            assert lp_lambda0(xi).lambda0 == 1.0

    def test_unresolved_kernel_raises(self):
        # at xi = 400 the grid-400 eigenvalue is 2.0
        with pytest.raises(NumericFailure, match="xi=400.0.*grid=400"):
            lp_lambda0(400.0)


class TestConcentrationProbability:
    def test_zero_window(self):
        state = LanczosState(1.0)
        assert concentration_probability(
            lambda k: eval_lanczos_momentum_density(k, state), 0.0
        ) == 0.0

    def test_wide_window_captures_everything(self):
        dx = 1.0
        p = concentration_probability(
            lambda k: eval_momentum_wavefunction(k, dx) ** 2, 4000.0,
            assume_normalized=True,
        )
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_min_state_window(self):
        dx = 1.0
        p = concentration_probability(
            lambda k: eval_momentum_wavefunction(k, dx) ** 2, 2 * (2 * np.pi / dx),
            assume_normalized=True,
        )
        assert p == pytest.approx(MIN_STATE_MASS_2PI_WINDOW, abs=1e-9)
        # window |k| <= 2pi/dx has xi = dx*dp/h = 2; the bound must dominate
        assert p <= lp_lambda0(2.0).lambda0 + 2e-3

    def test_sampled_density(self):
        x = np.linspace(-8.0, 8.0, 16001)
        v = np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
        d = SampledDensity(x, v / np.trapezoid(v, x))
        p = concentration_probability(d, 2.0)  # +/- 1 sigma
        assert p == pytest.approx(0.682689, abs=1e-4)

    def test_unnormalized_rejected(self):
        x = np.linspace(-1, 1, 101)
        with pytest.raises(InvalidArgument):
            concentration_probability(SampledDensity(x, np.full_like(x, 3.0)), 1.0)

    def test_negative_window_rejected(self):
        x = np.linspace(-1, 1, 101)
        d = SampledDensity(x, np.full_like(x, 0.5))
        with pytest.raises(InvalidArgument):
            concentration_probability(d, -1.0)


class TestWellDefinedVerdict:
    def test_cases(self):
        assert well_defined_verdict(0.78)
        assert not well_defined_verdict(0.178)
        assert well_defined_verdict(0.70)  # closed threshold

    def test_custom_threshold(self):
        assert well_defined_verdict(0.5, threshold=0.5)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            well_defined_verdict(1.2)


class TestBoundDominatesStates:
    def test_random_states_and_windows(self):
        # 50 random slit states x 10 windows: captured probability never
        # exceeds lambda0(dx*dp/h) beyond discretization slack
        rng = np.random.default_rng(123)
        dx = 1.0
        xis = np.linspace(0.25, 2.5, 10)
        bounds = {float(xi): lp_lambda0(float(xi)).lambda0 for xi in xis}
        for _ in range(50):
            state = random_symmetric_state(24, dx, rng, project_boundary=False)
            for xi in xis:
                delta_p = float(xi) * 2 * np.pi / dx  # hbar = 1, h = 2 pi
                prob = concentration_probability(
                    lambda k: eval_momentum_density(state, k), delta_p,
                    assume_normalized=True,
                )
                assert prob <= bounds[float(xi)] + 2e-3

    def test_lanczos_state_dominated(self):
        dx = 1.0
        state = LanczosState(dx)
        for xi in (0.5, 1.0, 2.0):
            delta_p = xi * 2 * np.pi / dx
            prob = concentration_probability(
                lambda k: eval_lanczos_momentum_density(k, state), delta_p,
                assume_normalized=True,
            )
            assert prob <= lp_lambda0(xi).lambda0 + 2e-3

    def test_min_state_near_saturation_at_small_xi(self):
        # the truncated minimizer is close to the top eigenfunction regime:
        # its captured mass stays below but tracks the bound
        dx = 1.0
        state = min_uncertainty_coefficients(512, dx)
        prob = concentration_probability(
            lambda k: eval_momentum_density(state, k), 2 * np.pi / dx,
            assume_normalized=True,
        )
        assert prob <= lp_lambda0(1.0).lambda0 + 2e-3
