import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    SampledDensity,
    concentration_probability,
    eval_momentum_density,
    random_symmetric_state,
)
from slitbound import (
    InvalidArgument,
    LanczosState,
    eval_lanczos_momentum_density,
    eval_momentum_wavefunction,
    lp_lambda0,
    min_uncertainty_coefficients,
    well_defined_verdict,
)
from slitbound.concentration import WELL_DEFINED_THRESHOLD

# mass of the minimum-uncertainty momentum density inside |k| <= 2 pi / dx,
# frozen from an adaptive-quadrature oracle (epsabs 1e-13)
MIN_STATE_MASS_2PI_WINDOW = 0.9700940527700347


def nystrom_eigenvalues(xi: float, grid_size: int) -> np.ndarray:
    """Independent oracle for the concentration spectrum: the sinc kernel at
    Gauss-Legendre nodes on [-1, 1], symmetrized with the square-root weight
    diagonal, all eigenvalues ascending."""
    c = np.pi * xi / 2.0
    u, w = np.polynomial.legendre.leggauss(grid_size)
    du = u[:, None] - u[None, :]
    off = ~np.eye(grid_size, dtype=bool)
    kernel = np.full_like(du, c / np.pi)
    kernel[off] = np.sin(c * du[off]) / (np.pi * du[off])
    sw = np.sqrt(w)
    return np.linalg.eigvalsh(sw[:, None] * kernel * sw[None, :])


def window_mass(density, delta_p: float) -> float:
    """Independent oracle for the captured probability: adaptive quadrature
    of a normalized callable momentum density over |p| <= delta_p/2."""
    val, _ = quad(density, -delta_p / 2.0, delta_p / 2.0, limit=400, epsabs=1e-12)
    return min(max(val, 0.0), 1.0)


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

    def test_tail_small(self):
        for xi in (0.0, 0.2, 1.0, 2.5, 32.0, 1e4):
            assert lp_lambda0(xi).tail <= 1e-15

    def test_monotone_in_xi(self):
        xis = np.concatenate([[0.0], np.logspace(-3, 4, 500)])
        vals = [lp_lambda0(float(x)).lambda0 for x in xis]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_matches_nystrom_oracle(self):
        # c <= 10 pi here, which 200 Gauss-Legendre nodes resolve far below
        # 1e-12 (test_grid_convergence)
        for xi in np.logspace(-3, np.log10(20.0), 200):
            oracle = nystrom_eigenvalues(float(xi), 200)[-1]
            assert abs(lp_lambda0(float(xi)).lambda0 - oracle) <= 1e-12

    def test_grid_convergence(self):
        for xi in (0.5, 1.5, 3.0, 20.0):
            fine = nystrom_eigenvalues(xi, 800)[-1]
            for grid in (200, 400):
                assert abs(nystrom_eigenvalues(xi, grid)[-1] - fine) < 1e-13

    def test_spectrum_in_unit_interval(self):
        for xi in (0.3, 1.0, 2.0, 3.0):
            ev = nystrom_eigenvalues(xi, 400)
            assert ev.min() >= -1e-12
            assert ev.max() <= 1.0 + 1e-12

    def test_invalid_arguments(self):
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(InvalidArgument):
                lp_lambda0(bad)

    def test_nearby_xi_not_conflated(self):
        # xi values that agree to 6 decimals are still distinct inputs
        lp_lambda0(0.1000004)
        res = lp_lambda0(0.1000001)
        assert res.xi == 0.1000001
        assert res.kernel_c == np.pi * 0.1000001 / 2.0

    def test_rounding_excess_clipped_to_one(self):
        # the expansion reads 1 +- ~1.3e-15 here
        for xi in (15.0, 100.0, 200.0):
            assert lp_lambda0(xi).lambda0 == 1.0

    def test_far_saturated_xi_is_one(self):
        # a grid-400 Nystrom eigenvalue is 2.0 at xi = 400 and 4.0 at 1000
        for xi in (400.0, 1000.0, 1e300):
            res = lp_lambda0(xi)
            assert res.lambda0 == 1.0
            assert res.kernel_c == np.pi * xi / 2.0


class TestConcentrationProbability:
    def test_zero_window(self):
        x = np.linspace(-1, 1, 101)
        assert concentration_probability(SampledDensity(x, np.full_like(x, 0.5)), 0.0) == 0.0

    def test_wide_window_captures_everything(self):
        dx = 1.0
        p = window_mass(lambda k: eval_momentum_wavefunction(k, dx) ** 2, 4000.0)
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_min_state_window(self):
        dx = 1.0
        p = window_mass(lambda k: eval_momentum_wavefunction(k, dx) ** 2, 2 * (2 * np.pi / dx))
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

    def test_callable_rejected(self):
        with pytest.raises(InvalidArgument):
            concentration_probability(lambda k: np.exp(-k * k / 2) / np.sqrt(2 * np.pi), 2.0)

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

    def test_threshold_constant(self):
        assert WELL_DEFINED_THRESHOLD == 0.70
        assert well_defined_verdict(WELL_DEFINED_THRESHOLD)
        assert not well_defined_verdict(np.nextafter(WELL_DEFINED_THRESHOLD, 0.0))

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
                prob = window_mass(lambda k: eval_momentum_density(state, k), delta_p)
                assert prob <= bounds[float(xi)] + 2e-3

    def test_lanczos_state_dominated(self):
        dx = 1.0
        state = LanczosState(dx)
        for xi in (0.5, 1.0, 2.0):
            delta_p = xi * 2 * np.pi / dx
            prob = window_mass(lambda k: eval_lanczos_momentum_density(k, state), delta_p)
            assert prob <= lp_lambda0(xi).lambda0 + 2e-3

    def test_min_state_near_saturation_at_small_xi(self):
        # the truncated minimizer is close to the top eigenfunction regime:
        # its captured mass stays below but tracks the bound
        dx = 1.0
        state = min_uncertainty_coefficients(512, dx)
        prob = window_mass(lambda k: eval_momentum_density(state, k), 2 * np.pi / dx)
        assert prob <= lp_lambda0(1.0).lambda0 + 2e-3
