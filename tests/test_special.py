import numpy as np
import pytest
from scipy.integrate import quad

from slitbound import cli, special
from slitbound import (
    InvalidArgument,
    LanczosState,
    eval_lanczos_momentum_density,
    eval_lanczos_position,
    lanczos_gamma,
    sine_integral,
)
from slitbound.special import (
    SI_2PI,
    lanczos_band_moments,
    lanczos_second_moment_tail_bound,
    lanczos_weight_tail_bound,
)

# int_0^{2pi} sin(t)/t dt by adaptive quadrature (epsabs 1e-14)
SI_2PI_ORACLE = 1.4181515761326284
# Si(pi)^2 / (2 pi^2 Si(2pi)), from the same quadrature oracle
LANCZOS_DENSITY_AT_ZERO = 0.12251804225912144


def band_moment(state, k_max, power):
    """int_{|k| <= k_max} |k|^power * density(k) dk at a single edge."""
    return lanczos_band_moments(state, [k_max], power)[0]


def band_moments_reference(state, k_edges, power):
    """Independent oracle for lanczos_band_moments: edge by edge, equal
    panels of at most pi/dx with 32-point Gauss-Legendre on each."""
    xg, wg = np.polynomial.legendre.leggauss(32)
    out, total, lo = [], 0.0, 0.0
    for hi in k_edges:
        npanel = max(1, int(np.ceil((hi - lo) / (np.pi / state.slit_width))))
        cuts = np.linspace(lo, hi, npanel + 1)
        half = np.diff(cuts)[:, None] / 2.0
        k = (cuts[:-1, None] + cuts[1:, None]) / 2.0 + half * xg
        total += 2.0 * np.sum(half * wg * k**power * eval_lanczos_momentum_density(k, state))
        out.append(total)
        lo = hi
    return np.array(out)


def averaged_tail_integrand(u):
    # oscillation average of u^2 * [Si(u+pi) - Si(u-pi)]^2 from the two-term
    # Si asymptotics; error O(1/u^2) relative
    return (2 * np.pi**2 * u**2 / (u**2 - np.pi**2) ** 2
            + 8 * np.pi**2 * u**4 / (u**2 - np.pi**2) ** 4)


def sigma_k_by_quadrature(dx: float) -> float:
    """Independent oracle: second moment of the momentum density by direct
    quadrature to U plus the analytic oscillation-averaged tail."""
    state = LanczosState(dx)
    U = 2000.0
    m2 = band_moment(state, 2 * U / dx, 2)
    tail_u, _ = quad(averaged_tail_integrand, U, np.inf)
    m2 += 2.0 / (np.pi**2 * SI_2PI * dx**2) * tail_u
    return np.sqrt(m2)


class TestSineIntegral:
    def test_zero(self):
        assert sine_integral(0.0) == 0.0

    def test_two_pi(self):
        assert sine_integral(2 * np.pi) == pytest.approx(SI_2PI_ORACLE, abs=1e-13)

    def test_against_quadrature(self):
        for x in (0.3, 1.0, 3.9, 4.1, 7.0, 25.0, 100.0):
            oracle, _ = quad(lambda t: np.sinc(t / np.pi), 0, x, limit=400, epsabs=1e-14)
            assert sine_integral(x) == pytest.approx(oracle, abs=1e-12)

    def test_odd(self):
        xs = np.array([0.1, 1.0, 3.5, 4.5, 20.0, 1e3])
        assert np.allclose(sine_integral(-xs), -sine_integral(xs), rtol=0, atol=1e-15)

    def test_monotone_on_first_arch(self):
        xs = np.linspace(0, np.pi, 500)
        assert np.all(np.diff(sine_integral(xs)) > 0)

    def test_asymptote(self):
        for x in (1e3, 1e6):
            expected = np.pi / 2 - np.cos(x) / x - np.sin(x) / x**2
            assert sine_integral(x) == pytest.approx(expected, abs=1e-6)
            assert abs(sine_integral(x) - np.pi / 2) < 2.1 / x

    def test_array_call_matches_scalar_calls_bitwise(self):
        # each point takes one branch, so an array mixing both branches gives
        # every point the bits of its own scalar call, across the x^2 <= 16 edge
        edge = [4.0, np.nextafter(4.0, 5.0), np.nextafter(4.0, 3.0), 0.0]
        xs = np.concatenate([edge, np.logspace(-8, 6, 2000)])
        xs = np.concatenate([xs, -xs])
        array = sine_integral(xs)
        scalars = np.array([sine_integral(float(x)) for x in xs])
        assert np.array_equal(array.view(np.int64), scalars.view(np.int64))
        assert sine_integral(np.array([])).shape == (0,)


@pytest.mark.parametrize("dx", [1e-6, 477e-6, 1.0])
def test_list_path_matches_array_path_bitwise(dx):
    # the grids of cmd_lanczos: the float path gives every point the bits
    # of the array path, and the CSVs a list and an array encode agree
    state = LanczosState(dx)
    x = cli._linspace(-dx / 2, dx / 2, 1001)
    k = cli._linspace(-16 * np.pi / dx, 16 * np.pi / dx, 4001)
    for fn, grid in ((eval_lanczos_position, x), (eval_lanczos_momentum_density, k)):
        listed = fn(grid, state)
        assert isinstance(listed, list)
        array = fn(np.array(grid), state)
        assert isinstance(array, np.ndarray)
        assert np.array_equal(np.array(listed).view(np.int64), array.view(np.int64))
        assert all(type(fn(v, state)) is float for v in grid[:3])


class TestLanczosPosition:
    def test_center_value(self):
        dx = 0.8
        state = LanczosState(dx)
        assert eval_lanczos_position(0.0, state) == pytest.approx(
            np.sqrt(np.pi / (SI_2PI * dx)), rel=1e-14
        )

    def test_edges_vanish(self):
        state = LanczosState(1.0)
        assert eval_lanczos_position(0.5, state) == pytest.approx(0.0, abs=1e-15)
        assert eval_lanczos_position(-0.5, state) == pytest.approx(0.0, abs=1e-15)

    def test_outside_slit_is_zero(self):
        state = LanczosState(1.0)
        assert eval_lanczos_position(0.6, state) == 0.0

    def test_normalization(self):
        dx = 1.3
        state = LanczosState(dx)
        total, _ = quad(lambda x: eval_lanczos_position(x, state) ** 2,
                        -dx / 2, dx / 2, epsabs=1e-13)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestGamma:
    def test_printed_value(self):
        assert lanczos_gamma() == pytest.approx(1.0168880, abs=5e-8)

    def test_greater_than_one(self):
        assert lanczos_gamma() > 1.0

    def test_consistency_with_quadrature(self):
        for dx in (1.0, 477e-6):
            sigma_k = sigma_k_by_quadrature(dx)
            assert sigma_k * dx / np.pi == pytest.approx(lanczos_gamma(), rel=1e-7)


class TestLanczosMomentumDensity:
    def test_value_at_zero(self):
        for dx in (1.0, 2.7):
            state = LanczosState(dx)
            assert eval_lanczos_momentum_density(0.0, state) == pytest.approx(
                LANCZOS_DENSITY_AT_ZERO * dx, rel=1e-12
            )
            # closed form of the same value
            assert eval_lanczos_momentum_density(0.0, state) == pytest.approx(
                dx * sine_integral(np.pi) ** 2 / (2 * np.pi**2 * SI_2PI), rel=1e-14
            )

    def test_even_and_nonnegative(self):
        state = LanczosState(1.0)
        ks = np.linspace(0.1, 200.0, 997)
        assert np.array_equal(
            eval_lanczos_momentum_density(ks, state),
            eval_lanczos_momentum_density(-ks, state),
        )
        assert np.all(eval_lanczos_momentum_density(ks, state) >= 0)

    def test_normalization_with_certified_tail(self):
        dx = 1.0
        state = LanczosState(dx)
        k_max = 600.0
        weight = band_moment(state, k_max, 0)
        tail = lanczos_weight_tail_bound(state, k_max)
        assert tail < 1e-7
        # true mass beyond k_max lies in [0, tail], so the full integral is 1
        assert -1e-10 <= 1.0 - weight <= tail + 1e-10

    def test_second_moment_matches_gamma(self):
        dx = 1.0
        sigma_k = sigma_k_by_quadrature(dx)
        assert sigma_k * dx == pytest.approx(lanczos_gamma() * np.pi, rel=1e-7)

    def test_tail_bounds_certify(self):
        # bounds must dominate the numerically integrated remainder
        state = LanczosState(1.0)
        w_inner = band_moment(state, 200.0, 0)
        w_outer = band_moment(state, 2000.0, 0)
        assert w_outer - w_inner <= lanczos_weight_tail_bound(state, 200.0)
        m_inner = band_moment(state, 200.0, 2)
        m_outer = band_moment(state, 2000.0, 2)
        assert m_outer - m_inner <= lanczos_second_moment_tail_bound(state, 200.0)


class TestBandMoments:
    def test_cumulative_moments_match_adaptive_quadrature(self):
        dx = 1.0
        state = LanczosState(dx)
        edges = np.array([0.0, 0.3, 2.0, 2.0, 17.5, 60.0])
        for power in (0, 2):
            got = lanczos_band_moments(state, edges, power)
            want = [
                2 * quad(lambda k: k**power * eval_lanczos_momentum_density(k, state),
                         0.0, e, limit=200, epsabs=1e-14)[0]
                for e in edges
            ]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_single_edge_helpers_agree(self):
        state = LanczosState(0.7)
        edges = np.linspace(5.0, 300.0, 40)
        for power in (0, 2):
            assert lanczos_band_moments(state, edges, power)[-1] == pytest.approx(
                band_moment(state, 300.0, power), rel=1e-13)

    @pytest.mark.parametrize("dx", [1.0, 477e-6])
    def test_matches_32_node_reference(self, dx):
        state = LanczosState(dx)
        cap = np.pi / dx
        rng = np.random.default_rng(9)
        edge_sets = {
            # every panel exactly the cap width, out to u = dx*k/2 = 2000
            "cap-width": cap * np.arange(1.0, 1274.0),
            "irregular": np.sort(rng.uniform(0.0, 900.0 * cap, 60)),
            "tiny first": np.array([1e-6, 1e-3, 0.5, 3.0, 40.0, 700.0]) * cap,
        }
        for name, edges in edge_sets.items():
            for power in (0, 2):
                got = lanczos_band_moments(state, edges, power)
                want = band_moments_reference(state, edges, power)
                assert np.max(np.abs(got / want - 1.0)) <= 4e-15, (name, power)

    def test_gauss_legendre_constants(self):
        # the 8-point rule is written out; it must stay numpy's, to 1 ulp
        nodes, weights = np.polynomial.legendre.leggauss(8)
        for const, ref in ((special._GL8_NODES, nodes), (special._GL8_WEIGHTS, weights)):
            assert np.all(np.abs(np.array(const) - ref) <= np.spacing(np.abs(ref)))
            assert isinstance(const, tuple)

    def test_invalid_arguments(self):
        state = LanczosState(1.0)
        for bad in ([-1.0], [2.0, 1.0], [[1.0]], 1.0):
            with pytest.raises(InvalidArgument):
                lanczos_band_moments(state, bad, 2)


class TestFourierConsistency:
    def test_transform_of_position_state_matches_density(self):
        # numerically Fourier-transforming the position amplitude reproduces
        # the square root of the momentum density on |k| <= 8 pi / dx
        dx = 1.0
        state = LanczosState(dx)
        ks = np.linspace(0.0, 8 * np.pi / dx, 81)
        target = np.sqrt(eval_lanczos_momentum_density(ks, state))
        scale = np.max(target)
        for k, t in zip(ks, target):
            ft, _ = quad(
                lambda x: eval_lanczos_position(x, state) * np.cos(k * x) / np.sqrt(2 * np.pi),
                -dx / 2, dx / 2, epsabs=1e-13,
            )
            assert abs(abs(ft) - t) < 1e-6 * scale
