import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from oracles import (
    SampledDensity,
    eval_momentum_density,
    mirror,
    np_constraint_residuals,
    np_cosine_coefficients,
    np_minstate_tables,
    np_momentum_moments,
    np_momentum_wavefunction,
    np_normalized,
    np_position_wavefunction,
    popoviciu_sigma_x,
    random_symmetric_state,
    verify_stationarity,
)
from slitbound import (
    FourierState,
    InvalidArgument,
    build_report,
    cli,
    core,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    min_uncertainty_coefficients,
    momentum_moments,
    verify_constraints,
)
from slitbound.reports import format_csv

C0_RAW = np.sqrt(8.0) / np.pi          # 0.9003163...
C1_RAW = np.sqrt(8.0) / (3.0 * np.pi)  # 0.3001054...

# sum_{|n|>1000} |c_n|^2 of the analytic coefficients, frozen from a
# high-precision partial-sum oracle (mpmath, 30 digits)
PARSEVAL_TAIL_1000 = 3.3722156926e-11
# |sum_{|n|>1000} (-1)^n c_n|; the sum telescopes to (sqrt(8)/pi)/(2N+1)
BOUNDARY_TAIL_1000 = 4.4993319148e-4


def coefficient_tails_exact(n_max: int):
    """Exact tails of the analytic coefficient sums beyond n_max, via
    Hurwitz zeta (independent of the library's truncated vectors)."""
    N = n_max
    # sum_{n>N} 1/(4n^2-1)^2 and sum_{n>N} n^2/(4n^2-1)^2 by partial fractions
    z_lo = zeta(2, N + 0.5)
    z_hi = zeta(2, N + 1.5)
    s0 = (z_lo + z_hi) / 16.0 - 1.0 / (4.0 * (2 * N + 1))
    s2 = (z_lo + z_hi) / 64.0 + 1.0 / (16.0 * (2 * N + 1))
    return s0, s2


class TestFourierState:
    def test_refuses_a_squared_norm_that_is_not_a_finite_normal_float(self):
        # 1e200 squares to inf, which divided out leaves every coefficient 0;
        # 1e-160 squares to a subnormal that leaves Parseval off by 1.1e-5;
        # nan and inf leave a nan state
        for half in ([1e200] * 2, [1e-160] * 2, [np.nan, 1.0], [np.inf, 1.0], [0.0] * 2):
            with pytest.raises(InvalidArgument, match="cannot normalize a coefficient vector"):
                FourierState(1.0, half=half)
        # Python raises OverflowError where these reach inf: the squares'
        # fsum, the modulus of a huge complex, an int beyond the float range
        for half in ([1.2e154] * 2, [complex(1.7e308, 1.7e308), 1], [10**400, 1], [1, 10**400]):
            with pytest.raises(InvalidArgument, match="of squared norm inf$"):
                FourierState(1.0, half=half)

    def test_refuses_a_vector_of_the_wrong_shape(self):
        # the length is checked first, so an int beyond the float range in a
        # one-entry half still names the shape; strings are not numbers,
        # though complex() would read "1" as one; a set iterates in hash
        # order, a mapping by its keys and bytes as small ints, so none is
        # c_0..c_N in the order written
        for half in ([], [1.0], [[1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]], 3.0,
                     ["a", "b", "c"], [10**400], "111", ["1", "2", "1"],
                     [np.ones(2), 1.0, 1.0], np.ones((2, 2)), {3.0, 1.0, 2.0},
                     frozenset({3.0, 1.0}), {2.0: 1.0, 1.0: 2.0}, {2.0: 1.0, 1.0: 2.0}.keys(),
                     b"\x01\x02", bytearray(b"\x01\x02")):
            with pytest.raises(InvalidArgument,
                               match=r"^half must be a 1-d vector c_0\.\.c_N with N >= 1$"):
                FourierState(1.0, half=half)

    def test_ordered_iterables_read_alike(self):
        # a tuple, a generator, an array, a mapping's values and a range
        want = FourierState(1.0, half=[3.0, 1.0, 2.0]).half
        for half in ((3.0, 1.0, 2.0), (v for v in [3.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]),
                     {"c0": 3.0, "c1": 1.0, "c2": 2.0}.values()):
            assert FourierState(1.0, half=half).half == want
        want = FourierState(1.0, half=[3, 2, 1]).half
        assert FourierState(1.0, half=range(3, 0, -1)).half == want

    def test_a_positional_vector_is_refused(self):
        # the half is keyword-only, so a whole vector c_-N..c_N written for
        # the positional form is not read as a longer half
        for raw in ([1.0, 2.0, 1.0], np.array([1.0, 2.0, 1.0])):
            with pytest.raises(TypeError):
                FourierState(1.0, raw)

    def test_a_one_entry_half_is_refused(self):
        # n_max = 0 would be a single mode, which no slit state of the
        # variational problem is
        for half in ([1.0], (1j,), np.array([2.0]), [np.float64(1.0)]):
            with pytest.raises(InvalidArgument, match="with N >= 1$"):
                FourierState(1.0, half=half)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_normalizes_far_from_unit_scale(self, scale):
        state = FourierState(1.0, half=[2.0 * scale, scale])
        assert verify_constraints(state).parseval <= 4 * np.finfo(float).eps

    def test_integer_entries_square_as_floats(self):
        # 4e9 squared wraps in int64, so a numpy integer, in an array or a
        # list, is read as a Python int
        want = FourierState(1.0, half=[4e9, 1]).half
        for half in ([np.int64(4_000_000_000), 1], np.array([4_000_000_000, 1])):
            assert FourierState(1.0, half=half).half == want
        # an int is the float it rounds to in the norm as in the quotient:
        # 2**53 + 3 rounds to 2**53 + 4, and its exact square would move the norm
        big = 2**53 + 3
        assert FourierState(1.0, half=[big, 1]).half == \
            FourierState(1.0, half=[float(big), 1.0]).half

    def test_numpy_scalars_in_a_list_read_as_python_numbers(self):
        # float32 quotients would leave the state off Parseval beyond 1e-8
        f32 = np.float32(0.1) * np.ones(2, np.float32)
        state = FourierState(1.0, half=list(f32))
        assert {type(c) for c in state.half} == {float}
        assert state.half == FourierState(1.0, half=f32).half
        assert momentum_moments(state) == pytest.approx(2 * math.pi * math.sqrt(2 / 3))

    def test_decimal_entries_refused(self):
        # a Decimal does not mix with float arithmetic
        with pytest.raises(InvalidArgument, match="^half must be a 1-d vector"):
            FourierState(1.0, half=[Decimal(1)] * 2)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_even_vectors_accepted_as_lists_and_arrays(self, dtype):
        rng = np.random.default_rng(37)
        half = rng.standard_normal(9).astype(dtype)
        if dtype is complex:
            half += 1j * rng.standard_normal(9)
        want = np_normalized(mirror(half))
        for given in (half, half.tolist(), tuple(half)):
            state = FourierState(1.0, half=given)
            assert state.n_max == 8
            assert len(state.half) == len(state.weights) == 9
            assert_within_ulps(np.asarray(mirror(state.half)).real, want.real, 4)
            assert_within_ulps(np.asarray(mirror(state.half)).imag, want.imag, 4)

    def test_signed_zero_pairs_are_even(self):
        # a zero of the half keeps its sign, which c_-n and c_n then share
        state = FourierState(1.0, half=[1.0, 0.0])
        assert [math.copysign(1.0, c) for c in mirror(state.half)] == [1.0, 1.0, 1.0]
        state = FourierState(1.0, half=[1.0, -0.0])
        assert [math.copysign(1.0, c) for c in mirror(state.half)] == [-1.0, 1.0, -1.0]

    def test_real_input_stores_floats(self):
        for half in ([2.0, 1.0], [2, 1], np.array([2.0, 1.0]), np.array([2, 1])):
            state = FourierState(1.0, half=half)
            assert {type(c) for c in state.half} == {float}
            assert state.half == tuple(v / math.sqrt(6.0) for v in (2.0, 1.0))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_arrays_divide_as_python_numbers(self, dtype):
        # an array is read through tolist(): numpy's complex128 division by a
        # float differs from Python's in the last bit of many quotients
        rng = np.random.default_rng(36)
        half = rng.standard_normal(21).astype(dtype)
        if dtype is complex:
            half += 1j * rng.standard_normal(21)
        norm = math.sqrt(math.fsum([abs(z) * abs(z) for z in mirror(half.tolist())]))
        got = [complex(c) for c in FourierState(1.0, half=half).half]
        want = [complex(z) / norm for z in half.tolist()]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == \
            [(z.real.hex(), z.imag.hex()) for z in want]


@pytest.mark.parametrize("call", [
    lambda dx: FourierState(dx, half=[2, 1]),
    lambda dx: eval_position_wavefunction([0.0, 0.5], dx),
    lambda dx: eval_momentum_wavefunction([0.0, 1.0], dx),
    lambda dx: build_report(None, 1.0, dx),
], ids=["FourierState", "eval_position_wavefunction", "eval_momentum_wavefunction",
        "build_report"])
def test_infinite_width_refused(call):
    # not a state with sigma_p = 0 and every verdict false, nor zero or nan
    # amplitudes
    with pytest.raises(InvalidArgument, match="^delta_x must be positive and finite, got inf$"):
        call(math.inf)


class TestMinUncertaintyCoefficients:
    def test_raw_values(self):
        # before renormalization c_0 = sqrt(8)/pi, c_1 = sqrt(8)/(3 pi)
        n = np.arange(-10, 11)
        raw = (np.sqrt(8) / np.pi) * (-1.0) ** n / (1 - 4 * n.astype(float) ** 2)
        assert raw[10] == pytest.approx(0.9003163, abs=5e-8)
        assert raw[11] == pytest.approx(0.3001054, abs=5e-8)
        state = min_uncertainty_coefficients(10, 1.0)
        # renormalization preserves ratios
        ratio = state.half[1] / state.half[0]
        assert ratio.real == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_symmetry_exact(self):
        # the half is c_n at n >= 0; the same formula at n <= 0 gives its bits
        state = min_uncertainty_coefficients(50, 2.0)
        a = math.sqrt(8.0) / math.pi
        at_minus_n = [(-a if n % 2 else a) / (1.0 - 4.0 * n * n) for n in range(0, -51, -1)]
        assert FourierState(2.0, half=at_minus_n).half == state.half

    def test_parseval_tail_at_1000(self):
        n = np.arange(-1000, 1001)
        raw = (np.sqrt(8) / np.pi) * (-1.0) ** n / (1 - 4 * n.astype(float) ** 2)
        missing = 1.0 - np.sum(raw**2)
        assert missing == pytest.approx(PARSEVAL_TAIL_1000, rel=1e-4)

    def test_invalid_n_max(self):
        for n_max in (0, core.MAX_NMAX + 1):
            with pytest.raises(InvalidArgument):
                min_uncertainty_coefficients(n_max, 1.0)

    def test_parseval_after_construction(self):
        for n_max in (1, 16, 4096):
            state = min_uncertainty_coefficients(n_max, 1.0)
            assert abs(np.sum(np.abs(mirror(state.half)) ** 2) - 1.0) < 1e-10


class TestMomentumMoments:
    def test_refuses_a_state_off_parseval(self):
        # weights that sum to 1 within 1e-8 are taken, and further off refused
        state = min_uncertainty_coefficients(16, 1.0)
        weights = state.weights
        state.weights = tuple(w * (1.0 + 5e-9) for w in weights)
        momentum_moments(state)
        state.weights = tuple(w * (1.0 + 2e-8) for w in weights)
        with pytest.raises(InvalidArgument,
                           match="^state does not satisfy Parseval within tolerance$"):
            momentum_moments(state)

    def test_single_mode_zero_sigma(self):
        c = np.zeros(2)
        c[0] = 1.0  # n = 0
        state = FourierState(1.0, half=c)
        assert momentum_moments(state) == 0.0

    def test_sharp_product_at_1e4(self):
        state = min_uncertainty_coefficients(10**4, 1.0)
        sigma_p = momentum_moments(state)
        assert sigma_p * 1.0 == pytest.approx(np.pi, rel=1e-4)

    def test_tail_corrected_series_reaches_pi(self):
        # adding the exact zeta tails to the truncated sums recovers pi
        N = 10**4
        n = np.arange(1, N + 1, dtype=float)
        w = (8 / np.pi**2) / (4 * n**2 - 1) ** 2
        s0_tail, s2_tail = coefficient_tails_exact(N)
        m0 = 8 / np.pi**2 + 2 * np.sum(w) + 2 * (8 / np.pi**2) * s0_tail
        m2 = 2 * np.sum(n**2 * w) + 2 * (8 / np.pi**2) * s2_tail
        assert m0 == pytest.approx(1.0, abs=1e-12)
        assert 2 * np.pi * np.sqrt(m2 / m0) == pytest.approx(np.pi, rel=1e-12)

    def test_scaling_law(self):
        state = min_uncertainty_coefficients(256, 1.0)
        sigma_1 = momentum_moments(state)
        for s in (0.25, 3.0, 477e-6):
            sigma_s = momentum_moments(FourierState(s, half=state.half))
            assert sigma_s == pytest.approx(sigma_1 / s, rel=1e-14)


class TestPositionWavefunction:
    def test_center_and_edges(self):
        dx = 0.7
        assert eval_position_wavefunction(0.0, dx) == pytest.approx(np.sqrt(2 / dx), rel=1e-15)
        assert eval_position_wavefunction(dx / 2, dx) == pytest.approx(0.0, abs=1e-15)
        assert eval_position_wavefunction(-dx / 2, dx) == pytest.approx(0.0, abs=1e-15)

    def test_outside_slit_raises(self):
        with pytest.raises(InvalidArgument):
            eval_position_wavefunction(0.51, 1.0)

    def test_normalization_by_quadrature(self):
        dx = 1.3
        total, _ = quad(lambda x: eval_position_wavefunction(x, dx) ** 2, -dx / 2, dx / 2,
                        epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestMomentumWavefunction:
    def test_k_zero(self):
        dx = 2.0
        assert eval_momentum_wavefunction(0.0, dx) == pytest.approx(
            2 * np.sqrt(np.pi * dx) / np.pi**2, rel=1e-15
        )

    def test_removable_singularity(self):
        # limit at dx*k = pi is sqrt(dx/pi)/2, from the series expansion
        for dx in (1.0, 0.37):
            expected = np.sqrt(dx / np.pi) / 2
            assert eval_momentum_wavefunction(np.pi / dx, dx) == pytest.approx(expected, rel=1e-12)
            assert eval_momentum_wavefunction(-np.pi / dx, dx) == pytest.approx(expected, rel=1e-12)
            # continuity through the Taylor-fallback window
            k_near = (np.pi + 5e-5) / dx
            assert eval_momentum_wavefunction(k_near, dx) == pytest.approx(expected, rel=1e-4)

    def test_sigma_k_is_pi_over_dx(self):
        # band quadrature to U plus the oscillation-averaged analytic tail
        dx = 1.0
        U = 2000.0
        edges = np.arange(0.0, U + np.pi, np.pi)
        m2 = sum(
            quad(lambda k: k**2 * eval_momentum_wavefunction(k, dx) ** 2, a, b,
                 epsabs=1e-14)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        tail, _ = quad(lambda u: 2 * np.pi * u**2 / (u**2 - np.pi**2) ** 2, edges[-1], np.inf)
        sigma_k = np.sqrt(2 * (m2 + tail))
        assert sigma_k == pytest.approx(np.pi / dx, rel=1e-6)

    def test_series_consistency(self):
        # quadrature sigma_k vs the tail-corrected coefficient series at 1e4
        N = 10**4
        n = np.arange(1, N + 1, dtype=float)
        w = (8 / np.pi**2) / (4 * n**2 - 1) ** 2
        _, s2_tail = coefficient_tails_exact(N)
        m2_series = 2 * np.sum(n**2 * w) + 2 * (8 / np.pi**2) * s2_tail
        sigma_series = 2 * np.pi * np.sqrt(m2_series)
        dx = 1.0
        U = 2000.0
        edges = np.arange(0.0, U + np.pi, np.pi)
        m2 = sum(
            quad(lambda k: k**2 * eval_momentum_wavefunction(k, dx) ** 2, a, b,
                 epsabs=1e-14)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        tail, _ = quad(lambda u: 2 * np.pi * u**2 / (u**2 - np.pi**2) ** 2, edges[-1], np.inf)
        sigma_quad = np.sqrt(2 * (m2 + tail))
        assert sigma_quad == pytest.approx(sigma_series, rel=1e-6)

    def test_matches_truncated_state_density(self):
        # the generic sinc-sum density approaches the closed form as n_max grows
        state = min_uncertainty_coefficients(2000, 1.0)
        ks = np.linspace(-10.0, 10.0, 41)
        dens = eval_momentum_density(state, ks)
        closed = np.asarray(eval_momentum_wavefunction(ks, 1.0)) ** 2
        assert np.max(np.abs(dens - closed)) < 1e-6


class TestConstraints:
    def test_min_state_residuals(self):
        state = min_uncertainty_coefficients(1000, 1.0)
        res = verify_constraints(state)
        assert res.parseval < 1e-10
        # boundary residual equals the analytic series tail
        assert res.boundary == pytest.approx(BOUNDARY_TAIL_1000, rel=1e-3)
        assert res.boundary < 1e-3
        bigger = verify_constraints(min_uncertainty_coefficients(4000, 1.0))
        assert bigger.boundary < res.boundary

    def test_single_mode_boundary(self):
        c = np.zeros(2)
        c[0] = 1.0
        assert verify_constraints(FourierState(1.0, half=c)).boundary == pytest.approx(1.0)

    def test_equal_superposition(self):
        # c_0 = 2/sqrt(6), c_-1 = c_1 = 1/sqrt(6): boundary sum = c_0 - c_-1 - c_1 = 0
        half = np.array([2.0, 1.0])
        assert verify_constraints(FourierState(1.0, half=half)).boundary == \
            pytest.approx(0.0, abs=1e-15)
        # c_0 = 1/sqrt(3), c_-1 = c_1 = 1j/sqrt(3): the n = -1 and n = 1 terms
        # both enter with sign -1
        half = np.array([1.0, 1.0j]) / np.sqrt(3)
        c = np.asarray(mirror(half))
        expected = abs(np.conj(c[1]) - np.conj(c[0]) - np.conj(c[2]))
        assert verify_constraints(FourierState(1.0, half=half)).boundary == \
            pytest.approx(expected)


class TestStationarity:
    def test_min_state_multipliers(self):
        # solving the n=0,1 conditions analytically gives beta = (pi hbar/dx)^2
        # and alpha = -beta*c_0
        dx = 1.0
        state = min_uncertainty_coefficients(1000, dx)
        rep = verify_stationarity(state)
        beta_expected = (np.pi / dx) ** 2
        assert rep.beta.real == pytest.approx(beta_expected, rel=1e-12)
        assert abs(rep.beta.imag) < 1e-12
        c0 = state.half[0]
        assert rep.alpha.real == pytest.approx(-beta_expected * c0, rel=1e-12)
        assert rep.max_residual < 1e-10

    def test_random_symmetric_state_not_stationary(self):
        rng = np.random.default_rng(3)
        state = random_symmetric_state(32, 1.0, rng)
        rep = verify_stationarity(state)
        assert rep.max_residual > 1e-3


def assert_within_ulps(got, want, ulps):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))), np.max(
        np.abs(got - want) / np.spacing(np.abs(want)))


def full_vector_sums(state):
    """(sigma_p, parseval, boundary) by fsums over all 2 n_max + 1 modes of
    the mirrored half, m1 included: the sums the half's sums replace."""
    c, n = mirror(state.half), range(-state.n_max, state.n_max + 1)
    w = [abs(z) * abs(z) for z in c]
    m1 = math.fsum([k * v for k, v in zip(n, w)])
    m2 = math.fsum([(k * k) * v for k, v in zip(n, w)])
    sigma_p = 2.0 * math.pi / state.slit_width * math.sqrt(max(m2 - m1 * m1, 0.0))
    signed = [z if k % 2 == 0 else -z for k, z in zip(n, c)]
    boundary = math.hypot(math.fsum([z.real for z in signed]), math.fsum([z.imag for z in signed]))
    return sigma_p, abs(math.fsum(w) - 1.0), boundary


class TestHalfSums:
    """c_0 once and c_1..c_N doubled give the bits of the sums over every mode."""

    # sigma_p, parseval and boundary of the cosine state at delta_x = 1, as
    # the fsums over all 2 n_max + 1 modes gave them
    FROZEN = {1: ("0x1.56eeb070d5afbp+1", "0x1.0000000000000p-52", "0x1.34bf63d156828p-2"),
              2: ("0x1.70037fd5fcacep+1", "0x1.0000000000000p-52", "0x1.71283d1a038ecp-3"),
              3: ("0x1.7a1b40e0f19fap+1", "0x0.0p+0", "0x1.07824fe6bb381p-3"),
              4095: ("0x1.921a9d4725766p+1", "0x1.0000000000000p-52", "0x1.cd04aac13c1e5p-14"),
              4096: ("0x1.921a9d98a3406p+1", "0x0.0p+0", "0x1.cce7db5d0a5cbp-14")}

    @pytest.mark.parametrize("n_max", sorted(FROZEN))
    def test_cosine_state_frozen(self, n_max):
        state = min_uncertainty_coefficients(n_max, 1.0)
        sigma_p = momentum_moments(state)
        res = verify_constraints(state)
        assert (sigma_p.hex(), res.parseval.hex(), res.boundary.hex()) == self.FROZEN[n_max]
        assert (sigma_p, *res) == full_vector_sums(state)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_even_states(self, dtype):
        rng = np.random.default_rng(3700)
        for i in range(60):
            n_max = int(rng.integers(1, 40))
            half = rng.standard_normal(n_max + 1) * 10.0 ** [-150, 0, 150][i % 3]
            if dtype is complex:
                half = half + 1j * half[::-1]
            state = FourierState(0.3, half=half)
            assert (momentum_moments(state), *verify_constraints(state)) == \
                full_vector_sums(state)


class TestAgainstNumpyOracle:
    """The pure-Python core against the numpy formulas it replaced
    (`oracles.np_*`): sums now taken by math.fsum, so within a few ulp."""

    @pytest.mark.parametrize("n_max", [1, 8, 512, 4096, 10**5])
    @pytest.mark.parametrize("dx", [1e-6, 477e-6, 1.0])
    def test_cosine_state(self, n_max, dx):
        state = min_uncertainty_coefficients(n_max, dx)
        assert type(state.half) is tuple and (state.n_max, len(state.half)) == (n_max, n_max + 1)
        want = np_cosine_coefficients(n_max)
        assert_within_ulps(np.asarray(mirror(state.half)).real, want.real, 4)
        assert np.all(np.asarray(state.half).imag == 0.0)
        sigma_p = momentum_moments(state)
        want_mean, want_sigma = np_momentum_moments(want, dx)
        assert_within_ulps(sigma_p, want_sigma, 4)
        # sigma_p is taken about 0, the mean of every even state
        assert abs(want_mean) <= 1e-15 * want_sigma
        res = verify_constraints(state)
        want_res = np_constraint_residuals(want)
        assert abs(res.parseval - want_res[0]) <= 1e-15
        assert abs(res.boundary - want_res[1]) <= 1e-15

    @pytest.mark.parametrize("n_max", [1, 8, 512])
    def test_complex_states(self, n_max):
        rng = np.random.default_rng(n_max)
        for _ in range(10):
            half = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
            state = FourierState(0.3, half=half)
            want = np_normalized(mirror(half))
            got = np.asarray(mirror(state.half))
            assert_within_ulps(got.real, want.real, 4)
            assert_within_ulps(got.imag, want.imag, 4)
            sigma_p = momentum_moments(state)
            want_mean, want_sigma = np_momentum_moments(want, 0.3)
            assert_within_ulps(sigma_p, want_sigma, 4)
            assert want_mean == pytest.approx(0.0, abs=1e-14 * want_sigma)
            res = verify_constraints(state)
            want_res = np_constraint_residuals(want)
            assert abs(res.parseval - want_res[0]) <= 1e-15
            assert abs(res.boundary - want_res[1]) <= 1e-15

    @pytest.mark.parametrize("dx", [1e-6, 477e-6, 1.0])
    def test_wavefunctions(self, dx):
        x = np.linspace(-dx / 2, dx / 2, 1001)
        # a wide grid, and points in and around the 1e-4 windows at dx*k = +-pi
        near = np.pi + np.linspace(-3e-4, 3e-4, 61)
        u = np.concatenate([np.linspace(-60.0, 60.0, 4001), near, -near])
        k = u / dx
        psi, psik = eval_position_wavefunction(x, dx), eval_momentum_wavefunction(k, dx)
        assert type(psi) is list and type(psik) is list
        # 4 ulp, and 4 ulp of the peak where cos nears its zeros
        eps = np.finfo(float).eps
        for got, want in ((psi, np_position_wavefunction(x, dx)),
                          (psik, np_momentum_wavefunction(k, dx))):
            np.testing.assert_allclose(got, want, rtol=4 * eps,
                                       atol=4 * eps * np.max(np.abs(want)))
        assert type(eval_momentum_wavefunction(float(k[7]), dx)) is float
        assert eval_momentum_wavefunction(float(k[7]), dx) == psik[7]
        assert eval_position_wavefunction(float(x[7]), dx) == psi[7]
        with pytest.raises(InvalidArgument):
            eval_position_wavefunction([0.0, 0.51 * dx], dx)

    @pytest.mark.parametrize("argv", [["--slit-width", "477um", "--nmax", "4096"],
                                      ["--nmax", "512"], ["--nmax", "8"], ["--nmax", "1"]])
    def test_minstate_csvs_match_oracle_encoding(self, tmp_path, argv):
        # the README command and the TestMinstate cases, byte for byte
        assert cli.main(["minstate", *argv, "--out", str(tmp_path)]) == 0
        n_max = int(argv[argv.index("--nmax") + 1])
        for table in np_minstate_tables(477e-6, n_max):
            assert (tmp_path / table[0]).read_text() == format_csv(*table), table[0]


class TestPopoviciu:
    def test_uniform_density(self):
        dx = 2.5
        x = np.linspace(-dx / 2, dx / 2, 20001)
        d = SampledDensity(x, np.full_like(x, 1.0 / dx))
        assert popoviciu_sigma_x(d) == pytest.approx(dx / np.sqrt(12), rel=1e-8)

    def test_endpoint_mass_reaches_equality(self):
        # half the mass near each edge: sigma_x -> dx/2
        dx = 1.0
        eps = 1e-5
        x = np.linspace(-dx / 2, dx / 2, 2_000_001)
        v = np.zeros_like(x)
        v[x < -dx / 2 + eps] = 1.0
        v[x > dx / 2 - eps] = 1.0
        v /= np.trapezoid(v, x)
        assert popoviciu_sigma_x(SampledDensity(x, v)) == pytest.approx(dx / 2, rel=1e-4)

    def test_point_mass_center(self):
        x = np.linspace(-0.5, 0.5, 1_000_001)
        v = np.zeros_like(x)
        v[np.abs(x) < 5e-7] = 1.0
        v /= np.trapezoid(v, x)
        assert popoviciu_sigma_x(SampledDensity(x, v)) < 1e-5

    def test_unnormalized_rejected(self):
        x = np.linspace(-0.5, 0.5, 11)
        with pytest.raises(InvalidArgument):
            popoviciu_sigma_x(SampledDensity(x, np.full_like(x, 2.0)))

    def test_random_densities_bounded(self):
        rng = np.random.default_rng(11)
        dx = 1.7
        x = np.linspace(-dx / 2, dx / 2, 501)
        for _ in range(200):
            v = rng.random(x.size)
            v /= np.trapezoid(v, x)
            assert popoviciu_sigma_x(SampledDensity(x, v)) <= dx / 2 + 1e-12


class TestBuildReport:
    def test_min_state_equality(self):
        dx = 1.0
        report = build_report(None, np.pi / dx, dx)
        assert report.product_over_hbar == pytest.approx(np.pi, rel=1e-15)
        assert report.delta_p == 2 * np.pi / dx
        assert report.verdicts["sigma_p_delta_x_ge_pi_hbar"]
        assert report.verdicts["delta_x_delta_p_ge_2pi_hbar"]
        assert report.verdicts["sigma_p_delta_x_gt_hbar"]

    def test_lanczos_product(self):
        from slitbound import lanczos_gamma

        dx = 1.0
        gamma = lanczos_gamma()
        report = build_report(None, gamma * np.pi / dx, dx)
        assert report.product_over_hbar == pytest.approx(3.1947, abs=5e-4)
        assert report.verdicts["sigma_p_delta_x_ge_pi_hbar"]

    def test_zero_sigma_all_false(self):
        report = build_report(0.0, 0.0, 1.0)
        assert not any(report.verdicts.values())

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            build_report(None, -1.0, 1.0)

    def test_kennard_with_sigma_x(self):
        report = build_report(0.5, 1.0, 1.0)
        assert report.verdicts["kennard"]


class TestInvariantsProperties:
    def test_minimality_of_variational_solution(self):
        # any boundary-constrained normalized state has sigma_p*dx >= pi*hbar
        rng = np.random.default_rng(7)
        dx = 1.0
        n_max = 64
        v = (-1.0) ** np.arange(-n_max, n_max + 1)
        for _ in range(200):
            c = rng.normal(size=2 * n_max + 1) + 1j * rng.normal(size=2 * n_max + 1)
            c = c - v * (v @ c) / (v @ v)
            _, sigma_p = np_momentum_moments(np_normalized(c), dx)
            assert sigma_p * dx >= np.pi * (1 - 1e-6)

    def test_parseval_for_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = random_symmetric_state(32, 1.0, rng)
            assert abs(np.sum(np.abs(mirror(state.half)) ** 2) - 1.0) < 1e-10
