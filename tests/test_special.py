from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import mirrored, np_lanczos_position
from slitbound import cli
from slitbound import (
    InvalidArgument,
    eval_lanczos_momentum_density,
    eval_lanczos_position,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    lanczos_gamma,
    sine_integral,
)
from slitbound.core import FourierState, build_report
from slitbound.diffraction import band_moments
from slitbound.reports import format_csv
from slitbound.special import (
    SI_2PI,
    _si,
    lanczos_tail_bounds,
)

# int_0^{2pi} sin(t)/t dt by adaptive quadrature (epsabs 1e-14)
SI_2PI_ORACLE = 1.4181515761326284
# Si(pi)^2 / (2 pi^2 Si(2pi)), from the same quadrature oracle
LANCZOS_DENSITY_AT_ZERO = 0.12251804225912144
# Si at exact doubles to 32 significant digits (mpmath.si at 45 digits): both
# sides of the |x| = 4 switch between the Pade and the f, g forms, 2*pi, the
# worst point found (3.79), and up to 1e6
SI_REFERENCES = [
    (1e-8, "1.0000000000000000153670052745729e-8"),
    (0.5, "0.49310741804306668916162670757276"),
    (1.0, "0.94608307036718301494135331382318"),
    (3.79, "1.7949921769732642500950314571967"),
    (3.99, "1.7600892984314865533097710266085"),
    (4.0, "1.7582031389490530581055593033585"),
    (np.nextafter(4.0, 5.0), "1.7582031389490528900616482264317"),
    (4.01, "1.7563053683733345294916372619503"),
    (2 * np.pi, "1.4181515761326284502457801622998"),
    (10.0, "1.6583475942188740493309718793897"),
    (37.5, "1.5448334540038942671914270471229"),
    (100.0, "1.5622254668890562933523451388045"),
    (1e3, "1.5702331219687712181479627780363"),
    (1e4, "1.5708915453859619157223696748094"),
    (1e5, "1.5708063203993941228391714019773"),
    (1e6, "1.5707953900431190814622082011421"),
]


def band_moment(dx, k_max, power):
    """int_{|k| <= k_max} |k|^power * density(k) dk at a single edge, from the
    width-2 moment in u = dx*k/2: (2/dx)^power * M(dx*k_max/2)."""
    return (2.0 / dx) ** power * band_moments(
        lambda u: u**power * eval_lanczos_momentum_density(u, 2.0), dx * k_max / 2.0, 1)[0]


def averaged_tail_integrand(u):
    # oscillation average of u^2 * [Si(u+pi) - Si(u-pi)]^2 from the two-term
    # Si asymptotics; error O(1/u^2) relative
    return (2 * np.pi**2 * u**2 / (u**2 - np.pi**2) ** 2
            + 8 * np.pi**2 * u**4 / (u**2 - np.pi**2) ** 4)


def sigma_k_by_quadrature(dx: float) -> float:
    """Independent oracle: second moment of the momentum density by direct
    quadrature to U plus the analytic oscillation-averaged tail."""
    U = 2000.0
    m2 = band_moment(dx, 2 * U / dx, 2)
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

    def test_against_32_digit_references(self):
        # the absolute error the sine_integral docstring states, on the float
        # and the array path and at -x
        for x, ref in SI_REFERENCES:
            for sign in (1, -1):
                got = (sine_integral(sign * float(x)), sine_integral(np.array([sign * x]))[0])
                for value in got:
                    assert abs(Decimal(float(value)) - sign * Decimal(ref)) <= Decimal("1e-15"), x

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
        # past every finite x the float, list and array paths give nan, as
        # numpy's cos and sin do at infinity; a nan's sign bit is not fixed
        for x in (np.inf, -np.inf, np.nan):
            with np.errstate(invalid="ignore"):
                got = [sine_integral(x), *sine_integral([x]), *sine_integral(np.array([x]))]
            assert np.isnan(got).all(), x

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
    # the tables of cmd_lanczos, whose density columns the float path fills
    # on |x| and format_csv mirrors: on the full grid each column has the
    # bits of the numpy formula, so the CSVs a list and an array encode
    # agree; the position density is checked against the square of its
    # numpy oracle, the momentum density against its own array path, which
    # diffraction.band_moments runs
    args = cli.build_parser().parse_args(["lanczos", "--slit-width", f"{dx!r}m"])
    tables, (_, parameters, *_) = args.func(args)
    assert parameters["slit_width_m"] == dx
    for table, fn, numpy_path in zip(
            tables,
            (eval_lanczos_position, eval_lanczos_momentum_density),
            (lambda a: np_lanczos_position(a, dx) ** 2,
             lambda a: eval_lanczos_momentum_density(a, dx))):
        assert isinstance(table[2][1], list)
        full = mirrored(table)
        assert format_csv(*table) == format_csv(*full)
        _, _, (grid, column), _ = full
        array = numpy_path(np.array(grid))
        assert isinstance(array, np.ndarray)
        assert np.array_equal(np.array(column).view(np.int64), array.view(np.int64))
        assert all(type(fn(v, dx)) is float for v in grid[:3])


def test_float_kernel_matches_array_path_bitwise():
    # special._si, the path that lists and numbers take, has the bits of the
    # array path on both sides of x^2 = 16, at +-0, a subnormal and far out:
    # both evaluate _pade and _asymptotic, but each chooses the form, takes
    # cos and sin and applies the sign itself; past every finite x both give nan
    four = [float(np.nextafter(4.0, np.inf)), float(np.nextafter(4.0, -np.inf))]
    points = [0.0, -0.0, *four, 4.0, 2 * np.pi, 1e300, 5e-324, 2.5e-310, 1.7976931348623157e308]
    points += [-x for x in points]
    with np.errstate(over="ignore", invalid="ignore"):  # x*x overflows past 1.3e154
        for x in points:
            want = sine_integral(np.array([x]))[0]
            assert np.float64(_si(x)).view(np.int64) == want.view(np.int64), x
        for x in (np.inf, -np.inf, np.nan):
            assert np.isnan(_si(x)) and np.isnan(sine_integral(np.array([x]))[0]), x


# sine_integral's bits at the SI_REFERENCES points, at 4.0's lower neighbour,
# at +-0 and at the least subnormal, frozen as hex from commit 9878d8e, where
# the float and the array path wrote their rational forms apart: now that
# they share them, neither path can catch a reordering in the other
SI_FROZEN = [
    "0x1.5798ee2308c3ap-27", "0x1.f8f126a7a3cf9p-2", "0x1.e465000d0d798p-1",
    "0x1.cb849b78ad0f1p+0", "0x1.c2953656cd858p+0", "0x1.c21999d582befp+0",
    "0x1.c21999d582befp+0", "0x1.c19d3a86f3e46p+0", "0x1.6b0bfb5042afbp+0",
    "0x1.a88977ca9201fp+0", "0x1.8b7a348ab6a46p+0", "0x1.8fee0219444edp+0",
    "0x1.91facc41f3ac9p+0", "0x1.9225f2c4fee01p+0", "0x1.92205cee772abp+0",
    "0x1.921fa58cf158cp+0", "0x1.c21999d582befp+0", "0x0.0p+0", "0x0.0p+0",
    "0x0.0000000000001p-1022",
]


def test_bits_frozen_on_both_paths():
    points = [float(x) for x, _ in SI_REFERENCES]
    points += [float(np.nextafter(4.0, 3.0)), 0.0, -0.0, 5e-324]
    assert len(points) == len(SI_FROZEN)
    for x, want in zip(points, SI_FROZEN):
        got = (sine_integral(x), sine_integral(np.array([x]))[0])
        assert [float(v).hex() for v in got] == [want, want], x


READERS = {
    "sine_integral": sine_integral,
    "eval_lanczos_position": lambda x: eval_lanczos_position(x, 1.0),
    "eval_lanczos_momentum_density": lambda k: eval_lanczos_momentum_density(k, 1.0),
    "eval_position_wavefunction": lambda x: eval_position_wavefunction(x, 1.0),
    "eval_momentum_wavefunction": lambda k: eval_momentum_wavefunction(k, 1.0),
}


@pytest.mark.parametrize("name", READERS)
def test_unordered_points_refused(name):
    # text iterates by character (b"1" as 49), a set in hash order, a mapping by key
    for bad in ("0.1", b"1", bytearray(b"1"), {0.1, 0.2}, frozenset({0.1}), {0.1: 0.2}):
        with pytest.raises(InvalidArgument,
                           match=f"^points must be numbers in order, not a {type(bad).__name__}$"):
            READERS[name](bad)


@pytest.mark.parametrize("name", READERS)
def test_points_that_are_not_real_refused(name):
    # text would read as the number it spells and a complex, numpy's too,
    # without its imaginary part; None or an object without __float__ is no number
    for bad in (["0.1"], ["abc"], [None], [[0.1]], None, 1j, [np.complex128(0.1)],
                np.complex64(0.1), np.array([0.1 + 0j]), np.array(["0.1"]), [np.str_("0.1")]):
        with pytest.raises(InvalidArgument, match="^points must be real, not "):
            READERS[name](bad)


@pytest.mark.parametrize("name", READERS)
def test_ordered_points_read_alike(name):
    want = READERS[name]([0.25, 0.0, 0.5])
    for points in ((0.25, 0.0, 0.5), (v for v in [0.25, 0.0, 0.5]),
                   [Fraction(1, 4), False, np.float32(0.5)], [Decimal("0.25"), np.int8(0), 0.5]):
        assert READERS[name](points) == want
    assert np.array_equal(np.asarray(READERS[name](np.array([0.25, 0.0, 0.5]))), want)
    assert READERS[name](range(1)) == READERS[name]([0.0])


@pytest.mark.parametrize("dx", [0.0, -0.0, -1.0, np.nan, np.inf])
def test_width_must_be_positive(dx):
    # every entry point refuses the width itself, the density on each path
    calls = [lambda: eval_lanczos_position(0.0, dx),
             lambda: eval_lanczos_momentum_density(0.0, dx),
             lambda: eval_lanczos_momentum_density([0.0], dx),
             lambda: eval_lanczos_momentum_density(np.array([0.0]), dx),
             lambda: lanczos_tail_bounds(dx, 100.0)]
    for call in calls:
        with pytest.raises(InvalidArgument, match="^delta_x must be positive and finite, got "):
            call()


def test_width_read_as_a_python_float():
    # a numpy scalar width computes in Python floats, as its float value does;
    # float32 arithmetic would move each result by about 1e-8
    calls = [lambda w: eval_position_wavefunction([1e-5], w),
             lambda w: eval_momentum_wavefunction([3e3], w),
             lambda w: eval_lanczos_position([1e-5], w),
             lambda w: eval_lanczos_momentum_density([3e3], w),
             lambda w: eval_lanczos_momentum_density(np.array([3e3]), w).tolist(),
             lambda w: lanczos_tail_bounds(w, 1e5),
             lambda w: build_report(None, 7e3, w),
             lambda w: FourierState(w, half=[1.0, 0.5]).slit_width]
    width = np.float32(477e-6)
    for call in calls:
        assert repr(call(width)) == repr(call(float(width)))
    # and so does the band edge of the tail bounds, which refuse text
    want = repr(lanczos_tail_bounds(1.0, 600.0))
    assert repr(lanczos_tail_bounds(1.0, np.float32(600.0))) == want
    with pytest.raises(InvalidArgument, match="^k_max must be real, not str$"):
        lanczos_tail_bounds(1.0, "600")


class TestLanczosPosition:
    def test_center_value(self):
        dx = 0.8
        assert eval_lanczos_position(0.0, dx) == pytest.approx(
            np.sqrt(np.pi / (SI_2PI * dx)), rel=1e-14
        )

    def test_edges_vanish(self):
        dx = 1.0
        assert eval_lanczos_position(0.5, dx) == pytest.approx(0.0, abs=1e-15)
        assert eval_lanczos_position(-0.5, dx) == pytest.approx(0.0, abs=1e-15)

    def test_outside_slit_is_zero(self):
        dx = 1.0
        assert eval_lanczos_position(0.6, dx) == 0.0
        assert eval_lanczos_position([-np.inf, np.inf], dx) == [0.0, 0.0]

    def test_nan_is_nan(self):
        # a nan x is not outside the slit: it reaches the sinc, as it does
        # in the other evaluators
        assert np.isnan(eval_lanczos_position(np.nan, 1.0))
        got = eval_lanczos_position([0.0, np.nan], 1.0)
        assert got[0] == eval_lanczos_position(0.0, 1.0) and np.isnan(got[1])

    def test_normalization(self):
        dx = 1.3
        total, _ = quad(lambda x: eval_lanczos_position(x, dx) ** 2,
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
            assert eval_lanczos_momentum_density(0.0, dx) == pytest.approx(
                LANCZOS_DENSITY_AT_ZERO * dx, rel=1e-12
            )
            # closed form of the same value
            assert eval_lanczos_momentum_density(0.0, dx) == pytest.approx(
                dx * sine_integral(np.pi) ** 2 / (2 * np.pi**2 * SI_2PI), rel=1e-14
            )

    def test_even_and_nonnegative(self):
        dx = 1.0
        ks = np.linspace(0.1, 200.0, 997)
        assert np.array_equal(
            eval_lanczos_momentum_density(ks, dx),
            eval_lanczos_momentum_density(-ks, dx),
        )
        assert np.all(eval_lanczos_momentum_density(ks, dx) >= 0)
        # nan, not an exception, at an infinite or nan k on every path
        for k in (np.inf, -np.inf, np.nan):
            with np.errstate(invalid="ignore"):
                got = [eval_lanczos_momentum_density(k, dx),
                       *eval_lanczos_momentum_density([k], dx),
                       *eval_lanczos_momentum_density(np.array([k]), dx)]
            assert np.isnan(got).all(), k

    def test_normalization_with_certified_tail(self):
        dx = 1.0
        k_max = 600.0
        weight = band_moment(dx, k_max, 0)
        tail, _ = lanczos_tail_bounds(dx, k_max)
        assert tail < 1e-7
        # true mass beyond k_max lies in [0, tail], so the full integral is 1
        assert -1e-10 <= 1.0 - weight <= tail + 1e-10

    def test_second_moment_matches_gamma(self):
        dx = 1.0
        sigma_k = sigma_k_by_quadrature(dx)
        assert sigma_k * dx == pytest.approx(lanczos_gamma() * np.pi, rel=1e-7)

    @pytest.mark.parametrize("dx", [1.0, 477e-6])
    def test_tail_bounds_need_a_band_past_two_pi(self, dx):
        # the Si asymptotics hold for u = dx*k_max/2 > 2*pi: at and below it
        # the bound is refused
        for k_max in (4.0 * np.pi / dx, 1.0 / dx):
            with pytest.raises(InvalidArgument, match="requires dx\\*k_max/2 > 2\\*pi"):
                lanczos_tail_bounds(dx, k_max)
        assert all(np.isfinite(lanczos_tail_bounds(dx, 4.0 * np.nextafter(np.pi, 4) / dx)))

    def test_tail_bounds_refuse_a_band_edge_not_positive_and_finite(self):
        # a nan or infinite k_max once gave (nan, nan), an uncertified bound
        for k_max in (0.0, -1e3, np.nan, np.inf):
            with pytest.raises(InvalidArgument,
                               match=f"^k_max must be positive and finite, got {k_max}$"):
                lanczos_tail_bounds(1.0, k_max)

    def test_tail_bounds_certify(self):
        # bounds must dominate the numerically integrated remainder
        dx = 1.0
        w_inner = band_moment(dx, 200.0, 0)
        w_outer = band_moment(dx, 2000.0, 0)
        w_tail, m_tail = lanczos_tail_bounds(dx, 200.0)
        assert w_outer - w_inner <= w_tail
        m_inner = band_moment(dx, 200.0, 2)
        m_outer = band_moment(dx, 2000.0, 2)
        assert m_outer - m_inner <= m_tail


class TestFourierConsistency:
    def test_transform_of_position_state_matches_density(self):
        # numerically Fourier-transforming the position amplitude reproduces
        # the square root of the momentum density on |k| <= 8 pi / dx
        dx = 1.0
        ks = np.linspace(0.0, 8 * np.pi / dx, 81)
        target = np.sqrt(eval_lanczos_momentum_density(ks, dx))
        scale = np.max(target)
        for k, t in zip(ks, target):
            ft, _ = quad(
                lambda x: eval_lanczos_position(x, dx) * np.cos(k * x) / np.sqrt(2 * np.pi),
                -dx / 2, dx / 2, epsabs=1e-13,
            )
            assert abs(abs(ft) - t) < 1e-6 * scale
