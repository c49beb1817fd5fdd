import numpy as np
import pytest
from scipy.integrate import quad

from oracles import np_intensity_profile
from slitbound import (
    DetectorSpec,
    InvalidArgument,
    NoiseSpec,
    SlitGeometry,
    eval_lanczos_momentum_density,
    gamma_trace,
    lanczos_gamma,
    synthesize_frame,
    theory_trace,
)
from slitbound import diffraction, reports
from slitbound.diffraction import MAX_PANELS, band_moments

GEOMETRY = SlitGeometry(slit_width=477e-6, wavelength=632.82e-9, focal_length=0.150)
DETECTOR = DetectorSpec(num_pixels=3648, pixel_size=8e-6)


def sinc_moment(power):
    """The integrand u^power * density(u) of the width-2 state's band moment."""
    return lambda u: u**power * eval_lanczos_momentum_density(u, 2.0)


def band_moments_reference(u_edges, power):
    """Independent oracle for band_moments: edge by edge, equal panels of at
    most pi/2 in u with 32-point Gauss-Legendre on each, on the width-2 state."""
    xg, wg = np.polynomial.legendre.leggauss(32)
    out, total, lo = [], 0.0, 0.0
    for hi in u_edges:
        npanel = max(1, int(np.ceil((hi - lo) / (np.pi / 2))))
        cuts = np.linspace(lo, hi, npanel + 1)
        half = np.diff(cuts)[:, None] / 2.0
        u = (cuts[:-1, None] + cuts[1:, None]) / 2.0 + half * xg
        total += 2.0 * np.sum(half * wg * u**power * eval_lanczos_momentum_density(u, 2.0))
        out.append(total)
        lo = hi
    return np.array(out)


def noiseless_trace():
    return gamma_trace(DETECTOR, synthesize_frame(GEOMETRY, DETECTOR), GEOMETRY)


def noisy_final(sigma, seed):
    frame = synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(additive_sigma=sigma, seed=seed))
    return gamma_trace(DETECTOR, frame, GEOMETRY)[2][-1]


class TestIntensityProfile:
    def test_even(self):
        y = np.linspace(1e-5, 0.014, 400)
        assert np.array_equal(np_intensity_profile(GEOMETRY, y),
                              np_intensity_profile(GEOMETRY, -y))

    def test_normalized_over_detector_plane(self):
        total, _ = quad(lambda y: np_intensity_profile(GEOMETRY, y), 0, 0.05,
                        limit=2000, epsabs=1e-12)
        assert 2 * total == pytest.approx(1.0, abs=1e-6)

    def test_scales_with_geometry(self):
        # widening the slit narrows the pattern: I(y; dx) = s * I(s*y; dx/s)
        s = 2.0
        wide = SlitGeometry(slit_width=GEOMETRY.slit_width * s,
                            wavelength=GEOMETRY.wavelength,
                            focal_length=GEOMETRY.focal_length)
        y = np.linspace(0, 0.005, 200)
        assert np.allclose(np_intensity_profile(wide, y),
                           s * np_intensity_profile(GEOMETRY, s * y), rtol=1e-12)
        # a frame depends on the geometry through s = pi*dx/(lambda*f) alone:
        # at (3*lambda, f/3) s rounds to the same bits, and so does the frame
        same = SlitGeometry(slit_width=GEOMETRY.slit_width,
                            wavelength=3.0 * GEOMETRY.wavelength,
                            focal_length=GEOMETRY.focal_length / 3.0)
        assert same.scale == GEOMETRY.scale
        assert np.array_equal(synthesize_frame(same, DETECTOR),
                              synthesize_frame(GEOMETRY, DETECTOR))


class TestSlitGeometry:
    @pytest.mark.parametrize("field", ["slit_width", "wavelength", "focal_length"])
    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_fields_must_be_positive(self, field, bad):
        # each field is refused by name, before the derived scale
        # (which would refuse a zero slit width with another message) exist
        fields = {"slit_width": 477e-6, "wavelength": 632.82e-9, "focal_length": 0.150}
        with pytest.raises(InvalidArgument,
                           match=f"^{field} must be positive and finite, got {bad}$"):
            SlitGeometry(**{**fields, field: bad})

    def test_lengths_read_as_python_floats(self):
        # float32 lengths give the scale and the frame of their float values:
        # in float32 arithmetic the scale was 1.8e-8 off
        lengths = [np.float32(v) for v in (477e-6, 632.82e-9, 0.150)]
        narrow, wide = SlitGeometry(*lengths), SlitGeometry(*map(float, lengths))
        assert [type(getattr(narrow, name)) for name in narrow.__slots__] == [float] * 4
        assert narrow.scale == wide.scale
        assert np.array_equal(synthesize_frame(narrow, DETECTOR), synthesize_frame(wide, DETECTOR))


class TestDetectorSpec:
    def test_positions_symmetric(self):
        y = DETECTOR.pixel_positions()
        assert y.size == 3648
        assert np.allclose(y + y[::-1], 0.0, atol=1e-18)
        assert np.all(y != 0.0)
        assert np.diff(y) == pytest.approx(8e-6)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            DetectorSpec(num_pixels=3647, pixel_size=8e-6)
        with pytest.raises(InvalidArgument):
            DetectorSpec(num_pixels=reports.MAX_PIXELS + 2, pixel_size=8e-6)
        with pytest.raises(InvalidArgument):
            DetectorSpec(num_pixels=100, pixel_size=0.0)
        with pytest.raises(InvalidArgument):
            NoiseSpec(additive_sigma=-0.1)
        with pytest.raises(InvalidArgument):
            NoiseSpec(seed=-1)

    @pytest.mark.parametrize("bad", [0.0, -8e-6, np.nan, np.inf])
    def test_pixel_size_must_be_positive_and_finite(self, bad):
        # an infinite pitch would put every pixel at +-inf
        with pytest.raises(InvalidArgument,
                           match=f"^pixel_size must be positive and finite, got {bad}$"):
            DetectorSpec(num_pixels=4, pixel_size=bad)

    def test_pixel_size_read_as_a_python_float(self):
        # in float32 arithmetic the theory trace was 1.4e-8 off
        pitch = np.float32(8e-6)
        narrow, wide = DetectorSpec(3648, pitch), DetectorSpec(3648, float(pitch))
        assert type(narrow.pixel_size) is float
        assert np.array_equal(theory_trace(GEOMETRY, narrow), theory_trace(GEOMETRY, wide))

    def test_integer_fields(self):
        # a float count or seed is refused here, not deep inside numpy
        with pytest.raises(InvalidArgument, match="num_pixels must be an integer, got 4.0"):
            DetectorSpec(num_pixels=4.0, pixel_size=8e-6)
        with pytest.raises(InvalidArgument, match="seed must be an integer >= 0, got 1.5"):
            NoiseSpec(additive_sigma=1e-3, seed=1.5)
        detector = DetectorSpec(num_pixels=np.int64(4), pixel_size=8e-6)
        frame = synthesize_frame(GEOMETRY, detector, NoiseSpec(1e-3, seed=np.int64(3)))
        assert theory_trace(GEOMETRY, detector).shape == (2,) and frame.shape == (4,)


class TestSynthesizeFrame:
    def test_noiseless_equals_profile_samples(self):
        # the frame is s * rho(s*y), the width-2 density in u = s*y, bit for bit
        frame = synthesize_frame(GEOMETRY, DETECTOR)
        s = GEOMETRY.scale
        assert np.array_equal(frame, s * eval_lanczos_momentum_density(
            s * DETECTOR.pixel_positions(), 2.0))
        # and the k-form density (k0/f) * |phi~(k0*y/f)|^2 to rounding
        expected = np_intensity_profile(GEOMETRY, DETECTOR.pixel_positions())
        assert np.max(np.abs(frame - expected)) <= 1e-15 * np.max(expected)

    def test_noise_sigma_read_as_a_python_float(self):
        # in float32 arithmetic sigma * peak drew other noise than sigma's float value
        sigma = np.float32(1e-3)
        assert type(NoiseSpec(sigma).additive_sigma) is float
        assert np.array_equal(synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(sigma, 7)),
                              synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(float(sigma), 7)))

    def test_noiseless_symmetric(self):
        v = synthesize_frame(GEOMETRY, DETECTOR)
        assert np.array_equal(v, v[::-1])

    def test_deterministic_per_seed(self):
        noise = NoiseSpec(additive_sigma=1e-3, seed=7)
        a = synthesize_frame(GEOMETRY, DETECTOR, noise)
        b = synthesize_frame(GEOMETRY, DETECTOR, noise)
        assert np.array_equal(a, b)
        c = synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(additive_sigma=1e-3, seed=8))
        assert not np.array_equal(a, c)

    def test_nonnegative_after_noise(self):
        frame = synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(additive_sigma=0.05, seed=1))
        assert np.all(frame >= 0)

    def test_quantization_grid(self):
        frame = synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(quantize=True))
        peak = float(np.max(frame))
        levels = (1 << 16) - 1
        dn = frame / peak * levels
        assert np.allclose(dn, np.rint(dn), atol=1e-6)


class TestNormalizeFrame:
    """gamma_trace normalizes the frame it is given to sum(I_i) = 1."""

    def test_unit_mass(self):
        # a flat frame at any level, normalized to 1/(N*pixel_size) per pixel:
        # sum(pixel_size * y_i^2)/(N*pixel_size) = pixel_size^2 * (N^2 - 1)/12
        N, p = DETECTOR.num_pixels, DETECTOR.pixel_size
        prefactor = 2.0 * GEOMETRY.slit_width / (GEOMETRY.wavelength * GEOMETRY.focal_length)
        want = prefactor * p * np.sqrt((N * N - 1) / 12.0)
        for level in (1.0, 5.0e3):
            _, _, gamma_hat = gamma_trace(DETECTOR, np.full(N, level), GEOMETRY)
            assert gamma_hat[-1] == pytest.approx(want, rel=1e-14)

    def test_scale_invariance(self):
        base = synthesize_frame(GEOMETRY, DETECTOR)
        for a, b in zip(gamma_trace(DETECTOR, base, GEOMETRY),
                        gamma_trace(DETECTOR, base * 37.0, GEOMETRY)):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidArgument, match="cannot normalize an all-zero frame"):
            gamma_trace(DETECTOR, np.zeros(3648), GEOMETRY)

    def test_overflowing_sum_rejected(self):
        # each intensity is finite but their sum is not: dividing by it would
        # zero every term and give gamma_hat = 0
        frame = [1e308, 1.7e308, 1.7e308, 1e308]
        with pytest.raises(InvalidArgument, match="intensity sum overflows"):
            gamma_trace(DetectorSpec(num_pixels=4, pixel_size=8e-6), frame, GEOMETRY)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidArgument, match="intensities length must equal num_pixels"):
            gamma_trace(DETECTOR, np.ones(3646), GEOMETRY)

    def test_negative_rejected(self):
        frame = synthesize_frame(GEOMETRY, DETECTOR)
        frame[0] = -1e-12
        with pytest.raises(InvalidArgument, match="intensities must be nonnegative"):
            gamma_trace(DETECTOR, frame, GEOMETRY)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # refused before the normalization, which would give a nan trace
        frame = synthesize_frame(GEOMETRY, DETECTOR)
        frame[1000] = bad
        with pytest.raises(InvalidArgument, match="intensities must be nonnegative and finite"):
            gamma_trace(DETECTOR, frame, GEOMETRY)


class TestGammaTrace:
    def test_shape_and_extent(self):
        n, y_extent, _ = noiseless_trace()
        assert n[0] == 1 and n[-1] == 1824
        assert y_extent[0] == pytest.approx(8e-6)
        assert y_extent[-1] == pytest.approx(DETECTOR.num_pixels * DETECTOR.pixel_size / 2)

    def test_nondecreasing(self):
        _, _, gamma_hat = noiseless_trace()
        assert np.all(np.diff(gamma_hat) >= 0)

    def test_noiseless_final_value(self):
        _, _, gamma_hat = noiseless_trace()
        theory_edge = theory_trace(GEOMETRY, DETECTOR)[-1]
        assert abs(gamma_hat[-1] - theory_edge) < 0.005 * lanczos_gamma()

    def test_noiseless_pointwise_vs_theory(self):
        _, y_extent, gamma_hat = noiseless_trace()
        theory = theory_trace(GEOMETRY, DETECTOR)
        sel = y_extent >= 0.2e-3
        gap = np.abs(gamma_hat[sel] - theory[sel])
        assert np.max(gap) < 0.01 * lanczos_gamma()

    def test_overflowing_terms_rejected(self):
        # y = +-1e155 m is u = scale*y = +-1.6e159: u^2 overflows, so u^2*I would be inf
        detector = DetectorSpec(num_pixels=2, pixel_size=2e155)
        with pytest.raises(InvalidArgument, match=r"\+-1\.58e\+159 is too large: u\^2 overflows"):
            gamma_trace(detector, [0.2, 0.2], GEOMETRY)

    def test_intensities_that_are_not_real_rejected(self):
        # numpy would drop the imaginary part or parse the text
        frame = synthesize_frame(GEOMETRY, DETECTOR)
        text = frame.astype(str)
        for bad in (frame + 0j, text, text.tolist(), [None] * frame.size):
            with pytest.raises(InvalidArgument, match="^intensities must be real, not "):
                gamma_trace(DETECTOR, bad, GEOMETRY)
        want = gamma_trace(DETECTOR, frame, GEOMETRY)[2]
        assert np.array_equal(gamma_trace(DETECTOR, frame.tolist(), GEOMETRY)[2], want)
        counts = np.rint(frame / frame.max() * 1000).astype(int)
        assert np.array_equal(gamma_trace(DETECTOR, counts, GEOMETRY)[2],
                              gamma_trace(DETECTOR, counts.astype(float), GEOMETRY)[2])

    def test_depends_on_geometry_only_through_scale(self):
        # (3*lambda, f/3) has the same scale pi*delta_x/(lambda*f) up to rounding
        frame = synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(additive_sigma=1e-3, seed=7))
        other = SlitGeometry(slit_width=GEOMETRY.slit_width, wavelength=3 * GEOMETRY.wavelength,
                             focal_length=GEOMETRY.focal_length / 3)
        gamma_hat = gamma_trace(DETECTOR, frame, GEOMETRY)[2]
        assert other.scale == pytest.approx(GEOMETRY.scale, rel=4e-16)
        np.testing.assert_allclose(gamma_trace(DETECTOR, frame, other)[2], gamma_hat,
                                   rtol=4e-15, atol=0)
        np.testing.assert_allclose(theory_trace(other, DETECTOR),
                                   theory_trace(GEOMETRY, DETECTOR), rtol=4e-15, atol=0)


class TestTheoryTrace:
    def test_monotone_with_limit_gamma(self):
        # pixel-pair edges y = n * 0.05 mm out to 40 mm
        vals = theory_trace(GEOMETRY, DetectorSpec(num_pixels=1600, pixel_size=0.05e-3))
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all(vals <= lanczos_gamma() + 1e-12)
        assert vals[-1] == pytest.approx(lanczos_gamma(), abs=5e-4)

    def test_edge_captures_most_of_gamma(self):
        edge = theory_trace(GEOMETRY, DETECTOR)[-1]
        assert edge > 0.99 * lanczos_gamma()

    def test_matches_reference_on_pixel_grid(self):
        # the theory at each y_extent = n * pixel_size, n = 1..N/2
        for detector in (DetectorSpec(64, 2e-3), DetectorSpec(512, 8e-6)):
            n = np.arange(1, detector.num_pixels // 2 + 1)
            want = 2.0 / np.pi * np.sqrt(band_moments_reference(
                GEOMETRY.scale * detector.pixel_size * n, 2))
            got = theory_trace(GEOMETRY, detector)
            assert np.max(np.abs(got / want - 1.0)) <= 4e-15

    def test_invalid_grid(self):
        # the grid is the detector's, and DetectorSpec refuses a bad one
        for bad in (0.0, -1e-3, np.nan):
            with pytest.raises(InvalidArgument, match="pixel_size"):
                DetectorSpec(num_pixels=2, pixel_size=bad)
        # a band edge u = scale*y of 1.6e307 is refused as too many panels,
        # before any array arithmetic
        with pytest.raises(InvalidArgument, match=str(MAX_PANELS)):
            theory_trace(GEOMETRY, DetectorSpec(num_pixels=2, pixel_size=1e303))

    def test_infinite_band_edge_refused(self):
        # u = scale*y past the floats is refused as a width before any array
        # holds it, so numpy warns of no overflow
        with pytest.raises(InvalidArgument, match="^width must be positive and finite, got inf$"):
            theory_trace(GEOMETRY, DetectorSpec(num_pixels=4, pixel_size=1e305))


class TestBandMoments:
    def test_cumulative_moments_match_adaptive_quadrature(self):
        for width in (0.3, 2.0, 17.5):
            for power in (0, 2):
                got = band_moments(sinc_moment(power), width, 3)
                want = [
                    2 * quad(sinc_moment(power), 0.0, e, limit=200, epsabs=1e-14)[0]
                    for e in width * np.arange(1, 4)
                ]
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_single_edge_helpers_agree(self):
        # 40 intervals of 5 panels each against one interval of 191 panels
        for power in (0, 2):
            assert band_moments(sinc_moment(power), 7.5, 40)[-1] == pytest.approx(
                band_moments(sinc_moment(power), 300.0, 1)[0], rel=1e-13)

    @pytest.mark.parametrize("dx", [1.0, 477e-6])
    def test_matches_32_node_reference(self, dx):
        # edges laid out in wavenumber k for a slit of width dx, one panel cap
        # pi/dx apart, then mapped to u = dx*k/2 as a caller would; the
        # rounding of that map leaves the width a hair off the cap in u.
        # Every panel the cap width, out to u = 2000
        width = np.pi / dx * (dx / 2)
        for power in (0, 2):
            got = band_moments(sinc_moment(power), width, 1273)
            want = band_moments_reference(width * np.arange(1, 1274), power)
            assert np.max(np.abs(got / want - 1.0)) <= 4e-15, power

    @pytest.mark.parametrize("width", [np.pi / 2, np.nextafter(np.pi / 2, 4), 2.0, 31.6],
                             ids=["pi/2", "above-pi/2", "2.0", "31.6"])
    def test_widths_match_32_node_reference(self, width):
        # 1, 2, 2 and 21 panels per interval
        count = 40
        for power in (0, 2):
            got = band_moments(sinc_moment(power), width, count)
            want = band_moments_reference(width * np.arange(1, count + 1), power)
            assert np.max(np.abs(got / want - 1.0)) <= 4e-15, power

    @pytest.mark.parametrize("width", [0.3, np.pi / 2, np.nextafter(np.pi / 2, 4), 2.0, 31.6],
                             ids=["0.3", "pi/2", "above-pi/2", "2.0", "31.6"])
    def test_even_monomials_exact(self, width):
        # 8-point Gauss-Legendre is exact to degree 15, so the integrals of
        # u^0 .. u^14 are 2*U^(p+1)/(p+1) at every edge U to rounding
        for count in (1, 7, 40):
            edges = width * np.arange(1, count + 1)
            for p in range(0, 16, 2):
                got = band_moments(lambda u: u**p, width, count)
                want = 2.0 * edges ** (p + 1) / (p + 1)
                assert np.max(np.abs(got / want - 1.0)) <= 1e-14, (count, p)

    def test_gauss_legendre_constants(self):
        # the 8-point rule is written out; it must stay numpy's, to 1 ulp
        nodes, weights = np.polynomial.legendre.leggauss(8)
        for const, ref in ((diffraction._GL8_NODES, nodes), (diffraction._GL8_WEIGHTS, weights)):
            assert np.all(np.abs(np.array(const) - ref) <= np.spacing(np.abs(ref)))
            assert isinstance(const, tuple)

    def test_count_zero_is_empty(self):
        assert band_moments(sinc_moment(2), 2.0, 0).shape == (0,)

    def test_invalid_arguments(self):
        for width in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgument,
                               match=f"^width must be positive and finite, got {width}$"):
                band_moments(sinc_moment(2), width, 3)
        with pytest.raises(InvalidArgument, match="count >= 0"):
            band_moments(sinc_moment(2), 1.0, -1)

    @pytest.mark.parametrize("width,per", [(1.0, 1), (4.0, 3)])
    def test_panel_cap_boundary(self, monkeypatch, width, per):
        # count * per panels: at the cap passes, one interval more is refused
        monkeypatch.setattr(diffraction, "MAX_PANELS", 12)
        assert band_moments(sinc_moment(2), width, 12 // per).shape == (12 // per,)
        with pytest.raises(InvalidArgument, match=f"needs {12 + per} panels.*more than 12"):
            band_moments(sinc_moment(2), width, 12 // per + 1)


class TestNoiseBehavior:
    def test_noise_inflates_midrange_estimate(self):
        # rectified additive noise adds spurious y^2-weighted mass; once the
        # extent clears the central lobe (>= 1.5 mm) the noisy trace
        # overshoots the noiseless one and never comes back down
        _, y_extent, clean = noiseless_trace()
        noisy_frame = synthesize_frame(GEOMETRY, DETECTOR, NoiseSpec(additive_sigma=1e-3, seed=42))
        _, _, noisy = gamma_trace(DETECTOR, noisy_frame, GEOMETRY)
        sel = y_extent >= 1.5e-3
        assert np.all(noisy[sel] > clean[sel])

    def test_final_estimate_exceeds_one_across_seeds(self):
        count = sum(noisy_final(1e-3, seed) > 1.0 for seed in range(100))
        assert count >= 99

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "unattainable as stated: at additive_sigma = 1e-3 of peak, the "
            "y^2-weighted second moment of the rectified noise floor over the "
            "full 29.184 mm detector (~3.2e-6 m^2-weighted mass) dwarfs the "
            "signal second moment (~1.0e-8), so the sample mean of the final "
            "estimate sits near 17.6, not within 1% of the noiseless value; "
            "see the small-sigma regime test below for the recoverable limit"
        ),
    )
    def test_noisy_mean_matches_noiseless_at_stated_sigma(self):
        clean = noiseless_trace()[2][-1]
        finals = [noisy_final(1e-3, seed) for seed in range(100)]
        assert abs(np.mean(finals) - clean) < 0.01 * clean

    def test_noisy_mean_matches_noiseless_at_small_sigma(self):
        # in the regime where the noise floor is negligible against the signal
        # second moment, the estimator mean does recover the noiseless value
        clean = noiseless_trace()[2][-1]
        finals = [noisy_final(1e-8, seed) for seed in range(20)]
        assert abs(np.mean(finals) - clean) < 0.01 * clean
