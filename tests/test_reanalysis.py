import numpy as np
import pytest

from slitbound import (
    FringeSlopes,
    InvalidArgument,
    UnitsConvention,
    fringe_delta_p,
    reanalyze_products,
)

PUBLISHED_PRODUCTS = [1.128, 2.464, 2.723]
PUBLISHED_XI = [0.179, 0.392, 0.433]
PUBLISHED_LAMBDA0 = [0.178, 0.376, 0.412]


class TestFringeDeltaP:
    def test_equal_slopes_give_zero(self):
        s = FringeSlopes(delta_omega=3.0, xdot_max=2.0, xdot_min=2.0)
        assert fringe_delta_p(s) == 0.0

    def test_zero_frequency_shift(self):
        s = FringeSlopes(delta_omega=0.0, xdot_max=2.0, xdot_min=1.0)
        assert fringe_delta_p(s) == 0.0

    def test_direct_arithmetic(self):
        # hbar=1: 1 * (2/2) * (2-1)/(2*1) = 0.5
        s = FringeSlopes(delta_omega=2.0, xdot_max=2.0, xdot_min=1.0)
        assert fringe_delta_p(s, UnitsConvention()) == pytest.approx(0.5, rel=1e-15)

    def test_hbar_scaling(self):
        s = FringeSlopes(delta_omega=2.0, xdot_max=2.0, xdot_min=1.0)
        assert fringe_delta_p(s, UnitsConvention(hbar=3.0)) == pytest.approx(1.5)

    def test_pi_correction_flag(self):
        s = FringeSlopes(delta_omega=2.0, xdot_max=2.0, xdot_min=1.0)
        assert fringe_delta_p(s, pi_correction=True) == pytest.approx(0.5 * np.pi)

    def test_zero_slope_rejected(self):
        s = FringeSlopes(delta_omega=1.0, xdot_max=1.0, xdot_min=0.0)
        with pytest.raises(InvalidArgument):
            fringe_delta_p(s)


class TestReanalyzeProducts:
    def test_published_rows(self):
        rows = reanalyze_products(PUBLISHED_PRODUCTS)
        for row, xi, lam in zip(rows, PUBLISHED_XI, PUBLISHED_LAMBDA0):
            assert row.xi == pytest.approx(row.a / (2 * np.pi), rel=1e-15)
            # the published table truncates the third decimal (1.128/2pi =
            # 0.17953 is listed as 0.179), so compare within one unit there
            assert abs(row.xi - xi) <= 1e-3
            assert row.lambda0 == pytest.approx(lam, abs=0.005)
            assert not row.well_defined

    def test_two_pi_is_well_defined(self):
        (row,) = reanalyze_products([2 * np.pi])
        assert row.xi == pytest.approx(1.0, rel=1e-15)
        assert row.lambda0 == pytest.approx(0.78, abs=0.01)
        assert row.well_defined

    def test_large_product_saturates(self):
        # xi = 12: lambda0 rounds to 1 + O(1e-14) on the grid and is clipped
        (row,) = reanalyze_products([2 * np.pi * 12])
        assert 0.999 < row.lambda0 <= 1.0
        assert row.well_defined

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        xis = rng.uniform(1e-3, 3.0, size=100)
        rows = reanalyze_products(2 * np.pi * xis)
        for row, xi in zip(rows, xis):
            assert row.xi == pytest.approx(xi, rel=1e-14)

    def test_monotone_in_a(self):
        rows = reanalyze_products(np.linspace(0.3, 12.0, 24))
        lams = [r.lambda0 for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgument):
            reanalyze_products([1.0, -2.0])
        with pytest.raises(InvalidArgument):
            reanalyze_products([0.0])
