import numpy as np
import pytest

from slitbound import InvalidArgument, reanalyze_products
from slitbound.concentration import WELL_DEFINED_THRESHOLD, WELL_DEFINED_XI

PUBLISHED_PRODUCTS = [1.128, 2.464, 2.723]
PUBLISHED_XI = [0.179, 0.392, 0.433]
PUBLISHED_LAMBDA0 = [0.178, 0.376, 0.412]


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

    def test_verdict_at_threshold(self):
        # a* = 2 pi xi* and its float neighbours, where lambda0 is 0.70 to a few
        # ulps: the verdict is the closed comparison lambda0 >= 0.70
        assert WELL_DEFINED_THRESHOLD == 0.70
        a_star = 2 * np.pi * WELL_DEFINED_XI
        a_values = [a_star]
        for direction in (0.0, np.inf):
            a = a_star
            for _ in range(64):
                a = np.nextafter(a, direction)
                a_values.append(a)
        rows = reanalyze_products(a_values)
        for row in rows:
            assert row.well_defined == (row.lambda0 >= WELL_DEFINED_THRESHOLD)
        assert {row.well_defined for row in rows} == {False, True}

    def test_large_product_saturates(self):
        # xi = 12: 1 - lambda0 is below double precision
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

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidArgument, match="finite"):
                reanalyze_products([1.0, bad])
