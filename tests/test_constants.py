import math
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from haar_riesz import (
    InputError,
    WeightConfig,
    asymptotic_constant,
    bcms_constant,
    comparison_table,
    conjectured_sharp_constant,
    make_report,
    riesz_constant,
    weight_mass,
)


class TestRieszConstant:
    def test_three_quarters(self):
        assert riesz_constant(F(3, 4)) == F(1, 16)

    def test_one(self):
        assert riesz_constant(F(1)) == F(1, 2)

    @given(st.fractions(min_value=F(2, 3), max_value=1, max_denominator=499))
    def test_reciprocal_of_weight_cap(self, p):
        if p <= F(2, 3):
            return
        cfg = WeightConfig(p)
        assert riesz_constant(p) == 1 / weight_mass(F(1), cfg)

    def test_failure_regime_rejected(self):
        for p in (F(2, 3), F(1, 2), F(0)):
            with pytest.raises(InputError):
                riesz_constant(p)

    def test_each_side_of_the_domain_has_its_message(self):
        for p in (F(2, 3), F(1, 2), F(-1)):
            with pytest.raises(InputError, match=f"for p <= 2/3 \\(got p = {p}\\)"):
                riesz_constant(p)
        for p in (F(3, 2), F(1) + F(1, 10**9)):
            with pytest.raises(InputError) as caught:
                riesz_constant(p)
            message = str(caught.value)
            assert f"cannot exceed 1 (got p = {p})" in message
            assert "2/3 < p <= 1" in message and "p <= 2/3" not in message
        assert riesz_constant(F(1)) == F(1, 2)  # the end of the domain is in it

    def test_strictly_increasing(self):
        grid = [F(2, 3) + F(k, 300) for k in range(1, 101)]
        values = [riesz_constant(p) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_range(self):
        for k in range(1, 50):
            p = F(2, 3) + F(k, 147)
            if p > 1:
                break
            assert 0 < riesz_constant(p) <= F(1, 2)


class TestAsymptotics:
    def test_direct_value(self):
        assert abs(asymptotic_constant(2 / 3 + 0.01) - 1.0125e-3) < 1e-15

    def test_vanishes_at_threshold(self):
        assert asymptotic_constant(2 / 3) == 0.0

    def test_ratio_tends_to_one(self):
        deviations = []
        for k in (2, 3, 4):
            p = F(2, 3) + F(1, 10**k)
            ratio = float(riesz_constant(p)) / asymptotic_constant(float(p))
            deviations.append(abs(ratio - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]


class TestSharpConjectured:
    def test_direct_value(self):
        assert abs(conjectured_sharp_constant(2 / 3 + 0.01) - 2.7e-3) < 1e-15

    def test_vanishes_at_threshold(self):
        assert conjectured_sharp_constant(2 / 3) == 0.0

    def test_fixed_ratio_to_asymptotic(self):
        for p in (0.7, 0.8, 0.99):
            assert (
                abs(
                    conjectured_sharp_constant(p) / asymptotic_constant(p)
                    - 8.0 / 3.0
                )
                < 1e-12
            )


class TestBcms:
    def test_endpoint(self):
        assert abs(bcms_constant(1.0) - 0.5) < 1e-15

    def test_interior_value(self):
        assert abs(bcms_constant(1.2) - (0.6 - math.sqrt(0.32))) < 1e-15

    def test_corollary_form(self):
        # threshold p = 4/5 gives Bessel bound 5/4
        value = bcms_constant(1.25)
        assert abs(value - (0.625 - math.sqrt(0.375))) < 1e-15

    def test_domain(self):
        with pytest.raises(InputError):
            bcms_constant(4 / 3)
        with pytest.raises(InputError):
            bcms_constant(0.99)

    def test_real_and_bounded_on_domain(self):
        for k in range(0, 33):
            c_bessel = 1.0 + k / 100.0
            if c_bessel >= 4 / 3:
                break
            value = bcms_constant(c_bessel)
            assert 0.0 <= value <= c_bessel / 2


class TestComparisonTable:
    def test_blank_and_populated(self):
        rows = comparison_table([F(4, 5), F(3, 4), F(7, 10)])
        assert [r.p for r in rows] == [F(7, 10), F(3, 4), F(4, 5)]
        assert rows[0].bcms is None
        assert rows[1].bcms is None  # boundary excluded: needs p > 3/4 strictly
        assert rows[2].bcms is not None

    def test_populated_value(self):
        report = make_report(F(9, 10))
        assert report.bcms == bcms_constant(float(F(10, 9)))
        assert report.c == riesz_constant(F(9, 10))
        assert report.cap * report.c == 1

    def test_positive_where_two_coloring_is_silent(self):
        for p in (F(27, 40), F(7, 10), F(29, 40), F(3, 4)):
            report = make_report(p)
            assert report.c > 0
            assert report.bcms is None

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            comparison_table([F(1, 2)])
