from fractions import Fraction as F

import pytest

from haar_riesz import (
    DyadicInterval,
    InputError,
    PiecewiseConstant,
    check_zigzag_densities,
    counterexample_table,
    density,
    enumerate_family,
    partial_sum_structure,
    zigzag,
    zigzag_coefficients,
)
from haar_riesz import counterexample
from haar_riesz.counterexample import MAX_TABLE_N, TWO_THIRDS_SET
from haar_riesz.haar import halves, restricted_norm_sq


class TestZigzag:
    def test_stage_zero(self):
        state = zigzag(0)
        assert state.interval == DyadicInterval(0, 0)
        assert state.coefficient == 1

    def test_stage_one(self):
        assert zigzag(1).interval == DyadicInterval(1, 1)  # [1/2, 1)
        assert zigzag(1).coefficient is None

    def test_stage_two(self):
        state = zigzag(2)
        assert state.interval == DyadicInterval(2, 2)  # [1/2, 3/4)
        assert state.coefficient == 1  # 2^0

    def test_alternation_rule(self):
        for stage in range(1, 12):
            parent = zigzag(stage - 1).interval
            lh, rh = halves(parent)
            expected = rh if stage % 2 == 1 else lh
            assert zigzag(stage).interval == expected

    def test_coefficient_doubling(self):
        assert [zigzag(2 * m).coefficient for m in range(6)] == [
            1, 1, 2, 4, 8, 16,
        ]

    def test_negative_stage(self):
        with pytest.raises(InputError):
            zigzag(-1)


class TestDensities:
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_pattern(self, n):
        assert check_zigzag_densities(n)

    def test_exact_values_at_start(self):
        assert density(TWO_THIRDS_SET, zigzag(0).interval) == F(2, 3)
        assert density(TWO_THIRDS_SET, zigzag(1).interval) == F(1, 3)

    def test_interval_lengths(self):
        for stage in range(10):
            assert zigzag(stage).interval.measure == F(1, 2**stage)


class TestTable:
    def test_first_rows(self):
        rows = counterexample_table(1)
        assert rows[0] == (0, F(2, 3), F(2, 3), F(1))
        assert rows[1] == (1, F(5, 6), F(2, 3), F(4, 5))

    def test_closed_forms_up_to_twelve(self):
        for row in counterexample_table(12):
            assert row.sum_of_norms == F(2, 3) + F(row.n, 6)
            assert row.norm_of_sum == F(2, 3)
            assert row.ratio == F(4, 4 + row.n)
        assert counterexample_table(12)[-1].ratio == F(1, 4)

    def test_ratio_strictly_decreasing(self):
        rows = counterexample_table(8)
        ratios = [row.ratio for row in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_cap_checked_before_the_table(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the table was started")

        monkeypatch.setattr(counterexample, "zigzag", reached)
        for n in (MAX_TABLE_N + 1, 10**9):
            with pytest.raises(InputError):
                counterexample_table(n)
        with pytest.raises(AssertionError):  # the cap itself is accepted
            counterexample_table(MAX_TABLE_N)


class TestPartialSumStructure:
    def test_stage_zero(self):
        f = partial_sum_structure(0)
        assert f == PiecewiseConstant.from_segments(
            [(0, F(1, 2), -1), (F(1, 2), F(2, 3), 1)]
        )

    def test_stage_one(self):
        f = partial_sum_structure(1)
        assert f == PiecewiseConstant.from_segments(
            [(0, F(1, 2), -1), (F(5, 8), F(2, 3), 2)]
        )

    @pytest.mark.parametrize("n", range(6))
    def test_positive_support_measure(self, n):
        f = partial_sum_structure(n)
        positive = sum(
            f.breakpoints[i + 1] - f.breakpoints[i]
            for i, v in enumerate(f.values)
            if v > 0
        )
        assert positive == F(1, 3) * F(1, 2 ** (2 * n + 1))


class TestAdmissibilityBoundary:
    def test_even_stages_admissible_exactly_up_to_two_thirds(self):
        family = zigzag_coefficients(3).support()
        for interval in family:
            q = density(TWO_THIRDS_SET, interval)
            assert q == F(2, 3)
        # weak inequality: admissible at p = 2/3, excluded for any p > 2/3
        deep = enumerate_family(6, TWO_THIRDS_SET, F(2, 3))
        assert all(i in deep for i in family)
        above = enumerate_family(6, TWO_THIRDS_SET, F(2, 3) + F(1, 1000))
        assert all(i not in above for i in family)

    def test_norm_matches_density_lemma(self):
        for n in range(5):
            interval = zigzag(2 * n).interval
            assert restricted_norm_sq(interval, TWO_THIRDS_SET) == F(2, 3) * F(
                1, 4**n
            )
