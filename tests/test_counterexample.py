from fractions import Fraction as F

import pytest

from haar_riesz import (
    CoefficientMap,
    ConsistencyError,
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
from haar_riesz import counterexample, haar
from haar_riesz.cli import run
from haar_riesz.counterexample import MAX_TABLE_N, TWO_THIRDS_SET, _descent
from haar_riesz.haar import halves, restricted_norm_sq


def reference_zigzag(stage):
    """(interval, coefficient) of one stage, descending from the root on its
    own: right half after an even stage, left half after an odd one, and
    coefficient 2^(m−1) on stage 2m > 0."""
    interval = DyadicInterval(0, 0)
    for s in range(1, stage + 1):
        lh, rh = halves(interval)
        interval = rh if s % 2 == 1 else lh
    if stage % 2:
        return interval, None
    return interval, F(1) if stage == 0 else F(2) ** (stage // 2 - 1)


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

    def test_walk_matches_a_descent_per_stage(self):
        states = list(_descent(401))
        assert [s.stage for s in states] == list(range(401))
        for stage in range(401):
            interval, coefficient = reference_zigzag(stage)
            assert states[stage].interval == interval
            assert states[stage].coefficient == coefficient
        for stage in (0, 1, 2, 57, 400):
            assert zigzag(stage) == states[stage]

    def test_coefficients_read_the_walk(self):
        coeffs = zigzag_coefficients(200)
        assert coeffs == CoefficientMap(
            reference_zigzag(2 * k) for k in range(201)
        )
        assert len(zigzag_coefficients(-1).support()) == 0


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

    def test_closed_forms_up_to_the_cap(self):
        rows = counterexample_table(MAX_TABLE_N)
        assert [row.n for row in rows] == list(range(MAX_TABLE_N + 1))
        for row in rows:
            assert row.sum_of_norms == F(2, 3) + F(row.n, 6)
            assert row.norm_of_sum == F(2, 3)
            assert row.ratio == F(4, 4 + row.n)
        for N in (0, 1, 17, 120):
            assert counterexample_table(N) == rows[: N + 1]

    def test_cap_checked_before_the_table(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the table was started")

        monkeypatch.setattr(counterexample, "_descent", reached)
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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_row_has_its_own_closed_form(self, n):
        partial = partial_sum_structure(n)
        counterexample._check_partial_sum(n, partial)
        for other in (n - 1, n + 1):
            with pytest.raises(ConsistencyError):
                counterexample._check_partial_sum(other, partial)

    def test_rows_carry_the_partial_sums(self):
        for row, partial in counterexample._rows(8):
            assert partial == partial_sum_structure(row.n)


class TestCliWork:
    def test_one_walk_per_run(self, capsys, monkeypatch):
        """The CLI halves each stage once: 2N halvings for N rows, where a
        descent per stage and per check grows as N³/3."""
        calls = []

        def counted(interval):
            calls.append(interval)
            return halves(interval)

        monkeypatch.setattr(haar, "halves", counted)
        monkeypatch.setattr(counterexample, "halves", counted)
        assert run(["counterexample", "--n", "40"]) == 0
        assert len(capsys.readouterr().out) > 0
        assert 0 < len(calls) <= 164


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
