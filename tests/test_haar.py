import gc
import json
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from haar_riesz import (
    CoefficientMap,
    DyadicInterval,
    InputError,
    PiecewiseConstant,
    StepSet,
    build_gram,
    combination,
    density,
    enumerate_family,
    haar_function,
    halves,
    indicator,
    norm_sq,
    restricted_norm_sq,
)

from conftest import (
    clip_stepset,
    coefficient_maps,
    dyadic_intervals,
    inner_product,
    reference_combination,
    step_sets,
)
from haar_riesz import haar
from haar_riesz.counterexample import zigzag_coefficients
from haar_riesz.counterexample import MAX_TABLE_N
from haar_riesz.haar import MAX_DEPTH, MAX_JSON_LEVEL, meets_density

TWO_THIRDS = StepSet(((0, F(2, 3)),))
FULL = StepSet(((0, 1),))


def pair_entry(first, second, region):
    """∫ h_I h_J 1_E by the package's route: the off-diagonal entry of the
    two-member Gram matrix, which is |I ∩ E| when I = J."""
    return build_gram([first, second], region).entries[1][0]


class TestPiecewiseConstant:
    def test_canonical_merge(self):
        f = PiecewiseConstant((0, F(1, 2), 1), (1, 1))
        assert f == PiecewiseConstant.constant(1)

    def test_validation(self):
        with pytest.raises(InputError):
            PiecewiseConstant((0, F(1, 2)), (1,))  # missing endpoint 1
        with pytest.raises(InputError):
            PiecewiseConstant((0, F(1, 2), F(1, 2), 1), (1, 2, 3))

    def test_algebra(self):
        f = PiecewiseConstant.from_segments([(0, F(1, 2), 2)])
        g = PiecewiseConstant.from_segments([(F(1, 4), F(3, 4), 3)])
        assert (f + g).value_at(F(3, 8)) == 5
        assert (f * g).value_at(F(3, 8)) == 6
        assert (f * g).value_at(F(7, 8)) == 0
        assert (2 * f).value_at(0) == 4
        assert (f - f) == PiecewiseConstant.zero()

    def test_integral(self):
        f = PiecewiseConstant.from_segments([(0, F(1, 3), 3), (F(1, 2), 1, -2)])
        assert f.integral() == 1 - 1

    @given(step_sets())
    def test_indicator_integral_is_measure(self, region):
        assert indicator(region).integral() == region.measure


class TestHaarFunction:
    def test_root(self):
        h = haar_function(DyadicInterval(0, 0))
        assert h == PiecewiseConstant(
            (0, F(1, 2), 1), (F(-1), F(1))
        )

    def test_right_half(self):
        h = haar_function(DyadicInterval(1, 1))
        assert h.value_at(F(5, 8)) == -1
        assert h.value_at(F(7, 8)) == 1
        assert h.value_at(F(1, 4)) == 0

    @given(dyadic_intervals())
    def test_mean_zero(self, interval):
        assert haar_function(interval).integral() == 0


class TestHalves:
    def test_examples(self):
        assert halves(DyadicInterval(0, 0)) == (
            DyadicInterval(1, 0),
            DyadicInterval(1, 1),
        )
        assert halves(DyadicInterval(1, 1)) == (
            DyadicInterval(2, 2),
            DyadicInterval(2, 3),
        )

    @given(dyadic_intervals())
    def test_level_additivity(self, interval):
        lh, rh = halves(interval)
        assert lh.level == rh.level == interval.level + 1
        assert lh.right == rh.left


class TestRestrictedNorm:
    def test_two_thirds_root(self):
        assert restricted_norm_sq(DyadicInterval(0, 0), TWO_THIRDS) == F(2, 3)

    @given(dyadic_intervals())
    def test_full_set(self, interval):
        assert restricted_norm_sq(interval, FULL) == interval.measure

    def test_zigzag_scaling(self):
        # stage-2 interval [1/2, 3/4) with coefficient 2^0: a²·‖h·1_E‖² = (2/3)·4⁻¹·2⁰ = 1/6
        interval = DyadicInterval(2, 2)
        assert 1 * restricted_norm_sq(interval, TWO_THIRDS) == F(1, 6)


class TestInnerProduct:
    @given(dyadic_intervals(), dyadic_intervals())
    def test_orthogonality_on_full_set(self, first, second):
        expected = restricted_norm_sq(first, FULL) if first == second else 0
        assert pair_entry(first, second, FULL) == expected

    def test_nested_value(self):
        # oracle: direct piecewise product integration
        first, second = DyadicInterval(0, 0), DyadicInterval(1, 1)
        oracle = (
            haar_function(first) * haar_function(second) * indicator(TWO_THIRDS)
        ).integral()
        assert oracle == F(-1, 6)
        assert pair_entry(first, second, TWO_THIRDS) == F(-1, 6)

    @given(dyadic_intervals(), dyadic_intervals(), step_sets())
    @settings(max_examples=60)
    def test_matches_product_integration(self, first, second, region):
        oracle = (
            haar_function(first) * haar_function(second) * indicator(region)
        ).integral()
        assert pair_entry(first, second, region) == oracle

    @given(dyadic_intervals(), step_sets())
    def test_diagonal(self, interval, region):
        assert pair_entry(interval, interval, region) == restricted_norm_sq(
            interval, region
        )

    @given(dyadic_intervals(), dyadic_intervals(), step_sets())
    def test_symmetric(self, first, second, region):
        assert pair_entry(first, second, region) == pair_entry(
            second, first, region
        )

    @given(dyadic_intervals(), dyadic_intervals(), step_sets())
    def test_disjoint_vanishes(self, first, second, region):
        if not (first.contains(second) or second.contains(first)):
            assert pair_entry(first, second, region) == 0

    @given(dyadic_intervals(), dyadic_intervals(), step_sets(), st.fractions(min_value=0, max_value=1, max_denominator=16))
    @settings(max_examples=40)
    def test_additive_under_region_split(self, first, second, region, cut):
        left = clip_stepset(region, F(0), cut)
        right = clip_stepset(region, cut, F(1))
        assert pair_entry(first, second, region) == pair_entry(
            first, second, left
        ) + pair_entry(first, second, right)


class TestCombination:
    def test_empty(self):
        assert combination(CoefficientMap(), TWO_THIRDS) == PiecewiseConstant.zero()

    def test_zigzag_stage_one(self):
        # Σ = h_[0,1) + h_[1/2,3/4) restricted to [0,2/3):
        # -1 on [0,1/2), then +1-1=0 on [1/2,5/8), +1+1=2 on [5/8,2/3), 0 past 2/3
        coeffs = CoefficientMap(
            {DyadicInterval(0, 0): F(1), DyadicInterval(2, 2): F(1)}
        )
        f = combination(coeffs, TWO_THIRDS)
        expected = PiecewiseConstant.from_segments(
            [(0, F(1, 2), -1), (F(5, 8), F(2, 3), 2)]
        )
        assert f == expected

    @given(coefficient_maps(), step_sets())
    @settings(max_examples=40)
    def test_double_count_identity(self, coeffs, region):
        direct = norm_sq(combination(coeffs, region))
        double = sum(
            a * b * inner_product(i, j, region)
            for i, a in coeffs.items()
            for j, b in coeffs.items()
        )
        assert direct == double

    @given(coefficient_maps(max_level=6, max_terms=10), step_sets())
    @settings(max_examples=150)
    def test_matches_term_by_term_sum(self, coeffs, region):
        assert combination(coeffs, region) == reference_combination(coeffs, region)

    def test_zigzag_matches_term_by_term_sum(self):
        # deep, nested supports: the zig-zag family reaches level 24 at n = 12
        for n in (0, 1, 5, 12):
            coeffs = zigzag_coefficients(n)
            assert combination(coeffs, TWO_THIRDS) == reference_combination(
                coeffs, TWO_THIRDS
            )

    @given(
        coefficient_maps(),
        coefficient_maps(),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        step_sets(),
    )
    @settings(max_examples=80)
    def test_linear_in_coefficients(self, first, second, alpha, beta, region):
        mixed = {}
        for interval, a in first.items():
            mixed[interval] = mixed.get(interval, 0) + alpha * a
        for interval, b in second.items():
            mixed[interval] = mixed.get(interval, 0) + beta * b
        assert combination(CoefficientMap(mixed), region) == (
            combination(first, region) * alpha + combination(second, region) * beta
        )

    @given(coefficient_maps())
    @settings(max_examples=40)
    def test_parseval_on_full_set(self, coeffs):
        assert norm_sq(combination(coeffs, FULL)) == sum(
            a * a * F(1, 2**i.level) for i, a in coeffs.items()
        )


class TestNormSq:
    def test_zero(self):
        assert norm_sq(PiecewiseConstant.zero()) == 0

    def test_root_haar(self):
        assert norm_sq(haar_function(DyadicInterval(0, 0))) == 1


class TestEnumerateFamily:
    def test_full_set_everything(self):
        family = enumerate_family(2, FULL, F(1))
        assert len(family) == 7
        assert family[0] == DyadicInterval(0, 0)

    def test_threshold_boundary(self):
        assert enumerate_family(0, TWO_THIRDS, F(2, 3)) == [DyadicInterval(0, 0)]

    def test_density_rule_in_integers(self):
        # a level-2 interval (measure 1/4) meeting E in 3/16: density 3/4
        assert meets_density(3, 16, 2, F(3, 4))
        assert not meets_density(2, 16, 2, F(3, 4))
        assert not meets_density(3, 16, 2, F(3, 4) + F(1, 10**9))
        assert meets_density(0, 1, 5, F(1, 10**9)) is False
        assert meets_density(1, 1, 0, F(1))

    def test_strict_shortfall_excluded(self):
        # densities at depth 1: q([0,1)) = 2/3, q([0,1/2)) = 1, q([1/2,1)) = 1/3
        assert density(TWO_THIRDS, DyadicInterval(0, 0)) == F(2, 3)
        assert density(TWO_THIRDS, DyadicInterval(1, 0)) == F(1)
        assert density(TWO_THIRDS, DyadicInterval(1, 1)) == F(1, 3)
        assert enumerate_family(1, TWO_THIRDS, F(7, 10)) == [DyadicInterval(1, 0)]

    def test_ordering_and_validation(self):
        family = enumerate_family(3, TWO_THIRDS, F(3, 4))
        assert family == sorted(family)
        with pytest.raises(InputError):
            enumerate_family(-1, FULL, F(1, 2))
        with pytest.raises(InputError):
            enumerate_family(2, FULL, F(0))

    def test_depth_cap_checked_before_the_sweep(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the sweep over 2^depth points was reached")

        monkeypatch.setattr(haar, "dyadic_counts", reached)
        for depth in (MAX_DEPTH + 1, 10**9):
            with pytest.raises(InputError):
                enumerate_family(depth, FULL, F(1, 2))
        with pytest.raises(AssertionError):  # the cap itself is accepted
            enumerate_family(MAX_DEPTH, FULL, F(1, 2))

    @given(
        step_sets(),
        st.integers(0, 6),
        st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(43, 64), F(3, 4), F(9, 10), F(1)]),
    )
    @settings(max_examples=60)
    def test_matches_density_loop(self, region, depth, p):
        # reference: one exact density per interval, as the definition reads
        expected = [
            DyadicInterval(level, index)
            for level in range(depth + 1)
            for index in range(1 << level)
            if density(region, DyadicInterval(level, index)) >= p
        ]
        assert enumerate_family(depth, region, p) == expected


class TestCoefficientMap:
    def test_drops_zeros(self):
        coeffs = CoefficientMap({DyadicInterval(0, 0): F(0), DyadicInterval(1, 1): F(2)})
        assert len(coeffs) == 1
        assert coeffs[DyadicInterval(0, 0)] == 0

    def test_restrict_and_levels(self):
        coeffs = CoefficientMap(
            {DyadicInterval(0, 0): 1, DyadicInterval(3, 2): F(1, 2)}
        )
        assert coeffs.max_level() == 3
        assert coeffs.restrict(2).support() == [DyadicInterval(0, 0)]

    def test_json_round_trip(self):
        coeffs = CoefficientMap(
            {DyadicInterval(0, 0): F(1), DyadicInterval(2, 3): F(-7, 3)}
        )
        assert CoefficientMap.from_json_dict(coeffs.to_json_dict()) == coeffs

    def test_duplicate_keys_last_value_wins(self):
        interval = DyadicInterval(2, 1)
        other = DyadicInterval(1, 0)
        assert CoefficientMap([(interval, 1), (interval, 2)])[interval] == 2
        assert CoefficientMap([(interval, 1), (interval, 0)]) == CoefficientMap()
        assert CoefficientMap([(interval, 0), (interval, F(3, 4))])[interval] == F(3, 4)
        kept = CoefficientMap([(interval, 1), (other, 5), (interval, 0), (other, -1)])
        assert kept.items() == [(other, F(-1))]

    def test_json_level_cap(self):
        # every zig-zag map a counterexample table builds round-trips
        assert MAX_JSON_LEVEL >= 2 * MAX_TABLE_N
        deepest = zigzag_coefficients(MAX_TABLE_N)
        assert deepest.max_level() == 2 * MAX_TABLE_N
        assert CoefficientMap.from_json_dict(deepest.to_json_dict()) == deepest
        at_cap = {"coeffs": [{"level": MAX_JSON_LEVEL, "index": 3, "a": "1/2"}]}
        assert CoefficientMap.from_json_dict(at_cap).max_level() == MAX_JSON_LEVEL
        for level in (MAX_JSON_LEVEL + 1, 10**9):
            data = {"coeffs": [{"level": 0, "index": 0, "a": "1"}]}
            data["coeffs"].append({"level": level, "index": 0, "a": "1"})
            with pytest.raises(InputError, match=f"coefficient level must be <= {MAX_JSON_LEVEL}"):
                CoefficientMap.from_json_dict(data)

    def test_json_level_cap_allocates_nothing(self):
        # a map keyed by 1 << level would take 125 MB at level 10^9
        data = json.dumps({"coeffs": [{"level": 10**9, "index": 0, "a": "1"}]})
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                CoefficientMap.from_json_dict(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_level_cap_holds_for_maps_built_in_python(self):
        # the constructor refuses the level before it builds 1 << level,
        # which at level 10^8 alone takes 12.5 MB
        deep = DyadicInterval(10**8, 0)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"coefficient level must be <= {MAX_JSON_LEVEL}, got {10**8}"):
                CoefficientMap({DyadicInterval(0, 0): F(1), deep: F(1)})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        at_cap = CoefficientMap({DyadicInterval(MAX_JSON_LEVEL, 5): F(1, 3)})
        assert at_cap.max_level() == MAX_JSON_LEVEL
        assert zigzag_coefficients(MAX_TABLE_N).max_level() == 2 * MAX_TABLE_N

    @pytest.mark.parametrize(
        "level,index", [(1.9, 0), (1, 0.7), (1.0, 0), (True, 0), (1, False), ("1", 0), (None, 0)]
    )
    def test_json_level_and_index_are_integers(self, level, index):
        # int() would truncate 1.9 to 1 and read true as 1
        data = {"coeffs": [{"level": level, "index": index, "a": "1"}]}
        with pytest.raises(InputError, match="coefficient JSON must be"):
            CoefficientMap.from_json_dict(json.dumps(data))

    def test_duplicate_keys_in_json(self):
        entries = [
            {"level": 2, "index": 1, "a": "1/1"},
            {"level": 0, "index": 0, "a": "2/1"},
            {"level": 2, "index": 1, "a": "0/1"},
            {"level": 0, "index": 0, "a": "-5/3"},
        ]
        coeffs = CoefficientMap.from_json_dict(json.dumps({"coeffs": entries}))
        assert coeffs.items() == [(DyadicInterval(0, 0), F(-5, 3))]
        assert len(coeffs) == 1

    @given(
        st.lists(
            st.tuples(
                dyadic_intervals(max_level=5),
                st.fractions(min_value=-3, max_value=3, max_denominator=5),
            ),
            max_size=12,
        ),
        st.integers(-2, 6),
    )
    @settings(max_examples=100)
    def test_matches_a_dict_model(self, entries, level):
        model = {}
        for interval, value in entries:
            model[interval] = value
        model = {i: a for i, a in model.items() if a}
        coeffs = CoefficientMap(entries)
        assert coeffs.items() == sorted(model.items())
        assert coeffs.support() == sorted(model) == list(coeffs)
        assert len(coeffs) == len(model) and bool(coeffs) == bool(model)
        assert coeffs == CoefficientMap(sorted(model.items(), reverse=True))
        assert coeffs.max_level() == max((i.level for i in model), default=-1)
        for interval, _ in entries + [(DyadicInterval(0, 0), 0), (DyadicInterval(6, 63), 0)]:
            assert coeffs[interval] == model.get(interval, 0)
        restricted = coeffs.restrict(level)
        assert restricted.items() == sorted((i, a) for i, a in model.items() if i.level <= level)
        assert restricted == CoefficientMap({i: a for i, a in model.items() if i.level <= level})
        assert CoefficientMap.from_json_dict(coeffs.to_json_dict()) == coeffs
        assert list(coeffs.nodes) == sorted((1 << i.level) + i.index for i in model)

    def test_holds_no_fractions(self):
        """No Fraction or DyadicInterval, neither its own nor its caller's:
        three small ints per entry in narrow arrays, at most 16 bytes per
        entry retained (a dict of Fractions kept 160, tuples of ints 62)."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entries = [
                (DyadicInterval(level, k), F(k % 7 - 3 or 1, 1 + k % 2))
                for level in (8, 9)
                for k in range(1 << level)
            ]
            coeffs = CoefficientMap(entries)
            del entries
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(coeffs) == 512 + 256
        assert coeffs.nodes.typecode == "h" and coeffs.numerators.typecode == "b"
        assert size / len(coeffs) <= 16

    def test_sequences_pack_by_value(self):
        # each sequence takes the narrowest signed type that holds it, and a
        # tuple past 64 bits; equal maps pack alike, restricted ones too
        wide = {DyadicInterval(0, 0): F(2**70, 3), DyadicInterval(4, 3): F(-1, 2)}
        coeffs = CoefficientMap(wide)
        assert coeffs.numerators == (2**70, -1)
        assert coeffs.denominators.typecode == "b"
        assert coeffs.nodes.typecode == "b"
        narrow = CoefficientMap({DyadicInterval(4, 3): F(-1, 2)})
        assert coeffs != narrow
        assert coeffs.restrict(4) == coeffs and coeffs.restrict(3) != narrow
        assert CoefficientMap(wide).restrict(-1) == CoefficientMap()
        assert CoefficientMap({DyadicInterval(9, 0): F(300, 2**40 + 1)}).denominators.typecode == "q"
        assert CoefficientMap({DyadicInterval(9, 0): 1}).nodes.typecode == "h"
        deep_wide = CoefficientMap({DyadicInterval(0, 0): F(-1, 2), DyadicInterval(4, 3): F(2**70)})
        assert deep_wide.restrict(3).numerators.typecode == "b"
        assert deep_wide.restrict(3) == CoefficientMap({DyadicInterval(0, 0): F(-1, 2)})
