import json
import math
import pickle
import random
import tracemalloc
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from haar_riesz import (
    DyadicInterval,
    InputError,
    StepSet,
    density,
    enumerate_family,
    intersect_measure,
)
from haar_riesz.haar import halves, node_interval
from haar_riesz import measure
from haar_riesz.counterexample import TWO_THIRDS_SET, zigzag_coefficients
from haar_riesz.measure import cell_runs, dyadic_counts, heap_sums, measures_below

from conftest import (
    clip_stepset,
    dyadic_intervals,
    prime_shifted_set,
    reference_intersect_measure,
    step_sets,
)


def indicator_of_pairs(pairs, x):
    return any(left <= x < right for left, right in pairs)


class TestNormalize:
    def test_adjacent_merge(self):
        assert StepSet([(0, F(1, 2)), (F(1, 2), 1)]) == StepSet(((0, 1),))

    def test_sort_and_merge(self):
        assert StepSet([(F(1, 4), F(1, 2)), (0, F(1, 4))]) == StepSet(
            ((0, F(1, 2)),)
        )

    def test_overlapping_union(self):
        # oracle: indicator of the raw union sampled on a fine rational grid
        raw = [(F(0), F(1, 3)), (F(1, 4), F(2, 3))]
        result = StepSet(raw)
        for k in range(960):
            x = F(k, 960)
            assert result.contains_point(x) == indicator_of_pairs(raw, x)
        assert result == StepSet(((0, F(2, 3)),))

    @pytest.mark.parametrize(
        "raw",
        [
            [(F(1, 2), F(1, 2))],
            [(F(3, 4), F(1, 4))],
            [(F(-1, 4), F(1, 2))],
            [(F(1, 2), F(5, 4))],
        ],
    )
    def test_malformed_pair_rejected(self, raw):
        with pytest.raises(InputError) as err:
            StepSet(raw)
        # the offending pair is named
        assert str(raw[0][0]) in str(err.value)

    @given(step_sets())
    def test_idempotent(self, region):
        assert StepSet(region.intervals) == region

    @given(step_sets())
    def test_canonical_form(self, region):
        pairs = region.intervals
        assert all(left < right for left, right in pairs)
        # strictly separated: no touching neighbours survive canonicalization
        assert all(pairs[i][1] < pairs[i + 1][0] for i in range(len(pairs) - 1))
        assert 0 <= region.measure <= 1


class TestFromCells:
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_matches_union_of_cells(self, cells):
        m = len(cells)
        expected = StepSet(
            tuple((F(k, m), F(k + 1, m)) for k, present in enumerate(cells) if present)
        )
        assert StepSet.from_cells(cells) == expected

    def test_runs(self):
        assert StepSet.from_cells([False] * 4) == StepSet(())
        assert StepSet.from_cells([True] * 4) == StepSet(((0, 1),))
        assert StepSet.from_cells([True, True, False, True]).intervals == (
            (F(0), F(1, 2)),
            (F(3, 4), F(1)),
        )

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_cell_runs_are_the_intervals_in_integers(self, cells):
        runs = cell_runs(cells)
        m = len(cells)
        assert StepSet.from_cells(cells).intervals == tuple(
            (F(a, m), F(b, m)) for a, b in runs
        )
        assert all(a < b for a, b in runs)
        assert all(b < c for (_, b), (c, _) in zip(runs, runs[1:]))  # maximal
        assert [k for a, b in runs for k in range(a, b)] == [
            k for k, present in enumerate(cells) if present
        ]

    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.tuples(
                *[st.lists(st.booleans(), min_size=1 << r, max_size=1 << r)] * 2
            )
        )
    )
    def test_run_order_is_interval_order(self, pair):
        first, second = pair
        assert (cell_runs(first) < cell_runs(second)) == (
            StepSet.from_cells(first).intervals < StepSet.from_cells(second).intervals
        )

    def test_cell_sets_hold_integer_ticks(self):
        rng = random.Random(3)
        sets = [StepSet.from_cells([rng.random() < 0.5 for _ in range(16)]) for _ in range(8)]
        for region in sets:
            assert type(region.scale) is int and 16 % region.scale == 0
            assert isinstance(region.ticks, array) and region.ticks.typecode == "b"
            assert all(type(tick) is int for tick in region.ticks)
            assert not any(isinstance(getattr(region, name), F) for name in StepSet.__slots__)
            assert region.ends == tuple(F(tick, region.scale) for tick in region.ticks)

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_shared_endpoints_change_no_behaviour(self, cells):
        m = len(cells)
        built = StepSet.from_cells(cells)
        fresh = StepSet(
            tuple((F(k, m), F(k + 1, m)) for k, present in enumerate(cells) if present)
        )
        assert built == fresh and hash(built) == hash(fresh)
        assert pickle.dumps(built) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(built)) == built
        assert built.to_json_dict() == fresh.to_json_dict()
        assert built.complement() == fresh.complement()
        assert built.complement().complement() == built

    def test_kept_sets_hold_no_fractions_of_their_own(self):
        rng = random.Random(8)
        draws = [[rng.random() < 0.55 for _ in range(256)] for _ in range(100)]
        StepSet.from_cells([True, False] * 128)  # the route runs once before tracing
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [StepSet.from_cells(cells) for cells in draws]
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        intervals = sum(len(region.intervals) for region in kept)
        assert intervals > 5000
        assert size / intervals <= 24  # two packed ticks (at most 4 B) and the set's share

    def test_runs_outside_the_unit_interval_are_refused(self):
        with pytest.raises(InputError):
            StepSet.from_runs([(0, 300)], 256)
        with pytest.raises(InputError):
            StepSet.from_runs([(-1, 3)], 256)
        StepSet.from_runs([(0, 256)], 256)

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scale_below_one_is_refused(self, scale):
        with pytest.raises(InputError, match="scale must be >= 1"):
            StepSet.from_runs([(0, 0)], scale)

    def test_fractions_are_not_rewrapped(self):
        # the ends come back as Fractions of the given values
        ((a, b),) = StepSet((("1/3", 1),)).intervals
        assert (type(a), type(b)) == (F, F) and (a, b) == (F(1, 3), F(1))


def integer_runs(region: StepSet, den: int) -> list:
    """The region's intervals as integer pairs at the common denominator."""
    return [(int(left * den), int(right * den)) for left, right in region.intervals]


class TestFlatEnds:
    """A set kept as one flat tuple of ends behaves as the set of its pairs."""

    @given(step_sets(max_intervals=6), st.sampled_from([1, 2, 3]))
    def test_flat_sets_equal_pair_built_sets(self, region, k):
        den = 3 * 5 * 64 * k  # a common multiple of every denominator drawn
        flat = StepSet.from_runs(integer_runs(region, den), den)
        pairs = StepSet(tuple((F(a), F(b)) for a, b in region.intervals))
        assert flat.ends == tuple(end for pair in pairs.intervals for end in pair)
        assert flat == pairs and hash(flat) == hash(pairs)
        assert pickle.loads(pickle.dumps(flat)) == pairs
        assert pickle.dumps(flat) == pickle.dumps(pairs)
        assert flat.to_json_dict() == pairs.to_json_dict()
        assert str(flat) == str(pairs) and repr(flat) == repr(pairs)
        assert flat.complement() == StepSet(
            tuple(
                (left, right)
                for left, right in zip(
                    (F(0),) + tuple(b for _, b in pairs.intervals),
                    tuple(a for a, _ in pairs.intervals) + (F(1),),
                )
                if left < right
            )
        )
        assert flat.complement().complement() == flat

    @given(step_sets(max_intervals=6), st.integers(0, 960))
    def test_readers_of_the_ends(self, region, k):
        x = F(k, 960)
        pairs = region.intervals
        assert region.contains_point(x) == indicator_of_pairs(pairs, x)
        assert region.measure == sum((b - a for a, b in pairs), F(0))
        assert region.measure + region.complement().measure == 1

    def test_immutable(self):
        region = StepSet(((0, F(1, 2)),))
        with pytest.raises(AttributeError):
            region.ends = ()
        with pytest.raises(AttributeError):
            region.other = 1
        assert not hasattr(region, "__dict__")

    @pytest.mark.parametrize(
        "runs,expected",
        [
            ([(0, 2), (2, 4)], [(0, 4)]),  # touching
            ([(0, 3), (2, 5), (6, 7)], [(0, 5), (6, 7)]),  # overlapping
            ([(4, 6), (0, 2)], [(0, 2), (4, 6)]),  # unsorted
            ([(0, 5), (1, 2)], [(0, 5)]),  # nested
        ],
    )
    def test_runs_out_of_order_take_the_canonical_path(self, monkeypatch, runs, expected):
        calls = []
        canonical = measure._canonical_ends

        def counted(raw):
            calls.append(raw)
            return canonical(raw)

        monkeypatch.setattr(measure, "_canonical_ends", counted)
        region = StepSet.from_runs(runs, 8)
        assert len(calls) == 1
        assert region.intervals == tuple((F(a, 8), F(b, 8)) for a, b in expected)
        calls.clear()
        assert StepSet.from_runs(expected, 8) == region
        assert calls == []  # strictly increasing runs are kept as they are

    @pytest.mark.parametrize("runs", [[(2, 2)], [(3, 1)], [(0, 2), (5, 5)]])
    def test_empty_or_reversed_runs_are_rejected(self, runs):
        with pytest.raises(InputError, match="bad interval"):
            StepSet.from_runs(runs, 8)


class TestIntersectMeasure:
    def test_two_thirds_right_half(self):
        region = StepSet(((0, F(2, 3)),))
        assert intersect_measure(region, DyadicInterval(1, 1)) == F(1, 6)

    @pytest.mark.parametrize("level,index", [(0, 0), (2, 3), (5, 17)])
    def test_full_set(self, level, index):
        region = StepSet(((0, 1),))
        assert intersect_measure(region, DyadicInterval(level, index)) == F(
            1, 2**level
        )

    def test_multi_interval_overlap(self):
        # hand oracle: sum of pairwise overlaps with [1/4, 1/2)
        #   [0,1/3) ∩ [1/4,1/2) = [1/4,1/3) of measure 1/12
        #   [1/2,5/8) ∩ [1/4,1/2) = empty
        region = StepSet(((0, F(1, 3)), (F(1, 2), F(5, 8))))
        assert intersect_measure(region, DyadicInterval(2, 1)) == F(1, 12)

    @given(step_sets(), dyadic_intervals())
    def test_halves_additivity(self, region, interval):
        lh, rh = halves(interval)
        assert intersect_measure(region, lh) + intersect_measure(
            region, rh
        ) == intersect_measure(region, interval)

    @given(step_sets(), dyadic_intervals())
    def test_complement_consistency(self, region, interval):
        assert intersect_measure(region, interval) + intersect_measure(
            region.complement(), interval
        ) == interval.measure


@st.composite
def mixed_pairs(draw, max_intervals: int = 5):
    """Disjoint sorted pairs whose ends have denominators 2^k, 3, 5 and
    7·2^k, each end its own, k up to 62."""
    k = draw(st.integers(0, 62))
    denominators = st.sampled_from([1 << k, 3, 5, 7 << k])
    ends = draw(
        st.lists(
            denominators.flatmap(lambda d: st.builds(F, st.integers(0, d), st.just(d))),
            max_size=2 * max_intervals,
            unique=True,
        )
    )
    ends.sort()
    return list(zip(ends[0::2], ends[1::2]))


@st.composite
def intervals_near(draw, region, max_level: int = 60):
    """A dyadic interval of level ≤ max_level, often one holding an end of
    the region, where a clipped length is partial."""
    level = draw(st.integers(0, max_level))
    ends = [end for end in region.ends if end < 1]
    if ends and draw(st.booleans()):
        end = draw(st.sampled_from(ends))
        return DyadicInterval(level, math.floor(end * (1 << level)))
    return DyadicInterval(level, draw(st.integers(0, (1 << level) - 1)))


class TestOneMeasureRoute:
    """intersect_measure, one measures_below call, against a Fraction
    bisection over the ends."""

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_the_fraction_bisection(self, data):
        region = StepSet(data.draw(mixed_pairs()))
        interval = data.draw(intervals_near(region))
        assert intersect_measure(region, interval) == reference_intersect_measure(
            region, interval
        )

    @given(mixed_pairs())
    def test_measure_is_the_sum_of_lengths(self, pairs):
        assert StepSet(pairs).measure == sum((b - a for a, b in pairs), F(0))

    def test_deep_interval_on_an_odd_scale(self):
        region = StepSet(((F(1, 3), F(5, 7)),))
        interval = DyadicInterval(60, (1 << 60) // 3)
        assert intersect_measure(region, interval) == interval.right - F(1, 3)


class TestOneForm:
    """Every route to a set gives one canonical integer form."""

    @given(st.lists(st.booleans(), min_size=1, max_size=40), st.integers(1, 5))
    def test_every_route_gives_one_form(self, cells, k):
        m = len(cells)
        runs = cell_runs(cells)
        first = StepSet(tuple((F(a, m), F(b, m)) for a, b in runs))
        forms = [
            StepSet.from_runs([(k * a, k * b) for a, b in runs], k * m),
            StepSet.from_runs(runs[::-1], m),  # out of order: the general route
            StepSet.from_cells(cells),
            StepSet.from_json_dict(json.loads(json.dumps(first.to_json_dict()))),
            pickle.loads(pickle.dumps(first)),
            first.complement().complement(),
        ]
        for region in forms:
            assert region == first and hash(region) == hash(first)
            assert pickle.dumps(region) == pickle.dumps(first)
            assert (region.scale, tuple(region.ticks)) == (first.scale, tuple(first.ticks))
        assert first.scale == math.lcm(*(end.denominator for end in first.ends))

    def test_no_state_is_kept_between_calls(self):
        StepSet.from_runs([(1, 2)], 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for scale in range(1000, 4000):
                StepSet.from_runs([(1, scale - 1)], scale)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024


def assert_sweep_is_clipped_measure(region, level, positions):
    """measures_below against the measure of region ∩ [0, k/2^level), clipped
    piece by piece; its unit is the values' least common denominator."""
    unit, below = measures_below(region, level, positions)
    exact = [clip_stepset(region, F(0), F(k, 1 << level)).measure for k in positions]
    assert all(type(b) is int for b in below)
    assert [F(b, unit) for b in below] == exact
    assert unit == math.lcm(*(x.denominator for x in exact))


@st.composite
def sweep_positions(draw):
    """A level 0–12 and sorted positions in [0, 2^level], repeats and both
    ends among them."""
    level = draw(st.integers(0, 12))
    top = 1 << level
    positions = draw(
        st.lists(st.one_of(st.just(0), st.just(top), st.integers(0, top)), max_size=16)
    )
    return level, sorted(positions)


class TestMeasuresBelow:
    def test_two_thirds_set(self):
        # the ends, midpoints and right ends of the zig-zag members down to
        # level 26, as level-27 positions: the Gram matrix's sweep
        family = zigzag_coefficients(13).support()
        assert max(i.level for i in family) == 26
        positions = sorted(
            (i.index << (27 - i.level)) + k * (1 << (26 - i.level))
            for i in family
            for k in (0, 1, 2)
        )
        assert_sweep_is_clipped_measure(TWO_THIRDS_SET, 27, positions)
        assert measures_below(TWO_THIRDS_SET, 2, [0, 2, 3, 4]) == (6, [0, 3, 4, 4])

    @given(step_sets(denominators=(3, 5, 7, 15, 21, 64)), sweep_positions())
    def test_matches_clipped_measure(self, region, sweep):
        assert_sweep_is_clipped_measure(region, *sweep)


class TestDyadicCounts:
    def test_heap_sums(self):
        assert heap_sums([1, 2, 3, 4]) == [0, 10, 3, 7, 1, 2, 3, 4]
        assert heap_sums([5]) == [0, 5]
        assert heap_sums([0, 7]) == [0, 7, 0, 7]

    def test_unit_is_the_common_denominator(self):
        # |E ∩ [0, k/4)| for E = [0, 1/3) reads 0, 1/4, 1/3, 1/3, 1/3
        unit, counts = dyadic_counts(StepSet(((0, F(1, 3)),)), 2)
        assert unit == 12
        assert counts == [0, 4, 4, 0, 3, 1, 0, 0]
        assert dyadic_counts(StepSet(((0, 1),)), 1) == (2, [0, 2, 1, 1])
        assert dyadic_counts(StepSet(()), 1) == (1, [0, 0, 0, 0])

    @given(
        st.one_of(st.just(TWO_THIRDS_SET), step_sets(denominators=(3, 5, 7, 15, 21))),
        st.integers(0, 7),
    )
    @settings(max_examples=60)
    def test_every_node_is_its_exact_mass(self, region, deepest):
        unit, counts = dyadic_counts(region, deepest)
        assert len(counts) == 2 << deepest and counts[0] == 0
        assert all(type(c) is int for c in counts)
        for v in range(1, 2 << deepest):
            assert F(counts[v], unit) == intersect_measure(region, node_interval(v))

    def test_two_thirds_set_deep(self):
        unit, counts = dyadic_counts(TWO_THIRDS_SET, 10)
        assert unit == 3 << 10
        for v in range(1, 2 << 10, 37):
            assert F(counts[v], unit) == intersect_measure(TWO_THIRDS_SET, node_interval(v))

    def test_table_past_the_bit_budget_is_refused_before_the_sweep(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the sweep was reached")

        monkeypatch.setattr(measure, "measures_below", reached)
        # 6000 distinct prime denominators: a unit of about 120 000 bits
        with pytest.raises(InputError, match="count table"):
            dyadic_counts(prime_shifted_set(3000), 16)
        # 300 intervals: about 12 000 bits, past the budget only at depth 16
        region = prime_shifted_set(300)
        with pytest.raises(InputError, match="count table"):
            dyadic_counts(region, 16)
        with pytest.raises(AssertionError):
            dyadic_counts(region, 14)

    def test_table_within_the_bit_budget_still_runs(self):
        region = prime_shifted_set(300)
        family = enumerate_family(14, region, F(1, 2))
        assert len(family) == 16380


class TestTickBudget:
    def test_ticks_past_the_bit_budget_are_refused(self, monkeypatch):
        # 600 ends over a common denominator of about 12 000 bits
        region = prime_shifted_set(300)
        budget = len(region.ticks) * region.scale.bit_length()
        monkeypatch.setattr(measure, "MAX_TABLE_BITS", budget - 1)
        with pytest.raises(InputError, match="budget"):
            prime_shifted_set(300)
        monkeypatch.setattr(measure, "MAX_TABLE_BITS", budget)
        assert prime_shifted_set(300) == region


class TestSweepCallSites:
    def test_measures_below_has_four_callers(self):
        """One table sweep, a family's sparse sweep at its members' own
        points (for its Gram matrix and its pivot pass alike), the
        single-cell check and the measure on one dyadic interval: no other
        route sweeps a set."""
        import ast
        from pathlib import Path

        class Callers(ast.NodeVisitor):
            def __init__(self):
                self.stack = ["<module>"]
                self.found = []

            def visit_FunctionDef(self, node):
                self.stack.append(node.name)
                self.generic_visit(node)
                self.stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "measures_below":
                    self.found.append(self.stack[-1])
                self.generic_visit(node)

        callers = Callers()
        for path in sorted(Path(measure.__file__).parent.glob("*.py")):
            callers.visit(ast.parse(path.read_text()))
        assert sorted(callers.found) == [
            "_member_measures",
            "dyadic_counts",
            "intersect_measure",
            "per_interval_check",
        ]


class TestDensity:
    def test_paper_values(self):
        region = StepSet(((0, F(2, 3)),))
        assert density(region, DyadicInterval(1, 1)) == F(1, 3)
        assert density(region, DyadicInterval(0, 0)) == F(2, 3)

    def test_empty_set(self):
        region = StepSet(())
        assert density(region, DyadicInterval(3, 5)) == 0

    @given(step_sets(), dyadic_intervals())
    def test_range(self, region, interval):
        assert 0 <= density(region, interval) <= 1


class TestDyadicInterval:
    def test_endpoints(self):
        interval = DyadicInterval(2, 3)
        assert (interval.left, interval.right) == (F(3, 4), F(1))
        assert interval.measure == F(1, 4)

    def test_validation(self):
        with pytest.raises(InputError):
            DyadicInterval(-1, 0)
        with pytest.raises(InputError):
            DyadicInterval(2, 4)
        with pytest.raises(InputError):
            DyadicInterval(2, -1)
        assert DyadicInterval(2, 3).index == 3

    def test_deep_level_allocates_nothing(self):
        # the index check is a shift of the index, never 1 << level; at level
        # 10^9 that would be 125 MB, enough to show and small enough to survive
        tracemalloc.start()
        try:
            deep = DyadicInterval(10**9, 5)
            with pytest.raises(InputError, match="2\\^1000000000\\)"):
                DyadicInterval(10**9, -1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert deep.index == 5
        assert peak < 64 * 1024

    def test_containment(self):
        assert DyadicInterval(0, 0).contains(DyadicInterval(3, 5))
        assert DyadicInterval(1, 1).contains(DyadicInterval(1, 1))
        assert not DyadicInterval(1, 0).contains(DyadicInterval(2, 2))
        assert not DyadicInterval(2, 2).contains(DyadicInterval(1, 1))

    def test_ordering(self):
        assert DyadicInterval(1, 1) < DyadicInterval(2, 0)
        assert sorted([DyadicInterval(2, 1), DyadicInterval(1, 0)])[0].level == 1

    def test_slotted_value_semantics(self):
        import copy
        import dataclasses
        import pickle

        interval = DyadicInterval(3, 5)
        assert not hasattr(interval, "__dict__")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(interval, protocol))
            assert clone == interval and hash(clone) == hash(interval)
        assert copy.deepcopy(interval) == interval
        assert copy.copy(interval) == interval
        assert dataclasses.replace(interval, index=4) == DyadicInterval(3, 4)
        with pytest.raises(InputError):  # replace still validates
            dataclasses.replace(interval, index=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            interval.level = 2
        assert hash(interval) == hash((3, 5))
        assert {DyadicInterval(3, 5): 1}[interval] == 1
        assert DyadicInterval(3, 4) < interval < DyadicInterval(4, 0)
        assert (interval >= DyadicInterval(3, 5)) and not (interval > interval)


class TestJson:
    def test_round_trip(self):
        region = StepSet(((F(1, 3), F(1, 2)), (F(3, 4), 1)))
        assert StepSet.from_json_dict(region.to_json_dict()) == region

    def test_unreduced_and_shorthand(self):
        data = {"intervals": [["0", "4/8"], ["6/8", "1"]]}
        assert StepSet.from_json_dict(data) == StepSet(
            ((0, F(1, 2)), (F(3, 4), 1))
        )

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            StepSet.from_json_dict({"nope": []})

    @pytest.mark.parametrize(
        "intervals",
        [[["0", "1/2", "junk"]], [["0"]], [[]], ["01"], [{"0": "1"}], 5, {"0": "1"}],
    )
    def test_each_interval_is_a_list_of_two_ends(self, intervals):
        with pytest.raises(InputError, match="step set JSON must be"):
            StepSet.from_json_dict({"intervals": intervals})
