import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from haar_riesz import (
    ConsistencyError,
    DyadicInterval,
    GramMatrix,
    InputError,
    SearchConfig,
    StepSet,
    build_gram,
    certified_lower_bound,
    density,
    derive_seed,
    enumerate_family,
    pencil_extremes,
    psd_certificate,
    random_stepset,
    riesz_constant,
    search_extremal,
    splitmix64,
    verify_riesz,
)
from haar_riesz import gram as gram_module
from haar_riesz.cli import run
from haar_riesz import haar as haar_module
from haar_riesz import search
from haar_riesz.counterexample import TWO_THIRDS_SET
from haar_riesz.gram import _chain_store
from haar_riesz.haar import MAX_DEPTH, halves
from haar_riesz.search import MAX_RESOLUTION, _CountTree, _draw_cells

from conftest import (
    bessel_certificate,
    gram_from_entries,
    matrix_components,
    reference_certified_lower_bound,
    reference_pencil_extremes,
    solved_blocks,
    step_sets,
)

FULL = StepSet(((0, 1),))


class TestSplitMix64:
    def test_reference_vector(self):
        # published outputs of splitmix64 from state 0
        state, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF
        state, out = splitmix64(state)
        assert out == 0x6E789E6AA1B965F4

    def test_wraps_mod_2_64(self):
        state, _ = splitmix64((1 << 64) - 1)
        assert 0 <= state < (1 << 64)

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100


class TestRandomStepSet:
    def test_deterministic(self):
        a = random_stepset(8, 0.6, 12345)
        b = random_stepset(8, 0.6, 12345)
        assert a == b

    def test_golden_pattern(self):
        # pinned on first generation; regression guard for the PRNG pipeline
        assert random_stepset(3, 0.7, 42) == StepSet(
            ((F(1, 8), F(5, 8)), (F(3, 4), F(7, 8)))
        )

    def test_bias_one_gives_full_set(self):
        for seed in (0, 1, 99):
            assert random_stepset(4, 1.0, seed) == FULL

    def test_validation(self):
        with pytest.raises(InputError):
            random_stepset(0, 0.5, 1)
        with pytest.raises(InputError):
            random_stepset(3, 0.0, 1)
        with pytest.raises(InputError):
            random_stepset(3, 1.5, 1)

    def test_resolution_cap_checked_before_drawing(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the cell generator was reached")

        monkeypatch.setattr(search, "SplitMix64", reached)
        for resolution in (MAX_RESOLUTION + 1, 10**9):
            with pytest.raises(InputError):
                random_stepset(resolution, 0.5, 1)
        with pytest.raises(AssertionError):  # the cap itself is accepted
            random_stepset(MAX_RESOLUTION, 0.5, 1)

    def test_cells_align_to_resolution(self):
        region = random_stepset(4, 0.5, 77)
        for left, right in region.intervals:
            assert (left * 16).denominator == 1
            assert (right * 16).denominator == 1


class TestMinRatio:
    def test_full_set_orthogonal(self):
        ratio, _, size = pencil_extremes(FULL, F(1, 2), 3)
        assert ratio == 1.0
        assert size == 15

    def test_empty_family_convention(self):
        ratio, _, size = pencil_extremes(StepSet(()), F(1, 2), 3)
        assert (ratio, size) == (1.0, 0)

    def test_zigzag_forces_low_ratio(self):
        # the zig-zag coefficient vector pins the Rayleigh quotient at 4/(4+n);
        # depth 6 contains stages up to n = 3
        ratio, _, _ = pencil_extremes(TWO_THIRDS_SET, F(2, 3), 6)
        assert ratio <= 4 / 7 + 1e-8

    def test_theorem_floor(self):
        p = F(43, 64)
        floor = float(riesz_constant(p)) - 1e-8
        for i in range(10):
            region = random_stepset(6, 0.7, derive_seed(0xF100E, i))
            ratio, _, _ = pencil_extremes(region, p, 4)
            assert ratio >= floor


class TestCertifiedLowerBound:
    def test_bracketing(self):
        region = random_stepset(6, 0.75, 2024)
        p = F(43, 64)
        low = certified_lower_bound(region, p, 4)
        family = enumerate_family(4, region, p)
        gram = build_gram(family, region)
        width = F(1, 1 << 20)
        assert psd_certificate(gram, low, gram.diagonal)
        assert not psd_certificate(gram, low + width, gram.diagonal)

    def test_respects_float_ratio(self):
        region = random_stepset(6, 0.8, 555)
        p = F(3, 4)
        low = certified_lower_bound(region, p, 4)
        ratio, _, _ = pencil_extremes(region, p, 4)
        assert float(low) <= ratio + 1e-8

    def test_empty_family(self):
        assert certified_lower_bound(StepSet(()), F(1, 2), 3) == 1

    @pytest.mark.parametrize("width", [F(0), F(-1, 1 << 20), -1, 0.0])
    def test_width_must_be_positive(self, monkeypatch, width):
        def unreachable(*args):
            raise AssertionError("work done before the width was checked")

        monkeypatch.setattr(search, "dyadic_counts", unreachable)
        monkeypatch.setattr(search, "_pivot_psd", unreachable)
        with pytest.raises(InputError, match="width"):
            certified_lower_bound(FULL, F(1, 2), 3, width)

    @pytest.mark.parametrize("width", [F(1, 3), F(1, 1000), F(2), F(5), 0.01])
    def test_any_width_bisects_as_before(self, width):
        region = random_stepset(6, 0.75, 2024)
        p = F(43, 64)
        assert certified_lower_bound(
            region, p, 4, width
        ) == reference_certified_lower_bound(region, p, 4, width)


TABLE_PS = [F(1, 2), F(2, 3), F(43, 64), F(3, 4)]


def assert_table_routes_match(region, p, depth):
    """pencil_extremes and certified_lower_bound, read off the set's count
    table, equal the Fraction routes kept as references, bit for bit."""
    low, high, size = pencil_extremes(region, p, depth)
    ref_low, ref_high, ref_size = reference_pencil_extremes(region, p, depth)
    assert (low.hex(), high.hex(), size) == (ref_low.hex(), ref_high.hex(), ref_size)
    assert certified_lower_bound(region, p, depth) == reference_certified_lower_bound(
        region, p, depth
    )


class TestTableRoutes:
    """The count table of any step set gives the Fraction routes' values."""

    @given(
        step_sets(denominators=(3, 5, 7, 9, 15, 21, 64)),
        st.sampled_from(TABLE_PS),
        st.integers(0, 6),
    )
    @settings(max_examples=120)
    def test_non_dyadic_sets(self, region, p, depth):
        assert_table_routes_match(region, p, depth)

    @pytest.mark.parametrize("depth", [4, 8])
    @pytest.mark.parametrize("p", [F(2, 3), F(43, 64)])
    def test_two_thirds_set(self, depth, p):
        assert_table_routes_match(TWO_THIRDS_SET, p, depth)

    def test_table_reaches_one_level_past_the_family(self, monkeypatch):
        depths = []
        sweep = search.dyadic_counts

        def recorded(region, deepest):
            depths.append(deepest)
            return sweep(region, deepest)

        monkeypatch.setattr(search, "dyadic_counts", recorded)
        pencil_extremes(TWO_THIRDS_SET, F(1, 2), 3)
        certified_lower_bound(TWO_THIRDS_SET, F(1, 2), 5)
        assert depths == [4, 6]

    @pytest.mark.parametrize("depth,p", [(-1, F(1, 2)), (MAX_DEPTH + 1, F(1, 2)), (2, F(0))])
    def test_arguments_checked_before_the_sweep(self, monkeypatch, depth, p):
        def unreachable(*args):
            raise AssertionError("the set was swept")

        monkeypatch.setattr(search, "dyadic_counts", unreachable)
        for route in (pencil_extremes, certified_lower_bound):
            with pytest.raises(InputError):
                route(FULL, p, depth)


def bracket_case(cells, depth, p, guess=None):
    """The count-tree bracket of a cell set and the reference bisection's;
    the guess defaults to the tree's float λ_min, as in a search."""
    tree = _CountTree.from_cells(list(cells), depth)
    if guess is None:
        guess = tree.extremes(p, {})[0]
    reference = reference_certified_lower_bound(StepSet.from_cells(cells), p, depth)
    grid = search._bracket_grid(F(1, 1 << 20))
    return search._bracket(tree, p, grid, guess), reference


BRACKET_PS = [F(1, 2), F(2, 3), F(43, 64), F(3, 4), F(1)]
GRID_STEP = 2.0**-20


class TestTreeBracket:
    """The search's bracket on the count tree equals the reference bisection
    on the set's Fraction Gram matrix, bit for bit, whatever its start."""

    @given(
        st.integers(1, 6).flatmap(
            lambda r: st.lists(st.booleans(), min_size=1 << r, max_size=1 << r)
        ),
        st.integers(0, 5),
        st.sampled_from(BRACKET_PS),
    )
    @settings(max_examples=80)
    def test_equals_the_reference_bisection(self, cells, depth, p):
        # cells coarser than, as fine as and finer than level depth + 1
        tree_value, reference = bracket_case(cells, depth, p)
        assert tree_value == reference

    @pytest.mark.parametrize("p", BRACKET_PS)
    def test_empty_and_root_dense_families(self, p):
        assert bracket_case([False] * 16, 4, p) == (1, 1)
        assert bracket_case([True] * 16, 4, p) == (1, 1)
        if p == 1:  # only the full set holds the root at p = 1
            return
        dense = _draw_cells(6, 0.9, derive_seed(0xDE5E, p.denominator))
        tree = _CountTree.from_cells(list(dense), 4)
        assert 1 in tree.family(p)  # the root is a member
        tree_value, reference = bracket_case(dense, 4, p)
        assert tree_value == reference < 1

    @pytest.mark.parametrize(
        "offset",
        [
            "zero", "top", "one_below", "one_above", "three_below", "three_above",
            "far_below", "far_above", "nan", "inf", "-inf",
        ],
    )
    @pytest.mark.parametrize("depth,resolution,p,bias", [
        (4, 6, F(43, 64), 0.7), (5, 4, F(3, 4), 0.9), (3, 7, F(1, 2), 0.5),
    ])
    def test_any_guess_gives_the_same_bracket(
        self, monkeypatch, offset, depth, resolution, p, bias
    ):
        cells = _draw_cells(resolution, bias, derive_seed(0x6E55, depth))
        low = _CountTree.from_cells(list(cells), depth).extremes(p, {})[0]
        guess = {
            "zero": 0.0,
            "top": 2.0 - GRID_STEP,
            "one_below": low - GRID_STEP,
            "one_above": low + GRID_STEP,
            "three_below": low - 3 * GRID_STEP,
            "three_above": low + 3 * GRID_STEP,
            "far_below": -7.5,
            "far_above": 1e300,
            "nan": float("nan"),
            "inf": float("inf"),
            "-inf": float("-inf"),
        }[offset]
        verdicts = []
        verdict = search._pivot_psd
        monkeypatch.setattr(
            search, "_pivot_psd", lambda *args: verdicts.append(args) or verdict(*args)
        )
        tree_value, reference = bracket_case(cells, depth, p, guess)
        assert tree_value == reference
        assert 0 < reference < 1
        # the start's two points, then a bisection of what is left of [0, top]
        _, top = search._bracket_grid(F(1, 1 << 20))
        assert len(verdicts) <= 2 + top.bit_length() - 1

    @pytest.mark.parametrize("mode", ["random", "greedy-flip"])
    @pytest.mark.parametrize("p", BRACKET_PS)
    def test_seeded_searches(self, mode, p):
        for k in range(3):
            cfg = SearchConfig(
                p=p,
                depth=3 + k,
                cell_resolution=4 + 2 * k,
                iterations=15,
                seed=derive_seed(0xB7AC, k),
                mode=mode,
            )
            result = search_extremal(cfg)
            assert result.certificate_lower == reference_certified_lower_bound(
                result.best_set, p, cfg.depth
            )

    @pytest.mark.parametrize("mode", ["random", "greedy-flip"])
    def test_checks_start_at_the_float_floor(self, monkeypatch, mode):
        """At the benchmark's settings the float λ_min lies inside its grid
        cell, so the bracket asks exactly ⌊λ·2²⁰⌋ and the next point."""
        asked = []
        verdict = search._pivot_psd

        def recorded(nodes, pivots, slopes):
            asked.append((nodes[0], pivots[0]))
            return verdict(nodes, pivots, slopes)

        monkeypatch.setattr(search, "_pivot_psd", recorded)
        for k in range(4):
            asked.clear()
            result = search_extremal(
                SearchConfig(
                    p=F(43, 64),
                    depth=6,
                    cell_resolution=8,
                    iterations=12,
                    seed=derive_seed(0xF100, k),
                    mode=mode,
                    density_bias=0.55,
                )
            )
            low = result.certificate_lower
            assert F(result.best_ratio) - low < F(1, 1 << 20)
            # each pivot is (1 − shift)·counts[v]
            tree, _ = search._table_tree(result.best_set, F(43, 64), 6)
            shifts = [1 - pivot / tree.counts[v] for v, pivot in asked]
            assert shifts == [low, low + F(1, 1 << 20)]


def pass_verdict(tree, family, shift):
    """The pivot pass's verdict on G − shift·D for members of a count table,
    with the bracket's inputs: pivots (1 − shift)·counts[v] and slopes
    counts[2v + 1] − counts[2v]."""
    counts = tree.counts
    pivots = [(1 - shift) * counts[v] for v in family]
    slopes = [counts[2 * v + 1] - counts[2 * v] for v in family]
    return gram_module._pivot_psd(family, pivots, slopes)


def store_verdict(tree, family, shift):
    """Reference verdict: the generic LDLᵀ (``psd_certificate``) on the
    integer Gram store of the same family, written by ``_chain_store``."""
    counts = tree.counts
    mass = [counts[v] for v in family]
    slope = [counts[2 * v + 1] - counts[2 * v] for v in family]
    diagonal, lower = _chain_store(family, mass, slope)
    return psd_certificate(GramMatrix(diagonal, lower), shift, diagonal)


def pass_edges(tree, family):
    """lo and lo + 2⁻²⁰, lo the largest multiple of 2⁻²⁰ in [0, 2) at which
    the pass holds: bisection with the pass itself, as the bracket runs it."""
    lo, hi = 0, 1 << 21
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pass_verdict(tree, family, F(mid, 1 << 20)) else (lo, mid)
    return [F(lo, 1 << 20), F(lo + 1, 1 << 20)]


PASS_SHIFTS = [F(0), F(1, 2), F(1), F(3, 2)]

# cells drawn at a bias: high biases make root-dense families
pass_cells = st.tuples(
    st.integers(1, 7), st.sampled_from([0.3, 0.5, 0.7, 0.8, 0.9, 1.0]), st.integers(0, 1 << 32)
).map(lambda args: _draw_cells(*args))


class TestPivotPass:
    """The pivot pass's verdict on a count table's members equals the
    generic LDLᵀ on the integer Gram store of the same family, at fixed
    shifts and at the edges of the pass's own bracket."""

    def assert_agrees(self, tree, family):
        for shift in PASS_SHIFTS + pass_edges(tree, family):
            assert pass_verdict(tree, family, shift) is store_verdict(tree, family, shift), shift

    @given(st.integers(0, 6), pass_cells, st.data())
    @settings(max_examples=80)
    def test_arbitrary_subsets(self, depth, cells, data):
        # members of any density, zero-mass members included
        tree = _CountTree.from_cells(cells, depth)
        nodes = range(1, 2 << depth)
        keep = data.draw(st.lists(st.booleans(), min_size=len(nodes), max_size=len(nodes)))
        self.assert_agrees(tree, [v for v, kept in zip(nodes, keep) if kept])

    @given(st.integers(0, 6), pass_cells, st.sampled_from(BRACKET_PS))
    @settings(max_examples=80)
    def test_admissible_families(self, depth, cells, p):
        tree = _CountTree.from_cells(cells, depth)
        self.assert_agrees(tree, tree.family(p))

    @given(step_sets(denominators=(3, 5, 7, 21, 64)), st.integers(0, 5), st.sampled_from(BRACKET_PS))
    @settings(max_examples=40)
    def test_tables_of_non_dyadic_sets(self, region, depth, p):
        tree, p = search._table_tree(region, p, depth)
        self.assert_agrees(tree, tree.family(p))

    def test_zero_pivot_without_a_member_ancestor_holds(self):
        tree = _CountTree.from_cells([True, False, True, True], 2)
        assert tree.counts[3] != tree.counts[2]  # the root's slope
        assert pass_verdict(tree, [1], F(1)) is store_verdict(tree, [1], F(1)) is True

    def test_zero_pivot_under_a_member_with_a_slope_fails(self):
        tree = _CountTree.from_cells([True, False, True, True], 2)
        assert tree.counts[5] != tree.counts[4]  # the slope of [0, 1/2)
        assert pass_verdict(tree, [1, 2], F(1)) is store_verdict(tree, [1, 2], F(1)) is False

    def test_member_that_the_set_misses_is_skipped(self):
        # [1/2, 1) holds no point of E: its pivot and slope are 0 at every shift
        tree = _CountTree.from_cells([True, True, False, False], 2)
        assert tree.counts[3] == 0
        for shift in PASS_SHIFTS:
            verdict = pass_verdict(tree, [1, 3], shift)
            assert verdict is pass_verdict(tree, [1], shift) is store_verdict(tree, [1, 3], shift)
        assert pass_verdict(tree, [1, 3], F(1)) is True

    @given(st.integers(0, 6), pass_cells, st.sampled_from(BRACKET_PS))
    @settings(max_examples=40)
    def test_reflection_keeps_every_verdict(self, depth, cells, p):
        # x ↦ 1 − x maps node 2^l + i to 2^l + (2^l − 1 − i) and negates
        # every slope and every half-sign, so each entry of G is unchanged
        tree = _CountTree.from_cells(cells, depth)
        mirror = _CountTree.from_cells(cells[::-1], depth)
        family = tree.family(p)
        reflected = [(3 << (v.bit_length() - 1)) - 1 - v for v in family]
        assert sorted(reflected) == mirror.family(p)
        for shift in PASS_SHIFTS + pass_edges(tree, family):
            assert pass_verdict(tree, family, shift) is pass_verdict(mirror, reflected, shift)

    @given(st.integers(0, 6), pass_cells, st.sampled_from(BRACKET_PS))
    @settings(max_examples=40)
    def test_monotone_in_the_shift(self, depth, cells, p):
        tree = _CountTree.from_cells(cells, depth)
        family = tree.family(p)
        shifts = sorted(PASS_SHIFTS + pass_edges(tree, family) + [F(k, 7) for k in range(15)])
        verdicts = [pass_verdict(tree, family, shift) for shift in shifts]
        assert verdicts == sorted(verdicts, reverse=True)


class TestSearchExtremal:
    CFG = SearchConfig(
        p=F(43, 64), depth=4, cell_resolution=6, iterations=30, seed=99
    )

    def test_deterministic(self):
        first = search_extremal(self.CFG)
        second = search_extremal(self.CFG)
        assert first == second

    def test_history_and_floor(self):
        result = search_extremal(self.CFG)
        assert len(result.history) == 30
        assert [i for i, _ in result.history] == list(range(30))
        floor = float(riesz_constant(self.CFG.p)) - 1e-8
        assert all(r >= floor for _, r in result.history)
        assert result.certificate_lower <= F(result.best_ratio).limit_denominator(
            1 << 40
        ) + F(1, 10**8)

    def test_single_iteration(self):
        cfg = SearchConfig(
            p=F(3, 4), depth=3, cell_resolution=5, iterations=1, seed=4
        )
        result = search_extremal(cfg)
        assert len(result.history) == 1

    def test_best_is_minimum_of_history(self):
        result = search_extremal(self.CFG)
        assert result.best_ratio == min(r for _, r in result.history)

    def test_greedy_mode_runs_and_is_deterministic(self):
        cfg = SearchConfig(
            p=F(3, 4),
            depth=4,
            cell_resolution=6,
            iterations=40,
            seed=11,
            mode="greedy-flip",
        )
        first = search_extremal(cfg)
        second = search_extremal(cfg)
        assert first == second
        assert len(first.history) == 40
        floor = float(riesz_constant(cfg.p)) - 1e-8
        assert all(r >= floor for _, r in first.history)

    def test_fixed_bias(self):
        cfg = SearchConfig(
            p=F(3, 4),
            depth=3,
            cell_resolution=5,
            iterations=5,
            seed=21,
            density_bias=1.0,
        )
        result = search_extremal(cfg)
        # bias 1.0 always yields the full set, whose family is orthogonal
        assert result.best_set == FULL
        assert result.best_ratio == 1.0
        assert result.family_size == 15

    def test_config_validation(self):
        with pytest.raises(InputError):
            SearchConfig(p=F(3, 4), depth=-1, cell_resolution=6, iterations=1, seed=0)
        with pytest.raises(InputError):
            SearchConfig(p=F(3, 4), depth=1, cell_resolution=6, iterations=0, seed=0)
        for iterations in (search.MAX_ITERATIONS + 1, 10**12):
            with pytest.raises(InputError, match="iterations"):
                SearchConfig(p=F(3, 4), depth=1, cell_resolution=6, iterations=iterations, seed=0)
        cfg = SearchConfig(
            p=F(3, 4), depth=1, cell_resolution=6, iterations=search.MAX_ITERATIONS, seed=0
        )
        assert cfg.iterations == search.MAX_ITERATIONS
        with pytest.raises(InputError):
            SearchConfig(
                p=F(3, 4), depth=1, cell_resolution=6, iterations=1, seed=0, mode="anneal"
            )
        with pytest.raises(InputError):
            SearchConfig(
                p=F(3, 4), depth=1, cell_resolution=MAX_RESOLUTION + 1, iterations=1, seed=0
            )
        with pytest.raises(InputError):
            SearchConfig(
                p=F(3, 4), depth=MAX_DEPTH + 1, cell_resolution=6, iterations=1, seed=0
            )

    @pytest.mark.parametrize("p", [F(0), F(-1, 2), F(3, 2)])
    def test_threshold_outside_the_unit_interval(self, p):
        # p = 0 used to reach 1/p in search_extremal and raise ZeroDivisionError
        with pytest.raises(InputError, match="threshold"):
            SearchConfig(p=p, depth=2, cell_resolution=4, iterations=1, seed=0)
        assert run(["search", "--p", str(p), "--depth", "2", "--resolution", "4",
                    "--iters", "1", "--seed", "0"]) == 2

    def test_greedy_restart_set_can_win(self):
        # 150 iterations restart several times; before restarts were compared
        # with the best set this reported 0.6097603 while a restart set scored
        # 0.60650955
        cfg = SearchConfig(
            p=F(43, 64),
            depth=3,
            cell_resolution=5,
            iterations=150,
            seed=26,
            mode="greedy-flip",
        )
        result = search_extremal(cfg)
        assert len(result.history) == 150
        assert result.best_ratio <= 0.60650955
        assert result.best_ratio < min(r for _, r in result.history)
        low, _, size = pencil_extremes(result.best_set, cfg.p, cfg.depth)
        assert (low, size) == (result.best_ratio, result.family_size)

    def test_result_json(self):
        result = search_extremal(
            SearchConfig(p=F(3, 4), depth=3, cell_resolution=5, iterations=3, seed=1)
        )
        payload = result.to_json_dict()
        assert StepSet.from_json_dict(payload["best_set"]) == result.best_set
        assert float(payload["best_ratio"]) == result.best_ratio

    def test_kept_results_are_small(self):
        """A result at the benchmark's settings holds its set's ends (shared
        endpoint Fractions), its ratios and a few scalars: at most 1.75 KB."""

        def cfg(k):
            return SearchConfig(
                p=F(43, 64),
                depth=6,
                cell_resolution=8,
                iterations=12,
                seed=derive_seed(0x512E, k),
                mode=("random", "greedy-flip")[k % 2],
                density_bias=0.55,
            )

        StepSet.from_cells([True, False] * 128)  # fills the table of scale 256
        search_extremal(cfg(0))
        search_extremal(cfg(1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [search_extremal(cfg(k)) for k in range(2, 10)]
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(len(result.best_set.intervals) > 40 for result in kept)
        assert size / len(kept) <= 1.75 * 1024


# ---------------------------------------------------------------------------
# the cell-count tree that scores search candidates


def node_interval(v):
    """The dyadic interval of heap number v = 2^level + index."""
    level = v.bit_length() - 1
    return DyadicInterval(level, v - (1 << level))


def tree_gram(tree, p):
    """Exact Gram matrix read off the tree's counts (test-side).

    Masses and slopes are the tree's integers over its unit; the sign of a
    nested entry comes from ``halves``, not from the bits of a heap number.
    """
    unit = F(1, tree.unit)
    counts = tree.counts
    family = tree.family(p)
    members = [node_interval(v) for v in family]
    slopes = [(counts[2 * v + 1] - counts[2 * v]) * unit for v in family]
    rows = []
    for i, (inner, v) in enumerate(zip(members, family)):
        row = []
        for j, outer in enumerate(members):
            if i == j:
                row.append(counts[v] * unit)
            elif outer.contains(inner):
                row.append(slopes[i] if halves(outer)[1].contains(inner) else -slopes[i])
            elif inner.contains(outer):
                row.append(slopes[j] if halves(inner)[1].contains(outer) else -slopes[j])
            else:
                row.append(F(0))
        rows.append(tuple(row))
    return gram_from_entries(rows, members)


def assert_tree_matches_reference(tree, p):
    """Family, masses, slopes, float pencil and extremes of one candidate equal
    the StepSet route's (``enumerate_family``, ``build_gram``,
    ``reference_pencil_extremes``), bit for bit."""
    region = StepSet.from_cells(tree.cells)
    depth = tree.depth
    family = enumerate_family(depth, region, p)
    members = [node_interval(v) for v in tree.family(p)]
    assert members == family
    # the density rule, decided apart from meets_density
    assert family == [
        DyadicInterval(level, index)
        for level in range(depth + 1)
        for index in range(1 << level)
        if density(region, DyadicInterval(level, index)) >= p
    ]
    assert tree_gram(tree, p).entries == build_gram(family, region).entries
    (low, high, size), blocks = solved_blocks(lambda: tree.extremes(p, {}))
    assert blocks == list(dict.fromkeys(dense_blocks(tree, p)))
    ref_low, ref_high, ref_size = reference_pencil_extremes(region, p, depth)
    assert (low.hex(), high.hex(), size) == (ref_low.hex(), ref_high.hex(), ref_size)


def dense_blocks(tree, p):
    """The bytes of each multi-member block of the candidate's normalized
    pencil, in the order of their least members: the blocks of
    ``build_gram(family, region, normalized=True).as_float()`` cut by
    ``np.ix_`` along its nonzero pattern, the dense route kept as the
    reference (test-side)."""
    region = StepSet.from_cells(tree.cells)
    family = enumerate_family(tree.depth, region, p)
    if not family:
        return []
    matrix = build_gram(family, region, normalized=True).as_float()
    return [
        matrix[np.ix_(members, members)].tobytes()
        for members in matrix_components(matrix)
        if len(members) > 1
    ]


def flip_sequence(resolution, count):
    """A fixed sequence of cell indices drawn from splitmix64."""
    rng = search.SplitMix64(0xF11F)
    return [rng.next_u64() % (1 << resolution) for _ in range(count)]


# (depth, resolution): cells finer than level depth + 1, as fine, and coarser
TREE_REGIMES = ((3, 6), (4, 5), (4, 3), (5, 2))


class TestCountTree:
    @pytest.mark.parametrize("mode", ["random", "greedy-flip"])
    @pytest.mark.parametrize("depth,resolution", TREE_REGIMES)
    @pytest.mark.parametrize("p", [F(1, 2), F(43, 64), F(3, 4)])
    def test_every_candidate_matches_the_stepset_route(
        self, monkeypatch, mode, depth, resolution, p
    ):
        scored = []
        original = search._score

        def checked(tree, cfg, floor, ceiling, memo):
            assert_tree_matches_reference(tree, cfg.p)
            scored.append(tree.extremes(cfg.p, {}))
            return original(tree, cfg, floor, ceiling, memo)

        monkeypatch.setattr(search, "_score", checked)
        iterations = 45 if mode == "greedy-flip" else 12
        cfg = SearchConfig(
            p=p,
            depth=depth,
            cell_resolution=resolution,
            iterations=iterations,
            seed=derive_seed(0x7EE, depth * 17 + resolution),
            mode=mode,
        )
        result = search_extremal(cfg)
        # greedy mode also scores its starting set and every restart's
        assert len(scored) >= iterations
        if mode == "random":
            assert [r for _, r in result.history] == [low for low, _, _ in scored]

    @pytest.mark.parametrize("depth,resolution", TREE_REGIMES)
    def test_flip_and_revert_equal_a_fresh_build(self, depth, resolution):
        cells = _draw_cells(resolution, 0.6, derive_seed(5, resolution))
        tree = _CountTree.from_cells(list(cells), depth)
        flips = flip_sequence(resolution, 40)
        for cell in flips:
            tree.toggle(cell)
            assert tree.counts == _CountTree.from_cells(list(tree.cells), depth).counts
        for cell in reversed(flips):
            tree.toggle(cell)
        assert tree.cells == cells
        assert tree.counts == _CountTree.from_cells(list(cells), depth).counts

    def test_root_dense_and_empty_families(self):
        full = _CountTree.from_cells([True] * 8, 4)
        assert full.extremes(F(1), {}) == (1.0, 1.0, 31)
        empty = _CountTree.from_cells([False] * 8, 4)
        assert empty.extremes(F(1, 2), {}) == (1.0, 1.0, 0)
        assert_tree_matches_reference(full, F(1))
        assert_tree_matches_reference(empty, F(1, 2))

    def test_exact_density_threshold_admits(self):
        # [0, 3/4) at resolution 2: the root has density exactly 3/4
        tree = _CountTree.from_cells([True, True, True, False], 3)
        assert 1 in tree.family(F(3, 4))
        assert 1 not in tree.family(F(3, 4) + F(1, 1000))
        assert_tree_matches_reference(tree, F(3, 4))


class TestDenseCap:
    def test_refused_before_the_store_is_built(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the float store was built")

        monkeypatch.setattr(search, "_chain_store", reached)
        cfg = SearchConfig(
            p=F(1, 2), depth=11, cell_resolution=12, iterations=1, seed=1, density_bias=1.0
        )
        with pytest.raises(InputError, match="4095 members exceeds the cap"):
            search_extremal(cfg)
        with pytest.raises(InputError, match="4095 members exceeds the cap"):
            pencil_extremes(FULL, F(1, 2), 11)
        with pytest.raises(AssertionError):  # a family at the cap is built
            pencil_extremes(FULL, F(1, 2), 10)


class TestFinerResolution:
    """Writing the cells of a set at a finer resolution changes nothing."""

    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(st.booleans(), min_size=1 << r, max_size=1 << r)
        ),
        st.integers(1, 3),
        st.integers(0, 5),
        st.sampled_from([F(1, 2), F(2, 3), F(43, 64), F(3, 4), F(1)]),
    )
    @settings(max_examples=60)
    def test_split_cells(self, cells, k, depth, p):
        finer = [present for present in cells for _ in range(1 << k)]
        coarse_tree = _CountTree.from_cells(list(cells), depth)
        fine_tree = _CountTree.from_cells(finer, depth)
        region = StepSet.from_cells(cells)
        assert StepSet.from_cells(finer) == region
        # the same set given as 2^k pieces per interval canonicalizes back
        pieces = [
            (left + (right - left) * F(i, 1 << k), left + (right - left) * F(i + 1, 1 << k))
            for left, right in region.intervals
            for i in range(1 << k)
        ]
        assert StepSet(tuple(pieces)) == region

        assert coarse_tree.family(p) == fine_tree.family(p)
        coarse_gram, fine_gram = tree_gram(coarse_tree, p), tree_gram(fine_tree, p)
        assert coarse_gram == fine_gram
        family = enumerate_family(depth, region, p)
        assert fine_gram.entries == build_gram(family, region).entries
        c = riesz_constant(p) if p > F(2, 3) else F(1, 2)
        for gram in (coarse_gram, fine_gram):
            assert psd_certificate(gram, c, gram.diagonal) is psd_certificate(
                coarse_gram, c, coarse_gram.diagonal
            )
            assert bessel_certificate(gram, p) is bessel_certificate(coarse_gram, p)
        (coarse_score, coarse_blocks), (fine_score, fine_blocks) = (
            solved_blocks(lambda: tree.extremes(p, {})) for tree in (coarse_tree, fine_tree)
        )
        assert coarse_blocks == fine_blocks
        assert coarse_blocks == list(dict.fromkeys(dense_blocks(coarse_tree, p)))
        scores = [coarse_score, fine_score]
        reference = reference_pencil_extremes(region, p, depth)
        for low, high, size in scores:
            assert (low.hex(), high.hex(), size) == (
                reference[0].hex(),
                reference[1].hex(),
                reference[2],
            )


class TestScoreInvariants:
    """A candidate whose float extremes break either theorem bound is a
    consistency failure that names the candidate's set."""

    CELLS = [True, True, False, True, True, True, False, True]

    def forced(self, monkeypatch, low, high):
        tree = _CountTree.from_cells(list(self.CELLS), 2)
        monkeypatch.setattr(_CountTree, "extremes", lambda self, p, memo: (low, high, 3))
        cfg = SearchConfig(p=F(3, 4), depth=2, cell_resolution=3, iterations=1, seed=1)
        floor = search._floor_for(cfg.p)
        return lambda: search._score(tree, cfg, floor, 4 / 3 + search._FLOAT_TOL, {})

    def test_floor_undercut(self, monkeypatch):
        score = self.forced(monkeypatch, float(riesz_constant(F(3, 4))) - 1e-3, 1.0)
        with pytest.raises(ConsistencyError, match="undercuts the certified lower bound") as caught:
            score()
        assert str(StepSet.from_cells(self.CELLS)) in str(caught.value)

    def test_ceiling_exceeded(self, monkeypatch):
        score = self.forced(monkeypatch, 0.5, 4 / 3 + 1e-3)
        with pytest.raises(ConsistencyError, match="exceeds the upper bound 1/p") as caught:
            score()
        assert str(StepSet.from_cells(self.CELLS)) in str(caught.value)

    def test_within_both_bounds(self, monkeypatch):
        assert self.forced(monkeypatch, 0.5, 1.25)() == (0.5, 3)


class TestCandidateWork:
    @pytest.mark.parametrize("mode", ["random", "greedy-flip"])
    def test_only_winning_or_tied_candidates_build_a_stepset(self, monkeypatch, mode):
        """Winning and tied candidates find their integer runs, for the
        tie-break; one StepSet is built, for the final winner, and no Fraction
        route runs.  Count trees are built from cells for candidates only:
        the winner's table is read off its set in one sweep, as every other
        set's is, and bracketed in at most three passes over it; the generic
        LDLᵀ never runs."""
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for module, name in (
            (search, "random_stepset"),
            (haar_module, "enumerate_family"),
            (gram_module, "build_gram"),
            (search, "certified_lower_bound"),
            (search, "dyadic_counts"),
            (gram_module, "psd_certificate"),
            (gram_module, "eig_bounds"),
            (search, "cell_runs"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for name in ("from_cells", "from_runs"):
            method = getattr(StepSet, name).__func__
            monkeypatch.setattr(StepSet, name, classmethod(counted(name, method)))
        tree_from_cells = _CountTree.from_cells.__func__
        monkeypatch.setattr(
            _CountTree, "from_cells", classmethod(counted("tree_from_cells", tree_from_cells))
        )
        monkeypatch.setattr(search, "_pivot_psd", counted("pivot_psd", search._pivot_psd))
        ratios = []
        score = search._score

        def recorded(*args):
            ratio, size = score(*args)
            ratios.append(ratio)
            return ratio, size

        monkeypatch.setattr(search, "_score", recorded)
        cfg = SearchConfig(
            p=F(43, 64),
            depth=6,
            cell_resolution=8,
            iterations=12,
            seed=0x5EED,
            mode=mode,
            density_bias=0.55,
        )
        search_extremal(cfg)
        contenders = sum(
            1 for k, r in enumerate(ratios) if k == 0 or r <= min(ratios[:k])
        )
        assert contenders < len(ratios)  # some candidates neither win nor tie
        assert calls["cell_runs"] == contenders
        assert (calls["from_runs"], calls["from_cells"]) == (1, 0)
        assert calls["enumerate_family"] == 0
        assert calls["build_gram"] == 0
        assert calls["certified_lower_bound"] == 0
        assert calls["dyadic_counts"] == 1  # the winner's table, from its set
        assert calls["tree_from_cells"] == (cfg.iterations if mode == "random" else 1)
        assert 1 <= calls["pivot_psd"] <= 3
        assert calls["psd_certificate"] == 0
        assert calls["random_stepset"] == 0
        assert calls["eig_bounds"] == 0


class TestBlockMemo:
    """One search keeps the extremes of every pencil block it solved."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = [0]
        jacobi = gram_module._jacobi

        def counted(*args):
            calls[0] += 1
            return jacobi(*args)

        monkeypatch.setattr(gram_module, "_jacobi", counted)
        return calls

    @pytest.mark.parametrize(
        "p,depth,resolution,bias",
        [(F(43, 64), 6, 8, 0.55), (F(3, 4), 5, 4, 0.7), (F(1, 2), 4, 6, 0.5)],
    )
    def test_greedy_flip_solves_only_the_blocks_it_changed(
        self, monkeypatch, p, depth, resolution, bias
    ):
        solves = self.count_solves(monkeypatch)
        before = {}  # tree -> (family, blocks) just before its last toggle
        toggle = _CountTree.toggle

        def recorded_toggle(tree, cell):
            before[tree] = (set(tree.family(p)), set(dense_blocks(tree, p)))
            toggle(tree, cell)

        monkeypatch.setattr(_CountTree, "toggle", recorded_toggle)
        starts = flips = reused = solved = 0
        score = search._score

        def checked(tree, cfg, floor, ceiling, memo):
            start = solves[0]
            out = score(tree, cfg, floor, ceiling, memo)
            nonlocal starts, flips, reused, solved
            if tree not in before:  # a start or a restart: a fresh tree
                starts += 1
            else:
                family, old_blocks = before.pop(tree)
                new_blocks = set(dense_blocks(tree, p))
                fresh = solves[0] - start
                # a block of the pencil the flip started from is never re-solved
                assert fresh <= len(new_blocks - old_blocks)
                # a flip changes the one block holding its changed members;
                # only a member that leaves can split a block in more
                if family <= set(tree.family(p)):
                    assert fresh <= 1
                flips += 1
                solved += fresh
                reused += len(new_blocks) - fresh
            return out

        monkeypatch.setattr(search, "_score", checked)
        for k in range(4):
            search_extremal(
                SearchConfig(
                    p=p,
                    depth=depth,
                    cell_resolution=resolution,
                    iterations=70,  # beyond the stagnation limit: restarts
                    seed=derive_seed(0x3E30, k),
                    mode="greedy-flip",
                    density_bias=bias,
                )
            )
        assert flips == 4 * 70 and starts > 4
        assert reused > solved

    @pytest.mark.parametrize("mode", ["random", "greedy-flip"])
    def test_no_block_outlives_a_search(self, monkeypatch, mode):
        solves = self.count_solves(monkeypatch)
        cfg = SearchConfig(
            p=F(43, 64),
            depth=6,
            cell_resolution=8,
            iterations=12,
            seed=0xA11,
            mode=mode,
            density_bias=0.55,
        )
        counts = []
        results = []
        for _ in range(2):
            start = solves[0]
            results.append(search_extremal(cfg))
            counts.append(solves[0] - start)
        assert counts[0] == counts[1] > 0
        assert results[0] == results[1]

    def test_capped_memo_starts_over_and_moves_no_result(self, monkeypatch):
        # the criterion-9 search, once with the memo's cap and once with a
        # cap of a few KiB, below many of its blocks' bytes
        cfg = SearchConfig(
            p=F(43, 64), depth=6, cell_resolution=8, iterations=200, seed=0x5EA7C4
        )
        solves = [0]
        block_extremes = gram_module._block_extremes

        def counted(block):
            solves[0] += 1
            return block_extremes(block)

        monkeypatch.setattr(gram_module, "_block_extremes", counted)
        uncapped = search_extremal(cfg)
        uncapped_solves, solves[0] = solves[0], 0

        cap = 32 << 10
        monkeypatch.setattr(gram_module, "MAX_MEMO_BYTES", cap)
        held = []
        setitem = gram_module._BlockMemo.__setitem__

        def checked(memo, key, value):
            setitem(memo, key, value)
            key_bytes = sum(map(len, memo))
            assert memo.key_bytes == key_bytes
            assert key_bytes <= cap or len(memo) == 1
            held.append((len(memo), key_bytes))

        monkeypatch.setattr(gram_module._BlockMemo, "__setitem__", checked)
        assert search_extremal(cfg) == uncapped
        assert solves[0] > uncapped_solves
        # both ways of starting over occur: a key too large to share the
        # memo, and keys that fill it
        assert any(size == 1 and key_bytes > cap for size, key_bytes in held)
        sizes = [size for size, _ in held]
        assert any(0 < after <= before for before, after in zip(sizes, sizes[1:]))


# Digests of seeded results, taken before candidates were scored on the count
# tree: best_ratio and history as float.hex, family size, certified lower
# bound and the best set.  Both modes, cells finer and coarser than level
# depth + 1.
RESULT_DIGESTS = [
    (("random", F(43, 64), 4, 6, None, 30, 99),
     "bd31ebda3406fc15da22d32a150a6cb28c3baf51d2394e6b4c6d7c2eabef386d"),
    (("random", F(3, 4), 5, 4, 0.7, 25, 2024),
     "7edc2b16b2b705142dfa479d6a9bf8021c04062629c7a97dbc9b2792c7eee2b3"),
    (("random", F(1, 2), 3, 3, None, 20, 7),
     "adf95d70e5c868abf7ef354eb906e132e6791805b0858229a6d67d3ef5179e6f"),
    (("greedy-flip", F(43, 64), 4, 7, 0.55, 60, 11),
     "065b042fdbde77bf6e5a5a7e2ce870063354c4a729b94d290f61b28f16f67c1c"),
    (("greedy-flip", F(3, 4), 5, 3, None, 80, 26),
     "15b10701b08081cb2158c6cfc7c6d2e3fdb889ea2de364d269caf9b54c9d7c63"),
    (("greedy-flip", F(2, 3), 3, 5, None, 50, 5),
     "d8130fa692179fd642d7185e3185bea0d617e102f347305fa8c02bfd06afd333"),
]


@pytest.mark.parametrize("case,digest", RESULT_DIGESTS)
def test_seeded_results_unchanged(case, digest):
    mode, p, depth, resolution, bias, iterations, seed = case
    result = search_extremal(
        SearchConfig(
            p=p,
            depth=depth,
            cell_resolution=resolution,
            iterations=iterations,
            seed=seed,
            mode=mode,
            density_bias=bias,
        )
    )
    # oracles that hold for any eigensolver: the winner's exact bracket,
    # its float ratio at the bracket and every ratio above the theorem's floor
    family = enumerate_family(depth, result.best_set, p)
    lower, width = result.certificate_lower, F(1, 2**20)
    assert family and verify_riesz(family, result.best_set, lower)
    assert not verify_riesz(family, result.best_set, lower + width)
    assert lower - F(1, 10**12) <= F(result.best_ratio) <= lower + width + F(1, 10**12)
    if p > F(2, 3):
        assert min(result.ratios) >= riesz_constant(p) - F(1, 10**8)
    payload = json.dumps(
        [
            result.best_ratio.hex(),
            [[i, r.hex()] for i, r in result.history],
            result.family_size,
            str(result.certificate_lower),
            result.best_set.to_json_dict(),
        ]
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
