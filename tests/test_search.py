from fractions import Fraction as F

import pytest

from haar_riesz import (
    ConsistencyError,
    InputError,
    SearchConfig,
    StepSet,
    build_gram,
    certified_lower_bound,
    derive_seed,
    enumerate_family,
    min_ratio,
    psd_certificate,
    random_stepset,
    riesz_constant,
    search_extremal,
    splitmix64,
)
from haar_riesz import search
from haar_riesz.counterexample import TWO_THIRDS_SET
from haar_riesz.haar import MAX_DEPTH
from haar_riesz.search import MAX_RESOLUTION

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
        ratio, size = min_ratio(FULL, F(1, 2), 3)
        assert ratio == 1.0
        assert size == 15

    def test_empty_family_convention(self):
        ratio, size = min_ratio(StepSet(()), F(1, 2), 3)
        assert (ratio, size) == (1.0, 0)

    def test_zigzag_forces_low_ratio(self):
        # the zig-zag coefficient vector pins the Rayleigh quotient at 4/(4+n);
        # depth 6 contains stages up to n = 3
        ratio, _ = min_ratio(TWO_THIRDS_SET, F(2, 3), 6)
        assert ratio <= 4 / 7 + 1e-8

    def test_theorem_floor(self):
        p = F(43, 64)
        floor = float(riesz_constant(p)) - 1e-8
        for i in range(10):
            region = random_stepset(6, 0.7, derive_seed(0xF100E, i))
            ratio, _ = min_ratio(region, p, 4)
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
        ratio, _ = min_ratio(region, p, 4)
        assert float(low) <= ratio + 1e-8

    def test_empty_family(self):
        assert certified_lower_bound(StepSet(()), F(1, 2), 3) == 1


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
        low, size = min_ratio(result.best_set, cfg.p, cfg.depth)
        assert (low, size) == (result.best_ratio, result.family_size)

    def test_result_json(self):
        result = search_extremal(
            SearchConfig(p=F(3, 4), depth=3, cell_resolution=5, iterations=3, seed=1)
        )
        payload = result.to_json_dict()
        assert StepSet.from_json_dict(payload["best_set"]) == result.best_set
        assert float(payload["best_ratio"]) == result.best_ratio
