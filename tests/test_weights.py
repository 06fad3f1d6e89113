from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from haar_riesz import (
    CoefficientMap,
    DyadicInterval,
    InputError,
    StepSet,
    WeightConfig,
    intersect_measure,
    check_branch_agreement,
    check_mass_bounds,
    check_split_inequality,
    combination,
    enumerate_family,
    indicator,
    induction_step_check,
    mass_cap,
    norm_sq,
    per_interval_check,
    riesz_constant,
    telescope_check,
    verify_grid,
    weight_mass,
    weight_mass_unclipped,
    weight_profile,
    weighted_norm_sq,
)
from haar_riesz.haar import PiecewiseConstant
from haar_riesz.search import SplitMix64, derive_seed, random_stepset

import conftest
from conftest import (
    dyadic_intervals,
    fraction_split_failure,
    reference_induction_step_check,
    reference_telescope_check,
    reference_verify_grid,
    reference_weight_mass,
    reference_weight_profile,
    reference_weighted_norm_sq,
    step_sets,
)
from haar_riesz import weights
from haar_riesz.counterexample import TWO_THIRDS_SET, zigzag_coefficients
from haar_riesz.measure import FULL_SET, dyadic_counts
from haar_riesz.weights import MAX_GRID, MAX_LEVEL, _split_failure

TWO_THIRDS = StepSet(((0, F(2, 3)),))
CFG34 = WeightConfig(F(3, 4))

P_VALUES = [F(43, 64), F(7, 10), F(3, 4), F(13, 16), F(9, 10), F(1)]


class TestWeightCurve:
    def test_values_at_three_quarters(self):
        assert weight_mass(F(3, 4), CFG34) == 6
        assert weight_mass(F(1), CFG34) == 16
        assert weight_mass(F(0), CFG34) == 0

    def test_unclipped_branch(self):
        assert weight_mass_unclipped(F(1, 2), CFG34) == 4
        assert weight_mass_unclipped(F(0), CFG34) == F(8, 3)
        for q in (F(3, 4), F(13, 16), F(1)):
            assert weight_mass(q, CFG34) == weight_mass_unclipped(q, CFG34)

    def test_domain_validation(self):
        with pytest.raises(InputError):
            weight_mass(F(-1, 8), CFG34)
        with pytest.raises(InputError):
            weight_mass(F(9, 8), CFG34)

    def test_config_validation(self):
        with pytest.raises(InputError):
            WeightConfig(F(2, 3))
        with pytest.raises(InputError):
            WeightConfig(F(5, 4))
        WeightConfig(F(2, 3) + F(1, 1000))

    @pytest.mark.parametrize("p", P_VALUES)
    def test_branch_continuity(self, p):
        cfg = WeightConfig(p)
        linear_at_p = weight_mass_unclipped(p, cfg) * p / p
        assert weight_mass(p, cfg) == linear_at_p == weight_mass_unclipped(p, cfg)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_linear_branch_ratio_constant(self, p):
        cfg = WeightConfig(p)
        ratio = weight_mass(p, cfg) / p
        for q in (p / 7, p / 3, p / 2, 5 * p / 6):
            assert weight_mass(q, cfg) / q == ratio


class TestBranchAgreement:
    @pytest.mark.parametrize(
        "p,common",
        [(F(3, 4), 4), (F(1), 2), (F(7, 10), 8)],
    )
    def test_examples(self, p, common):
        cfg = WeightConfig(p)
        assert check_branch_agreement(cfg)
        assert weight_mass(2 * p - 1, cfg) == common
        assert weight_mass_unclipped(2 * p - 1, cfg) == 1 + p / (3 * p - 2)

    @given(st.fractions(min_value=F(2, 3), max_value=1, max_denominator=997))
    def test_every_threshold(self, p):
        if p <= F(2, 3):
            return
        assert check_branch_agreement(WeightConfig(p))


class TestSplitInequality:
    def test_symmetric_point(self):
        assert check_split_inequality(F(3, 4), F(3, 4), CFG34)

    def test_boundary_discriminant(self):
        # g(1/2) = 4, g(1) = 16: L = 9, B = 12, K = 4 and 144 = 4·9·4 exactly
        assert check_split_inequality(F(1, 2), F(1), CFG34)

    def test_midpoint_only_variant(self):
        for q in (F(0), F(1, 3), F(2, 3), F(1)):
            assert check_split_inequality(q, q, CFG34, require_mid=False)

    def test_midpoint_below_threshold_rejected(self):
        with pytest.raises(InputError):
            check_split_inequality(F(0), F(1, 4), CFG34)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            check_split_inequality(F(-1, 4), F(1), CFG34)

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=64),
        st.fractions(min_value=0, max_value=1, max_denominator=64),
        st.sampled_from(P_VALUES),
    )
    @settings(max_examples=150)
    def test_holds_wherever_claimed(self, q1, q2, p):
        cfg = WeightConfig(p)
        if (q1 + q2) / 2 >= p:
            assert check_split_inequality(q1, q2, cfg)
        assert check_split_inequality(q1, q2, cfg, require_mid=False)

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=32),
        st.fractions(min_value=0, max_value=1, max_denominator=32),
        st.fractions(min_value=-8, max_value=8, max_denominator=8),
    )
    @settings(max_examples=150)
    def test_decision_dominates_sampled_a(self, q1, q2, a):
        # the all-a decision must imply the inequality at any sampled rational a
        cfg = CFG34
        if (q1 + q2) / 2 < cfg.p:
            return
        assert check_split_inequality(q1, q2, cfg)
        g1, g2 = weight_mass(q1, cfg), weight_mass(q2, cfg)
        gm = weight_mass((q1 + q2) / 2, cfg)
        lhs = (1 - a) ** 2 / 2 * g1 + (1 + a) ** 2 / 2 * g2 - gm
        assert lhs >= a * a


class TestMassBounds:
    def test_endpoints(self):
        lower, upper, cap = check_mass_bounds(F(0), CFG34)
        assert lower and upper and cap == 16
        lower, upper, cap = check_mass_bounds(F(1), CFG34)
        assert lower and upper
        assert weight_mass(F(1), CFG34) == cap * 1

    def test_midrange(self):
        lower, upper, cap = check_mass_bounds(F(1, 2), CFG34)
        assert (lower, upper, cap) == (True, True, 16)
        assert F(1, 2) <= 4 <= 8

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=128),
        st.sampled_from(P_VALUES),
    )
    @settings(max_examples=150)
    def test_everywhere(self, q, p):
        lower, upper, _ = check_mass_bounds(q, WeightConfig(p))
        assert lower and upper


class TestWeightProfile:
    def test_full_set_is_cap(self):
        profile = weight_profile(StepSet(((0, 1),)), 2, CFG34)
        cap = mass_cap(CFG34)
        assert all(v == cap for v in profile.values.values())

    def test_two_thirds_level_zero(self):
        profile = weight_profile(TWO_THIRDS, 0, CFG34)
        assert profile.values[DyadicInterval(1, 0)] == 16
        assert profile.values[DyadicInterval(1, 1)] == 8

    def test_linear_branch_cells_share_value(self):
        # any cell with density ≤ p gets weight_mass(p)/p, missed cells included
        profile = weight_profile(StepSet(((0, F(1, 4)),)), 1, CFG34)
        assert profile.values[DyadicInterval(2, 2)] == weight_mass(CFG34.p, CFG34) / CFG34.p
        assert profile.values[DyadicInterval(2, 3)] == weight_mass(CFG34.p, CFG34) / CFG34.p

    @given(step_sets(), st.integers(0, 3), st.sampled_from(P_VALUES))
    @settings(max_examples=50)
    def test_bounds(self, region, n, p):
        cfg = WeightConfig(p)
        low, high = weight_profile(region, n, cfg).value_range()
        assert 1 <= low
        assert high <= mass_cap(cfg)


def _weighted_norm_oracle(region, coeffs, level, cfg):
    """Independent route: integrate (Σ a_I h_I 1_E)² · w via step-function algebra."""
    f = combination(coeffs.restrict(level), region)
    profile = weight_profile(region, level, cfg)
    w = PiecewiseConstant.from_segments(
        (cell.left, cell.right, value) for cell, value in sorted(profile.values.items())
    )
    return (f * f * w).integral()


class TestInductionStep:
    def test_zero_coefficients(self):
        result = induction_step_check(TWO_THIRDS, CoefficientMap(), 1, CFG34)
        assert result == (True, 0, 0)

    def test_no_new_level_still_gains(self):
        coeffs = CoefficientMap({DyadicInterval(0, 0): F(1)})
        holds, lhs, rhs = induction_step_check(TWO_THIRDS, coeffs, 1, CFG34)
        assert holds
        assert rhs == 0
        assert lhs >= 0

    def test_coarse_levels_need_no_admissibility(self):
        # the root has density 2/3 < p = 17/24, but only level-(n+1) coefficients matter
        cfg = WeightConfig(F(17, 24))
        coeffs = CoefficientMap(
            {DyadicInterval(0, 0): F(1), DyadicInterval(1, 0): F(1)}
        )
        holds, lhs, rhs = induction_step_check(TWO_THIRDS, coeffs, 1, cfg)
        assert holds
        assert rhs == 0
        # cross-check both weighted norms against the step-function oracle
        assert lhs == _weighted_norm_oracle(
            TWO_THIRDS, coeffs, 2, cfg
        ) - _weighted_norm_oracle(TWO_THIRDS, coeffs, 1, cfg)

    def test_new_level_admissibility_enforced(self):
        bad = DyadicInterval(1, 1)  # density 1/3 < 3/4
        coeffs = CoefficientMap({bad: F(1)})
        with pytest.raises(InputError) as err:
            induction_step_check(TWO_THIRDS, coeffs, 0, CFG34)
        assert str(bad) in str(err.value)

    def test_support_depth_enforced(self):
        coeffs = CoefficientMap({DyadicInterval(3, 0): F(1)})
        with pytest.raises(InputError):
            induction_step_check(TWO_THIRDS, coeffs, 1, CFG34)

    def test_admissible_new_level_holds(self):
        coeffs = CoefficientMap(
            {DyadicInterval(0, 0): F(2), DyadicInterval(1, 0): F(-1)}
        )
        holds, lhs, rhs = induction_step_check(TWO_THIRDS, coeffs, 0, CFG34)
        assert holds
        assert rhs == 1 * intersect_measure(TWO_THIRDS, DyadicInterval(1, 0))
        assert lhs >= rhs


class TestPerIntervalCheck:
    def test_convexity_only(self):
        for index in range(4):
            assert per_interval_check(
                TWO_THIRDS, DyadicInterval(2, index), F(1), F(0), CFG34
            )

    def test_pure_new_coefficient(self):
        # b = 0 reduces to the mean lower bound (g(q1)+g(q2))/2 ≥ (q1+q2)/2
        for index in range(4):
            assert per_interval_check(
                TWO_THIRDS, DyadicInterval(2, index), F(0), F(1), CFG34
            )

    def test_dead_cell(self):
        region = StepSet(((0, F(1, 4)),))
        assert per_interval_check(region, DyadicInterval(1, 1), F(3), F(2), CFG34)

    @given(
        step_sets(),
        st.integers(0, 2),
        st.integers(0, 7),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    )
    @settings(max_examples=80)
    def test_holds_when_admissible_or_inactive(self, region, level, index, b, a):
        from haar_riesz import density

        interval = DyadicInterval(level, index % (1 << level))
        if a != 0 and density(region, interval) < CFG34.p:
            return  # outside the claimed regime
        assert per_interval_check(region, interval, b, a, CFG34)


def _random_instance(i):
    """Deterministic admissible induction instance #i (depth 5)."""
    biases = (0.55, 0.7, 0.8, 0.9)
    ps = (F(43, 64), F(7, 10), F(3, 4), F(13, 16), F(9, 10))
    region = random_stepset(6, biases[i % 4], derive_seed(0xABCDE, i))
    p = ps[i % 5]
    rng = SplitMix64(derive_seed(0xABCDE, 1000 + i))
    entries = []
    for interval in enumerate_family(5, region, p):
        numerator = rng.next_u64() % 7 - 3
        denominator = 1 + rng.next_u64() % 2
        entries.append((interval, F(numerator, denominator)))
    return region, p, CoefficientMap(entries)


class TestWeightedNormAndTelescope:
    @pytest.mark.parametrize("i", range(6))
    def test_weighted_norm_matches_oracle(self, i):
        region, p, coeffs = _random_instance(i)
        cfg = WeightConfig(p)
        for level in range(4):
            assert weighted_norm_sq(region, coeffs, level, cfg) == _weighted_norm_oracle(
                region, coeffs, level, cfg
            )

    @pytest.mark.parametrize("i", range(4))
    def test_telescoping_exact(self, i):
        region, p, coeffs = _random_instance(i)
        cfg = WeightConfig(p)
        report = telescope_check(region, coeffs, cfg, top_level=5)
        assert report.holds
        assert report.telescoping_exact

    @pytest.mark.parametrize("i", range(4))
    def test_each_level_computed_once(self, i, monkeypatch):
        # the report is the base, the one-step checks and the top norm, and
        # each of the 6 level norms is computed once
        region, p, coeffs = _random_instance(i)
        cfg = WeightConfig(p)
        expected_steps = tuple(
            induction_step_check(region, coeffs.restrict(n + 1), n, cfg)
            for n in range(5)
        )
        base, top = (weighted_norm_sq(region, coeffs, level, cfg) for level in (0, 5))
        levels = []
        level_norm = weights._level_norm

        def counted(level, *rest):
            levels.append(level)
            return level_norm(level, *rest)

        monkeypatch.setattr(weights, "_level_norm", counted)
        report = telescope_check(region, coeffs, cfg, top_level=5)
        assert levels == [0, 1, 2, 3, 4, 5]
        assert report.steps == expected_steps
        assert (report.base_lhs, report.weighted_total) == (base, top)

    def test_inadmissible_level_rejected(self):
        # the same error as the failing one-step check, raised by the step
        # whose new level holds the inadmissible coefficient
        bad = DyadicInterval(2, 2)  # density 2/3 < 3/4
        coeffs = CoefficientMap({DyadicInterval(1, 0): F(1), bad: F(1)})
        with pytest.raises(InputError) as err:
            telescope_check(TWO_THIRDS, coeffs, CFG34)
        with pytest.raises(InputError) as step_err:
            induction_step_check(TWO_THIRDS, coeffs, 1, CFG34)
        assert str(err.value) == str(step_err.value)
        assert str(bad) in str(err.value)
        with pytest.raises(InputError):
            telescope_check(TWO_THIRDS, coeffs, CFG34, top_level=1)

    def test_negative_top_level_rejected(self):
        root = CoefficientMap({DyadicInterval(0, 0): F(1)})
        for coeffs in (root, CoefficientMap()):
            for top in (-1, -7):
                with pytest.raises(InputError, match=f"top level must be >= 0, got {top}"):
                    telescope_check(TWO_THIRDS, coeffs, CFG34, top_level=top)
        # without coefficients the default top level is 0
        report = telescope_check(TWO_THIRDS, CoefficientMap(), CFG34)
        assert report.top_level == 0 and report.steps == ()
        assert report == telescope_check(TWO_THIRDS, CoefficientMap(), CFG34, top_level=0)

    @pytest.mark.parametrize("i", range(4))
    def test_final_unweighted_inequality(self, i):
        # dropping the weight costs at most the cap: ‖Σ‖² ≥ c(p)·Σ‖·‖²
        region, p, coeffs = _random_instance(i)
        cfg = WeightConfig(p)
        report = telescope_check(region, coeffs, cfg, top_level=5)
        total = norm_sq(combination(coeffs, region))
        assert mass_cap(cfg) * total >= report.weighted_total
        assert total >= riesz_constant(p) * report.norm_total


class TestVerifyGrid:
    def test_small_grid_clean(self):
        report = verify_grid(CFG34, 64)
        assert report.gpos_failures == ()
        assert report.gcomp_failures == ()
        assert report.cap == 16
        assert report.grid_step == F(1, 64)

    def test_grid_validation(self):
        with pytest.raises(InputError):
            verify_grid(CFG34, 0)


def _integer_failure(g1, g2, gm, all_a):
    return _split_failure(
        g1.numerator, g1.denominator,
        g2.numerator, g2.denominator,
        gm.numerator, gm.denominator,
        all_a,
    )


# curve values that reach the edge cases: g1 = g2 = 1 gives L = B = 0
EDGE_VALUES = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(4), F(6), F(16)]
curve_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.fractions(min_value=-4, max_value=20, max_denominator=60),
)


def _case(g1, g2, gm):
    """Which branch of the decision a triple exercises."""
    K = (g1 + g2) / 2 - gm
    L = (g1 + g2) / 2 - 1
    B = g2 - g1
    if K < 0:
        return "K<0"
    if L == 0 and B == 0:
        return "L=B=0"
    if L <= 0:
        return "L<=0"
    return "equal" if B * B == 4 * L * K else "L>0"


class TestIntegerSplitDecision:
    """The integer forms k, l, b against the Fraction formula for K, L, B."""

    @given(curve_values, curve_values, curve_values, st.booleans())
    @example(F(1), F(1), F(2), True)  # K < 0
    @example(F(1, 2), F(1, 2), F(0), True)  # L < 0, K > 0
    @example(F(1, 2), F(3, 2), F(0), True)  # L = 0, B ≠ 0
    @example(F(1), F(1), F(1), True)  # L = B = 0, K = 0
    @example(F(1), F(1), F(1, 2), True)  # L = B = 0, K > 0
    @example(F(4), F(16), F(6), True)  # B² = 4LK exactly (p = 3/4, q = 1/2, 1)
    @example(F(4), F(16), F(6), False)
    @settings(max_examples=400)
    def test_matches_fraction_formula(self, g1, g2, gm, all_a):
        assert _integer_failure(g1, g2, gm, all_a) == fraction_split_failure(
            g1, g2, gm, all_a
        )

    def test_every_case_covered_and_agrees(self):
        seen = set()
        for g1 in EDGE_VALUES:
            for g2 in EDGE_VALUES:
                for gm in EDGE_VALUES:
                    seen.add(_case(g1, g2, gm))
                    for all_a in (False, True):
                        assert _integer_failure(g1, g2, gm, all_a) == (
                            fraction_split_failure(g1, g2, gm, all_a)
                        )
        assert seen == {"K<0", "L=B=0", "L<=0", "equal", "L>0"}

    def test_sign_forms(self):
        # k carries the sign of K; the equality case stays an equality
        assert _integer_failure(F(1), F(1), F(1) + F(1, 10**30), False) == "a0"
        assert _integer_failure(F(1), F(1), F(1), False) is None
        assert _integer_failure(F(4), F(16), F(6), True) is None
        assert _integer_failure(F(4), F(16), F(6) + F(1, 10**30), True) == "all-a"


def _non_convex(real):
    """A curve with a bump at q = 1/2 and a dip at q = 1: both failure kinds."""

    def fake(q, cfg):
        q = F(q)
        return real(q, cfg) + (3 if q == F(1, 2) else 0) - (F(9, 2) if q == 1 else 0)

    return fake


class TestVerifyGridReference:
    @pytest.mark.parametrize("p", [F(171, 256), F(43, 64), F(3, 4), F(7, 8), F(1)])
    @pytest.mark.parametrize("grid", [1, 2, 3, 7, 16, 33])
    def test_matches_fraction_route(self, p, grid):
        cfg = WeightConfig(p)
        assert verify_grid(cfg, grid) == reference_verify_grid(cfg, grid)

    def test_matches_fraction_route_at_256(self):
        cfg = WeightConfig(F(171, 256))
        assert verify_grid(cfg, 256) == reference_verify_grid(cfg, 256)

    def test_non_convex_curve_failures(self, monkeypatch):
        fake = _non_convex(weights.weight_mass)
        monkeypatch.setattr(weights, "weight_mass", fake)
        monkeypatch.setattr(conftest, "weight_mass", fake)
        kinds = set()
        for p in (F(3, 4), F(7, 8)):
            cfg = WeightConfig(p)
            for grid in range(1, 13):
                report = verify_grid(cfg, grid)
                # same failures, in the same order, as the Fraction route
                assert report == reference_verify_grid(cfg, grid)
                kinds |= {kind for _, _, kind in report.gpos_failures}
                # the grid 2g holds every point and midpoint of the grid g
                finer = verify_grid(cfg, 2 * grid)
                assert set(report.gpos_failures) <= set(finer.gpos_failures)
                assert set(report.gcomp_failures) <= set(finer.gcomp_failures)
        assert kinds == {"a0", "all-a"}

    def test_split_inequality_uses_the_same_decision(self, monkeypatch):
        fake = _non_convex(weights.weight_mass)
        monkeypatch.setattr(weights, "weight_mass", fake)
        cfg = CFG34
        report = verify_grid(cfg, 8)
        failed = {(q1, q2) for q1, q2, _ in report.gpos_failures}
        for i in range(9):
            for j in range(9):
                q1, q2 = F(i, 8), F(j, 8)
                require_mid = (q1 + q2) / 2 >= cfg.p
                holds = check_split_inequality(q1, q2, cfg, require_mid=require_mid)
                assert holds == ((q1, q2) not in failed)


# ---------------------------------------------------------------------------
# the one-sweep integer route against the earlier Fraction routines


REFERENCE_P = [F(171, 256), F(43, 64), F(3, 4), F(7, 8), F(1)]
# TWO_THIRDS_SET and sets with dyadic and non-dyadic ends (denominators 3, 5, 7)
reference_sets = st.one_of(
    st.just(TWO_THIRDS_SET),
    step_sets(denominators=(3, 5, 7, 8, 12, 16, 64)),
)
coefficient_values = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def induction_instances(draw):
    """(region, cfg, coeffs, top): coefficients on levels ≤ top that are
    empty, all zero, a sparse draw of any intervals (admissible or not) or a
    sparse draw of admissible ones."""
    region = draw(reference_sets)
    p = draw(st.sampled_from(REFERENCE_P))
    top = draw(st.integers(0, 7))
    family = enumerate_family(top, region, p)
    kind = draw(st.sampled_from(["empty", "all-zero", "any", "admissible"]))
    if kind == "empty":
        entries = []
    elif kind == "all-zero":
        entries = [(interval, 0) for interval in family or [DyadicInterval(top, 0)]]
    elif kind == "any" or not family:
        entries = draw(
            st.lists(
                st.tuples(dyadic_intervals(max_level=top), coefficient_values),
                max_size=4,
            )
        )
    else:
        entries = draw(
            st.lists(st.tuples(st.sampled_from(family), coefficient_values), max_size=8)
        )
    return region, WeightConfig(p), CoefficientMap(entries), top


def _outcome(fn, *args):
    """The result, or the InputError's text: both routes must agree on either."""
    try:
        return fn(*args)
    except InputError as exc:
        return "InputError", str(exc)


class TestAgainstReferences:
    """Every result equals the earlier routine's (copied into conftest.py)."""

    def test_weight_mass_on_a_grid(self):
        for p in REFERENCE_P + [F(7, 10), F(13, 16), F(9, 10), F(2, 3) + F(1, 997)]:
            cfg = WeightConfig(p)
            for m in range(1, 25):
                for n in range(m + 1):
                    q = F(n, m)
                    assert weight_mass(q, cfg) == reference_weight_mass(q, cfg)

    @given(
        st.fractions(min_value=F(2, 3), max_value=1, max_denominator=997),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    )
    @example(F(3, 4), F(3, 4) - F(1, 10**6))  # just below p: linear branch
    @settings(max_examples=300)
    def test_weight_mass(self, p, q):
        if p <= F(2, 3):
            return
        cfg = WeightConfig(p)
        assert weight_mass(q, cfg) == reference_weight_mass(q, cfg)

    @given(induction_instances())
    @settings(max_examples=60)
    def test_telescope_check(self, instance):
        region, cfg, coeffs, top = instance
        for top_level in (top, None):
            assert _outcome(telescope_check, region, coeffs, cfg, top_level) == (
                _outcome(reference_telescope_check, region, coeffs, cfg, top_level)
            )

    @given(induction_instances())
    @settings(max_examples=40)
    def test_weighted_norm_and_steps(self, instance):
        region, cfg, coeffs, top = instance
        for level in range(top + 1):
            assert weighted_norm_sq(region, coeffs, level, cfg) == (
                reference_weighted_norm_sq(region, coeffs, level, cfg)
            )
        for n in range(top):
            assert _outcome(induction_step_check, region, coeffs, n, cfg) == (
                _outcome(reference_induction_step_check, region, coeffs, n, cfg)
            )

    @given(reference_sets, st.integers(0, 7), st.sampled_from(REFERENCE_P))
    @settings(max_examples=40)
    def test_weight_profile(self, region, n, p):
        cfg = WeightConfig(p)
        assert weight_profile(region, n, cfg) == reference_weight_profile(region, n, cfg)

    @pytest.mark.parametrize("i", range(6))
    def test_seeded_instances(self, i):
        region, p, coeffs = _random_instance(i)
        cfg = WeightConfig(p)
        assert telescope_check(region, coeffs, cfg, 5) == (
            reference_telescope_check(region, coeffs, cfg, 5)
        )
        for n in range(5):
            assert induction_step_check(region, coeffs.restrict(n + 1), n, cfg) == (
                reference_induction_step_check(region, coeffs.restrict(n + 1), n, cfg)
            )

    def test_zigzag_at_two_thirds_set(self):
        # coefficients 1, 1, 2, 4 on the zig-zag's even stages; none is
        # admissible past the root at p > 2/3, so both routes raise alike
        coeffs = zigzag_coefficients(3)
        for p in REFERENCE_P:
            cfg = WeightConfig(p)
            assert _outcome(telescope_check, TWO_THIRDS_SET, coeffs, cfg) == (
                _outcome(reference_telescope_check, TWO_THIRDS_SET, coeffs, cfg)
            )
            for level in range(7):
                assert weighted_norm_sq(TWO_THIRDS_SET, coeffs, level, cfg) == (
                    reference_weighted_norm_sq(TWO_THIRDS_SET, coeffs, level, cfg)
                )


class TestSweepParts:
    @given(reference_sets, st.integers(0, 7))
    @settings(max_examples=40)
    def test_cell_masses(self, region, deepest):
        # every node of the heap the weights read, one exact intersection each
        unit, counts = dyadic_counts(region, deepest)
        assert len(counts) == 2 << deepest and counts[0] == 0
        for level in range(deepest + 1):
            assert [F(c, unit) for c in weights._level(counts, level)] == [
                intersect_measure(region, DyadicInterval(level, index))
                for index in range(1 << level)
            ]
        # the unit is the least common denominator of the deepest cells' masses
        assert unit == lcm(
            *(
                intersect_measure(region, DyadicInterval(deepest, index)).denominator
                for index in range(1 << deepest)
            )
        )

    @given(conftest.coefficient_maps(max_level=4))
    @settings(max_examples=60)
    def test_level_values_are_the_partial_sums(self, coeffs):
        # the value on the left half is the parent's minus its coefficient
        scale, terms = weights._scaled_levels(coeffs, 4)
        for level, values in enumerate(weights._level_values(terms)):
            partial = combination(coeffs.restrict(level), FULL_SET)
            cells = 1 << (level + 1)
            assert [F(v, scale) for v in values] == [
                partial.value_at(F(j, cells)) for j in range(cells)
            ]

    def test_left_half_takes_minus(self):
        coeffs = CoefficientMap({DyadicInterval(0, 0): F(1, 2)})
        scale, terms = weights._scaled_levels(coeffs, 1)
        assert scale == 2
        assert list(weights._level_values(terms)) == [[-1, 1], [-1, -1, 1, 1]]

    def test_curve_evaluated_once_per_distinct_mass(self, monkeypatch):
        region = StepSet(((0, F(1, 3)), (F(1, 2), 1)))
        coeffs = CoefficientMap({DyadicInterval(0, 0): F(1), DyadicInterval(1, 1): F(2)})
        calls = []
        real = weights.weight_mass

        def counted(q, cfg):
            calls.append(q)
            return real(q, cfg)

        monkeypatch.setattr(weights, "weight_mass", counted)
        weighted_norm_sq(region, coeffs, 3, CFG34)
        # the level-4 cells of [0, 1/3) ∪ [1/2, 1) have densities 1 (thirteen
        # cells), 1/3 (one) and 0 (two, skipped)
        assert sorted(calls) == [F(1, 3), F(1)]


class _Reached(Exception):
    pass


def _fail_if_reached(*args, **kwargs):
    raise _Reached


class TestGridCap:
    def test_cap_checked_before_the_sweep(self, monkeypatch):
        monkeypatch.setattr(weights, "weight_mass", _fail_if_reached)
        with pytest.raises(InputError):
            verify_grid(CFG34, MAX_GRID + 1)
        with pytest.raises(InputError):
            verify_grid(CFG34, 10**12)
        with pytest.raises(_Reached):  # the cap itself is accepted
            verify_grid(CFG34, MAX_GRID)


class TestLevelCap:
    """Levels past MAX_LEVEL are refused before any cell is swept."""

    @pytest.fixture
    def unreachable(self, monkeypatch):
        for name in ("weight_mass", "dyadic_counts", "_step_rhs", "weighted_norm_sq"):
            monkeypatch.setattr(weights, name, _fail_if_reached)

    def test_weight_profile(self, unreachable):
        for n in (MAX_LEVEL + 1, 10**9):
            with pytest.raises(InputError):
                weight_profile(TWO_THIRDS, n, CFG34)
        with pytest.raises(_Reached):  # the cap itself is accepted
            weight_profile(TWO_THIRDS, MAX_LEVEL, CFG34)

    def test_weighted_norm_sq(self, monkeypatch):
        monkeypatch.setattr(weights, "dyadic_counts", _fail_if_reached)
        coeffs = CoefficientMap({DyadicInterval(0, 0): F(1)})
        for level in (MAX_LEVEL + 1, 10**9):
            with pytest.raises(InputError):
                weighted_norm_sq(TWO_THIRDS, coeffs, level, CFG34)
        with pytest.raises(_Reached):
            weighted_norm_sq(TWO_THIRDS, coeffs, MAX_LEVEL, CFG34)

    def test_induction_step_check(self, unreachable):
        coeffs = CoefficientMap({DyadicInterval(0, 0): F(1)})
        for n in (MAX_LEVEL, 10**9):  # step n reaches level n + 1
            with pytest.raises(InputError):
                induction_step_check(TWO_THIRDS, coeffs, n, CFG34)
        with pytest.raises(_Reached):
            induction_step_check(TWO_THIRDS, coeffs, MAX_LEVEL - 1, CFG34)

    def test_telescope_check(self, unreachable):
        root = CoefficientMap({DyadicInterval(0, 0): F(1)})
        deep = CoefficientMap({DyadicInterval(MAX_LEVEL + 1, 0): F(1)})
        with pytest.raises(InputError):
            telescope_check(TWO_THIRDS, root, CFG34, top_level=MAX_LEVEL + 1)
        with pytest.raises(InputError):
            telescope_check(TWO_THIRDS, deep, CFG34)  # top level from the coefficients
        with pytest.raises(_Reached):
            telescope_check(TWO_THIRDS, root, CFG34, top_level=MAX_LEVEL)
