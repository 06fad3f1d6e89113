"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; exact criteria use rational equality with no
tolerance at all.
"""

import math
import time
from fractions import Fraction as F

import pytest

from haar_riesz import (
    CoefficientMap,
    SearchConfig,
    StepSet,
    WeightConfig,
    asymptotic_constant,
    bcms_constant,
    build_gram,
    comparison_table,
    counterexample_table,
    derive_seed,
    eig_bounds,
    enumerate_family,
    induction_step_check,
    mass_cap,
    perturbation_demo,
    psd_certificate,
    random_stepset,
    riesz_constant,
    search_extremal,
    telescope_check,
    verify_grid,
    weight_mass,
    weight_mass_unclipped,
    weight_profile,
)
from conftest import ldlt_psd
from haar_riesz.search import SplitMix64


def _report(number: int, ok: bool, detail: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# shared corpus for criteria 2 and 3 (their runtime budget is joint)

CORPUS_SEED = 0xC0FFEE
CORPUS_BIASES = (0.3, 0.45, 0.6, 0.7, 0.8)
CORPUS_THRESHOLDS = (F(43, 64), F(3, 4), F(9, 10))


@pytest.fixture(scope="module")
def certificate_corpus():
    """50 seeded step sets at resolution 8 with their depth-6 certificates."""
    start = time.perf_counter()
    sets = [
        random_stepset(8, CORPUS_BIASES[i % len(CORPUS_BIASES)], derive_seed(CORPUS_SEED, i))
        for i in range(50)
    ]
    riesz_ok, bessel_ok, lmax_ok = [], [], []
    for p in CORPUS_THRESHOLDS:
        c = riesz_constant(p)
        for region in sets:
            family = enumerate_family(6, region, p)
            gram = build_gram(family, region)
            riesz_ok.append(psd_certificate(gram, c, gram.diagonal))
            # upper bound: (1/p)·D − G ⪰ 0, exact
            rows = [[-x for x in gram.entries[i]] for i in range(gram.size)]
            for i in range(gram.size):
                rows[i][i] += gram.entries[i][i] / p
            bessel_ok.append(ldlt_psd(rows))
            if family:
                pencil = build_gram(family, region, normalized=True)
                _, high = eig_bounds(pencil)
                lmax_ok.append(high <= float(1 / p) + 1e-8)
            else:
                lmax_ok.append(True)
    elapsed = time.perf_counter() - start
    return {
        "riesz_ok": riesz_ok,
        "bessel_ok": bessel_ok,
        "lmax_ok": lmax_ok,
        "elapsed": elapsed,
        "cases": len(riesz_ok),
    }


def test_criterion_1_counterexample_exactness():
    start = time.perf_counter()
    rows = counterexample_table(12)
    ok = all(
        row.sum_of_norms == F(2, 3) + F(row.n, 6) and row.norm_of_sum == F(2, 3)
        for row in rows
    )
    ok = ok and rows[12].ratio == F(1, 4)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"zig-zag table n=0..12 matches 2/3 + n/6 and 2/3 exactly, "
        f"ratio(12) = 1/4, in {elapsed:.3f}s",
    )


def test_criterion_2_lower_bound_certificates(certificate_corpus):
    data = certificate_corpus
    exact_constant = riesz_constant(F(3, 4)) == F(1, 16)
    ok = (
        all(data["riesz_ok"])
        and exact_constant
        and data["cases"] == 150
        and data["elapsed"] < 60.0
    )
    _report(
        2,
        ok,
        f"exact PSD certificate at c(p) true in {sum(data['riesz_ok'])}/150 cases, "
        f"c(3/4) = 1/16 exactly, corpus built+certified in {data['elapsed']:.1f}s",
    )


def test_criterion_3_bessel_certificates(certificate_corpus):
    data = certificate_corpus
    ok = (
        all(data["bessel_ok"])
        and all(data["lmax_ok"])
        and data["elapsed"] < 60.0
    )
    _report(
        3,
        ok,
        f"exact (1/p)·D − G ⪰ 0 in {sum(data['bessel_ok'])}/150 cases and "
        f"λ_max ≤ 1/p + 1e-8 in {sum(data['lmax_ok'])}/150 (shared budget "
        f"{data['elapsed']:.1f}s < 60s)",
    )


def test_criterion_4_weight_curve_grid():
    start = time.perf_counter()
    ok = True
    details = []
    for p in (F(171, 256), F(3, 4), F(7, 8)):
        cfg = WeightConfig(p)
        report = verify_grid(cfg, 256)
        branch = weight_mass(2 * p - 1, cfg) == weight_mass_unclipped(2 * p - 1, cfg)
        clean = not report.gpos_failures and not report.gcomp_failures
        ok = ok and clean and branch and report.cap == mass_cap(cfg)
        details.append(f"p={p}: grid clean={clean}, branch equality={branch}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def _induction_instance(i):
    biases = (0.55, 0.7, 0.8, 0.9)
    thresholds = (F(43, 64), F(7, 10), F(3, 4), F(13, 16), F(9, 10))
    region = random_stepset(6, biases[i % len(biases)], derive_seed(0xABCDE, i))
    p = thresholds[i % len(thresholds)]
    rng = SplitMix64(derive_seed(0xABCDE, 1000 + i))
    entries = []
    for interval in enumerate_family(5, region, p):
        numerator = rng.next_u64() % 7 - 3
        denominator = 1 + rng.next_u64() % 2
        entries.append((interval, F(numerator, denominator)))
    return region, p, CoefficientMap(entries)


def test_criterion_5_induction_telescoping():
    start = time.perf_counter()
    ok = True
    steps_checked = 0
    for i in range(20):
        region, p, coeffs = _induction_instance(i)
        cfg = WeightConfig(p)
        for n in range(5):
            result = induction_step_check(region, coeffs.restrict(n + 1), n, cfg)
            ok = ok and result.holds
            steps_checked += 1
            low, high = weight_profile(region, n, cfg).value_range()
            ok = ok and 1 <= low and high <= mass_cap(cfg)
        report = telescope_check(region, coeffs, cfg, top_level=5)
        ok = ok and report.holds and report.telescoping_exact
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        5,
        ok,
        f"20 seeded instances, {steps_checked} induction steps hold exactly, "
        f"weights in [1, C], telescoping reproduces the weighted inequality "
        f"exactly, in {elapsed:.1f}s",
    )


def test_criterion_6_asymptotics():
    deviations = []
    for k in (2, 3, 4):
        p = F(2, 3) + F(1, 10**k)
        ratio = float(riesz_constant(p)) / asymptotic_constant(float(p))
        deviations.append(abs(ratio - 1.0))
    ok = deviations[2] <= 0.05
    ok = ok and deviations[0] - deviations[1] > 1e-12
    ok = ok and deviations[1] - deviations[2] > 1e-12
    _report(
        6,
        ok,
        "c(p)/((81/8)(p−2/3)²) deviations at k=2,3,4: "
        + ", ".join(f"{d:.2e}" for d in deviations)
        + " (within 5% at k=4, strictly decreasing)",
    )


def test_criterion_7_bcms_comparison():
    ok = abs(bcms_constant(1.0) - 0.5) <= 1e-12
    rows = comparison_table([F(7, 10), F(29, 40), F(3, 4), F(4, 5)])
    by_p = {row.p: row for row in rows}
    ok = ok and by_p[F(3, 4)].bcms is None
    populated = by_p[F(4, 5)].bcms
    ok = ok and populated is not None
    ok = ok and abs(populated - (0.625 - math.sqrt(0.375))) <= 1e-12
    # positive certified constant on (2/3, 3/4] where the two-coloring bound is silent
    silent = [row for row in rows if row.p <= F(3, 4)]
    ok = ok and all(row.c > 0 and row.bcms is None for row in silent)
    _report(
        7,
        ok,
        f"bcms(1) = 0.5, blank at p=3/4, populated at p=4/5 = 0.625−√0.375, "
        f"{len(silent)} rows in (2/3, 3/4] have c > 0 with blank bcms",
    )


def test_criterion_8_perturbation_demo():
    ok = True
    for n in (2, 3, 10):
        demo = perturbation_demo(n)
        ok = ok and demo.norm_of_sum_sq == 0
        ok = ok and demo.sum_norm_sq == n - 1
        ok = ok and demo.per_vector_perturbation == F(1, n)
        low, high = eig_bounds(demo.gram)
        ok = ok and abs(low - 0.0) <= 1e-10 and abs(high - 1.0) <= 1e-10
    _report(
        8,
        ok,
        "n=2,3,10: ‖Σu'‖² = 0, Σ‖u'‖² = n−1, ‖u−u'‖² = 1/n exactly; "
        "Gram spectrum (0, 1) within 1e-10",
    )


def test_criterion_9_search_floor_and_determinism():
    cfg = SearchConfig(
        p=F(43, 64), depth=6, cell_resolution=8, iterations=200, seed=0x5EA7C4
    )
    start = time.perf_counter()
    first = search_extremal(cfg)
    elapsed_first = time.perf_counter() - start
    start = time.perf_counter()
    second = search_extremal(cfg)
    elapsed_second = time.perf_counter() - start

    ok = elapsed_first < 120.0 and elapsed_second < 120.0
    ok = ok and first == second  # bit-determinism, exact fields included
    floor = float(riesz_constant(cfg.p)) - 1e-8
    ok = ok and all(ratio >= floor for _, ratio in first.history)
    # monotone bracketing of the exact certificate
    family = enumerate_family(cfg.depth, first.best_set, cfg.p)
    gram = build_gram(family, first.best_set)
    width = F(1, 1 << 20)
    ok = ok and psd_certificate(gram, first.certificate_lower, gram.diagonal)
    ok = ok and not psd_certificate(
        gram, first.certificate_lower + width, gram.diagonal
    )
    _report(
        9,
        ok,
        f"200-iteration search twice ({elapsed_first:.1f}s, {elapsed_second:.1f}s), "
        f"bit-identical, all ratios ≥ c(43/64) − 1e-8, certificate bracket "
        f"[{first.certificate_lower}, +2⁻²⁰) exact",
    )
