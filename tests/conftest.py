"""Shared hypothesis strategies and small exact helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import hypothesis.strategies as st
from hypothesis import settings

from haar_riesz import CoefficientMap, DyadicInterval, StepSet
from haar_riesz.errors import InputError
from haar_riesz.haar import PiecewiseConstant, haar_function
from haar_riesz.weights import GridReport, WeightConfig, mass_cap, weight_mass

# Exact arithmetic makes example times vary with the drawn sizes, and the
# machines running the suite differ in speed, so no test has a deadline.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@st.composite
def step_sets(draw, max_intervals: int = 4, denominators=(3, 5, 8, 12, 16, 64)):
    """Step sets with endpoints on a small rational grid (possibly empty)."""
    den = draw(st.sampled_from(denominators))
    count = draw(st.integers(0, min(max_intervals, (den + 1) // 2)))
    points = draw(
        st.lists(
            st.integers(0, den), min_size=2 * count, max_size=2 * count, unique=True
        )
    )
    points.sort()
    pairs = [
        (Fraction(points[2 * i], den), Fraction(points[2 * i + 1], den))
        for i in range(count)
    ]
    return StepSet(tuple(pairs))


@st.composite
def dyadic_intervals(draw, max_level: int = 6):
    level = draw(st.integers(0, max_level))
    index = draw(st.integers(0, (1 << level) - 1))
    return DyadicInterval(level, index)


@st.composite
def coefficient_maps(draw, max_level: int = 4, max_terms: int = 6):
    terms = draw(
        st.lists(
            st.tuples(
                dyadic_intervals(max_level=max_level),
                st.fractions(
                    min_value=Fraction(-4),
                    max_value=Fraction(4),
                    max_denominator=4,
                ),
            ),
            max_size=max_terms,
        )
    )
    return CoefficientMap(terms)


def clip_stepset(region: StepSet, left: Fraction, right: Fraction) -> StepSet:
    """region ∩ [left, right) as a step set (test-side helper)."""
    pieces = []
    for a, b in region.intervals:
        lo, hi = max(a, left), min(b, right)
        if lo < hi:
            pieces.append((lo, hi))
    return StepSet(tuple(pieces))


def leibniz_det(rows) -> Fraction:
    """Exact determinant by the Leibniz permutation sum (test-side helper)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = prod((Fraction(rows[i][perm[i]]) for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def psd_by_principal_minors(rows) -> bool:
    """Exact PSD oracle sharing no code with the library's LDLᵀ.

    A symmetric matrix is positive semidefinite iff every principal minor
    (not only the leading ones) is ≥ 0.  The minors come from
    :func:`leibniz_det`, so the cost grows as 2ⁿ·n!; meant for n ≤ 6.
    """
    n = len(rows)
    if n > 6:
        raise ValueError(f"principal-minor oracle is meant for n <= 6, got {n}")
    return all(
        leibniz_det([[rows[i][j] for j in subset] for i in subset]) >= 0
        for k in range(1, n + 1)
        for subset in combinations(range(n), k)
    )


def dense_exact_psd(rows) -> bool:
    """Reference exact PSD decision: dense LDLᵀ with largest-diagonal pivoting.

    This is the library's earlier dense routine, kept here unchanged as a
    differential reference for the library's sparse LDLᵀ.  The two share
    neither the store (a full dense matrix here, only the entries left of the
    diagonal there) nor the pivot order (largest remaining diagonal here,
    reverse index order there), so agreement on every matrix, permuted or
    not, checks that the verdict does not depend on either.

    Diagonal-pivoted LDLᵀ: repeatedly pivot on the largest-magnitude remaining
    diagonal entry.  A negative diagonal is an immediate witness of
    indefiniteness.  Once every remaining diagonal is zero, the matrix is PSD
    iff the remaining block vanishes: a surviving off-diagonal entry m sits in
    a 2×2 block [[0, m], [m, 0]] of determinant −m² < 0.
    """
    matrix = [list(row) for row in rows]
    active = list(range(len(matrix)))
    while active:
        pivot = max(active, key=lambda i: abs(matrix[i][i]))
        d = matrix[pivot][pivot]
        if d < 0:
            return False
        if d == 0:
            return not any(
                matrix[i][j] for i in active for j in active if i != j
            )
        active.remove(pivot)
        column = [(i, matrix[i][pivot]) for i in active if matrix[i][pivot]]
        for i, ci in column:
            row_i = matrix[i]
            ratio = ci / d
            for j, cj in column:
                row_i[j] -= ratio * cj
    return True


def reference_combination(coeffs: CoefficientMap, region: StepSet) -> PiecewiseConstant:
    """Reference Σ a_I · h_I · 1_E: one step-function sum per term.

    The library's earlier route, kept here unchanged as a differential
    reference for the one-sweep jump construction.
    """
    total = PiecewiseConstant.zero()
    for interval, a in coeffs.items():
        total = total + haar_function(interval) * a
    return total.restrict(region)


def fraction_split_failure(g1: Fraction, g2: Fraction, gm: Fraction, all_a: bool):
    """Reference split decision on curve values in Fraction arithmetic.

    K = (g1+g2)/2 − gm decides a = 0; with ``all_a`` the quadratic
    L·a² + B·a + K must be ≥ 0 for every real a.  Same return convention as
    the library's integer helper: "a0", "all-a" or None.
    """
    K = (g1 + g2) / 2 - gm
    if K < 0:
        return "a0"
    if not all_a:
        return None
    L = (g1 + g2) / 2 - 1
    B = g2 - g1
    ok = B * B <= 4 * L * K if L > 0 else (L == 0 and B == 0)
    return None if ok else "all-a"


def reference_verify_grid(cfg: WeightConfig, grid: int = 256) -> GridReport:
    """Exact verification of the split inequality and the mass bounds on the
    grid {k/grid : 0 ≤ k ≤ grid}.

    The library's earlier Fraction route, kept here unchanged as a
    differential reference for the integer-form grid decisions.

    Ordered pairs with midpoint ≥ p get the full all-a discriminant decision;
    all pairs get the a = 0 midpoint-convexity check; every grid point gets
    both mass bounds.  Failures are returned, not raised.
    """
    if grid < 1:
        raise InputError(f"grid must be >= 1, got {grid}")
    # precompute the curve on the half grid so midpoints stay on it
    half = [weight_mass(Fraction(k, 2 * grid), cfg) for k in range(2 * grid + 1)]
    cap = mass_cap(cfg)
    two_p = 2 * cfg.p
    gpos_failures = []
    for i in range(grid + 1):
        g1 = half[2 * i]
        for j in range(grid + 1):
            g2 = half[2 * j]
            gm = half[i + j]
            K = (g1 + g2) / 2 - gm
            if K < 0:
                gpos_failures.append((Fraction(i, grid), Fraction(j, grid), "a0"))
                continue
            if Fraction(i + j, grid) >= two_p:
                L = (g1 + g2) / 2 - 1
                B = g2 - g1
                ok = B * B <= 4 * L * K if L > 0 else (L == 0 and B == 0)
                if not ok:
                    gpos_failures.append(
                        (Fraction(i, grid), Fraction(j, grid), "all-a")
                    )
    gcomp_failures = []
    for k in range(grid + 1):
        q = Fraction(k, grid)
        g = half[2 * k]
        if not (q <= g and g <= cap * q):
            gcomp_failures.append(q)
    return GridReport(
        cfg.p, Fraction(1, grid), tuple(gpos_failures), tuple(gcomp_failures), cap
    )
