"""Shared hypothesis strategies and small exact helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import hypothesis.strategies as st

from haar_riesz import CoefficientMap, DyadicInterval, StepSet


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
    differential reference for the sparse elimination-order LDLᵀ.

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
