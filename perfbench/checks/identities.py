"""The paper's weight curve and the identities the ``identities`` workload
must reproduce, written from the closed forms.

For 2/3 < p ≤ 1 the weighted mass of a cell of density q is

    g(q) = 1 + p(2−p) / ((3p−2)(3p−2q))   for q ≥ p,
    g(q) = g(p)·q/p                        for q < p,

and the split inequality asks, for every real a,

    (1−a)²/2·g(q1) + (1+a)²/2·g(q2) − g((q1+q2)/2) ≥ a².
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def weight_curve(q: Fraction, p: Fraction) -> Fraction:
    if q < p:
        return weight_curve(p, p) * q / p
    return 1 + p * (2 - p) / ((3 * p - 2) * (3 * p - 2 * q))


def split_holds(q1: Fraction, q2: Fraction, p: Fraction) -> bool:
    """The split inequality at a = 0 always, and for every a when the midpoint is admissible.

    The left side minus a² is the quadratic f(a) = L·a² + B·a + K.  For L > 0
    its minimum is f(−B/2L) = K − B²/4L; for L = 0 it is bounded below only
    when B = 0; for L < 0 it is not bounded below.
    """
    g1, g2 = weight_curve(q1, p), weight_curve(q2, p)
    K = (g1 + g2) / 2 - weight_curve((q1 + q2) / 2, p)
    if K < 0:
        return False
    if (q1 + q2) / 2 < p:
        return True
    L = (g1 + g2) / 2 - 1
    B = g2 - g1
    if L > 0:
        return K - B * B / (4 * L) >= 0
    return L == 0 and B == 0


def mass_bounds_hold(q: Fraction, p: Fraction) -> bool:
    """q ≤ g(q) ≤ g(1)·q."""
    g = weight_curve(q, p)
    return q <= g <= weight_curve(Fraction(1), p) * q


def weighted_total(mask: np.ndarray, coeffs, top: int, p: Fraction) -> Fraction:
    """‖Σ_{level ≤ top} a_I h_I 1_E‖² in L²(w_top), summed cell by cell.

    ``coeffs`` maps (level, index) to a rational.  On each level-(top+1) cell
    the combination is a constant s and the weight is g(q)/q, so the cell
    contributes s²·g(q)·|cell|; g(0) = 0 settles the cells E misses.
    """
    cell_level = top + 1
    cells = mask.size
    width = cells >> cell_level
    counts = mask.reshape(1 << cell_level, width).sum(axis=1).tolist()
    scale = math.lcm(*(a.denominator for a in coeffs.values()))
    values = np.zeros(1 << cell_level, dtype=object)
    for (level, index), a in coeffs.items():
        span = 1 << (cell_level - level)
        first = index * span
        whole = int(a * scale)
        values[first : first + span // 2] -= whole
        values[first + span // 2 : first + span] += whole
    measure = Fraction(1, (1 << cell_level) * scale * scale)
    return sum(
        (
            int(s) * int(s) * weight_curve(Fraction(count, width), p) * measure
            for s, count in zip(values.tolist(), counts)
            if s
        ),
        Fraction(0),
    )


def norm_total(mask: np.ndarray, coeffs) -> Fraction:
    """Σ a_I²·|I∩E| from cell counts."""
    cells = mask.size
    total = Fraction(0)
    for (level, index), a in coeffs.items():
        width = cells >> level
        total += a * a * Fraction(int(mask[index * width : (index + 1) * width].sum()), cells)
    return total


def zigzag_row(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(Σ‖a_k h_k 1_E‖², ‖Σ a_k h_k 1_E‖², ratio) of the zig-zag family: 2/3 + n/6, 2/3, 4/(4+n)."""
    return Fraction(2, 3) + Fraction(n, 6), Fraction(2, 3), Fraction(4, 4 + n)
