"""Closed-form constants: the certified lower Riesz constant, its asymptotics,
the conjectured sharp constant, and the two-coloring (BCMS) comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import InputError

_TWO_THIRDS = Fraction(2, 3)


def riesz_constant(p: Fraction) -> Fraction:
    """The certified lower constant c(p) = (3p−2)² / ((3p−2)² + p(2−p)), exact.

    Equals 1/weight_mass(1): the reciprocal of the weight cap that the
    induction proof pays when dropping the final weight.
    """
    p = Fraction(p)
    if p > 1:
        raise InputError(
            f"a density threshold cannot exceed 1 (got p = {p}); "
            "c(p) is defined for 2/3 < p <= 1"
        )
    if p <= _TWO_THIRDS:
        raise InputError(
            f"no positive lower Riesz constant exists for p <= 2/3 (got p = {p}); "
            "the zig-zag family drives the ratio to zero there"
        )
    s = 3 * p - 2
    return s * s / (s * s + p * (2 - p))


def asymptotic_constant(p: float) -> float:
    """Leading behaviour of the certified constant near the 2/3 threshold:
    (81/8)·(p − 2/3)²."""
    return 10.125 * (p - 2.0 / 3.0) ** 2


def conjectured_sharp_constant(p: float) -> float:
    """Leading term of the conjectured best-possible constant: 27·(p − 2/3)²."""
    return 27.0 * (p - 2.0 / 3.0) ** 2


def bcms_constant(c_bessel: float) -> float:
    """Two-coloring lower constant C/2 − √(2(C−1)(2−C)) for a Bessel bound C.

    Defined for 1 ≤ C < 4/3 (the hypothesis "C < 4/3" of the quantitative
    two-coloring theorem; below 1 the radicand goes negative).
    """
    c_bessel = float(c_bessel)
    if not 1.0 <= c_bessel < 4.0 / 3.0:
        raise InputError(
            f"two-coloring constant needs 1 <= C < 4/3, got C = {c_bessel}"
        )
    return c_bessel / 2.0 - math.sqrt(2.0 * (c_bessel - 1.0) * (2.0 - c_bessel))


@dataclass(frozen=True)
class ConstantsReport:
    """All constants at one threshold p; bcms is present only for p > 3/4,
    where the Bessel bound 1/p meets the two-coloring hypothesis."""

    p: Fraction
    c: Fraction
    cap: Fraction  # C = 1/c exactly
    asymptotic: float
    sharp_conjectured: float
    bcms: Optional[float]


def make_report(p: Fraction) -> ConstantsReport:
    p = Fraction(p)
    c = riesz_constant(p)
    bcms = None
    if p > Fraction(3, 4):
        bcms = bcms_constant(float(Fraction(1) / p))
    return ConstantsReport(
        p=p,
        c=c,
        cap=Fraction(1) / c,
        asymptotic=asymptotic_constant(float(p)),
        sharp_conjectured=conjectured_sharp_constant(float(p)),
        bcms=bcms,
    )


def comparison_table(p_values: Sequence[Fraction]) -> List[ConstantsReport]:
    """One report per threshold, sorted by p ascending."""
    return [make_report(p) for p in sorted(Fraction(p) for p in p_values)]
