"""The zig-zag family on E = [0, 2/3) that kills the lower bound at threshold 2/3.

Starting from [0,1), alternately take the right half and then the left half.
Every even-stage interval meets E in exactly 2/3 of its length, so the family
of even stages is admissible at p = 2/3 — yet with coefficients 1, 1, 2, 4, …
the combined norm stays at 2/3 while the sum of individual norms grows
linearly.  The ratio 4/(4+n) → 0 shows no positive lower constant survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .errors import ConsistencyError, InputError
from .haar import (
    CoefficientMap,
    PiecewiseConstant,
    combination,
    halves,
    norm_sq,
    restricted_norm_sq,
)
from .measure import DyadicInterval, StepSet, density

TWO_THIRDS_SET = StepSet(((Fraction(0), Fraction(2, 3)),))


@dataclass(frozen=True)
class ZigzagState:
    stage: int
    interval: DyadicInterval
    coefficient: Optional[Fraction]  # defined on even stages only


def zigzag(stage: int) -> ZigzagState:
    """Stage-n interval of the zig-zag descent, plus its coefficient when even."""
    if stage < 0:
        raise InputError(f"stage must be >= 0, got {stage}")
    interval = DyadicInterval(0, 0)
    for s in range(1, stage + 1):
        lh, rh = halves(interval)
        interval = rh if s % 2 == 1 else lh
    coefficient = None
    if stage % 2 == 0:
        m = stage // 2
        coefficient = Fraction(1) if m == 0 else Fraction(2 ** (m - 1))
    return ZigzagState(stage, interval, coefficient)


def zigzag_coefficients(n: int) -> CoefficientMap:
    """Coefficients on the even stages 0, 2, …, 2n."""
    states = [zigzag(2 * k) for k in range(n + 1)]
    return CoefficientMap((s.interval, s.coefficient) for s in states)


def check_zigzag_densities(n: int) -> bool:
    """Exact density pattern up to stage 2n+1: length 2^-stage, with E-density
    2/3 on even stages and 1/3 on odd stages."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    for stage in range(2 * n + 2):
        state = zigzag(stage)
        if state.interval.measure != Fraction(1, 2**stage):
            return False
        want = Fraction(2, 3) if stage % 2 == 0 else Fraction(1, 3)
        if density(TWO_THIRDS_SET, state.interval) != want:
            return False
    return True


class CounterexampleRow(NamedTuple):
    n: int
    sum_of_norms: Fraction
    norm_of_sum: Fraction
    ratio: Fraction


MAX_TABLE_N = 200  # row n integrates a step function down to level 2n: 11.6 s at the cap


def counterexample_table(N: int) -> List[CounterexampleRow]:
    """Exact Riesz-ratio table of the zig-zag family for n = 0..N.

    Both columns are computed from the generic Haar machinery — the norm of
    the sum by integrating the actual step function — never from the closed
    forms 2/3 + n/6 and 2/3, which tests assert against independently.
    """
    if N < 0:
        raise InputError(f"need N >= 0, got {N}")
    if N > MAX_TABLE_N:
        raise InputError(f"need N <= {MAX_TABLE_N}, got {N}")
    rows = []
    running = Fraction(0)
    coeffs: dict[DyadicInterval, Fraction] = {}
    for n in range(N + 1):
        state = zigzag(2 * n)
        coeffs[state.interval] = state.coefficient
        running += state.coefficient**2 * restricted_norm_sq(
            state.interval, TWO_THIRDS_SET
        )
        total = norm_sq(combination(CoefficientMap(coeffs), TWO_THIRDS_SET))
        rows.append(CounterexampleRow(n, running, total, total / running))
    return rows


def partial_sum_structure(n: int) -> PiecewiseConstant:
    """The partial sum Σ_{k ≤ n} a_{2k} h_{I_{2k}} 1_E, computed generically and
    cross-checked against its closed form: −1 left of 1/2, 2ⁿ on the surviving
    sliver rh(I_{2n}) ∩ E, 0 elsewhere."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    actual = combination(zigzag_coefficients(n), TWO_THIRDS_SET)
    _, sliver = halves(zigzag(2 * n).interval)
    right = min(sliver.right, Fraction(2, 3))
    if sliver.left >= right:
        raise ConsistencyError(f"empty sliver at stage {2 * n}")
    expected = PiecewiseConstant.from_segments(
        [
            (Fraction(0), Fraction(1, 2), Fraction(-1)),
            (sliver.left, right, Fraction(2**n)),
        ]
    )
    if actual != expected:
        raise ConsistencyError(
            f"zig-zag partial sum at n={n} does not match its closed form"
        )
    return actual
