"""The zig-zag family on E = [0, 2/3) that kills the lower bound at threshold 2/3.

Starting from [0,1), alternately take the right half and then the left half.
Every even-stage interval meets E in exactly 2/3 of its length, so the family
of even stages is admissible at p = 2/3 — yet with coefficients 1, 1, 2, 4, …
the combined norm stays at 2/3 while the sum of individual norms grows
linearly.  The ratio 4/(4+n) → 0 shows no positive lower constant survives.

Every function here takes its stages from one walk down the descent
(:func:`_descent`), one halving per stage.  The table is one pass over its rows (:func:`_rows`) that
yields each row with the step function its norm was integrated from, so the
CLI checks the closed forms and the partial-sum structure
(:func:`_check_partial_sum`) on the functions the table built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, NamedTuple, Optional, Tuple

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


def _descent(stages: int) -> Iterator[ZigzagState]:
    """Stages 0, …, stages − 1 of the descent, each one halving of the last:
    right half after an even stage, left half after an odd one."""
    interval = DyadicInterval(0, 0)
    for stage in range(stages):
        if stage:
            lh, rh = halves(interval)
            interval = rh if stage % 2 == 1 else lh
        coefficient = None if stage % 2 else Fraction(2 ** max(stage // 2 - 1, 0))
        yield ZigzagState(stage, interval, coefficient)


def zigzag(stage: int) -> ZigzagState:
    """Stage-n interval of the zig-zag descent, plus its coefficient when even."""
    if stage < 0:
        raise InputError(f"stage must be >= 0, got {stage}")
    *_, state = _descent(stage + 1)
    return state


def zigzag_coefficients(n: int) -> CoefficientMap:
    """Coefficients on the even stages 0, 2, …, 2n."""
    even = islice(_descent(2 * n + 1), 0, None, 2)
    return CoefficientMap((s.interval, s.coefficient) for s in even)


def check_zigzag_densities(n: int) -> bool:
    """Exact density pattern up to stage 2n+1: length 2^-stage, with E-density
    2/3 on even stages and 1/3 on odd stages."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    for state in _descent(2 * n + 2):
        if state.interval.measure != Fraction(1, 2**state.stage):
            return False
        want = Fraction(2, 3) if state.stage % 2 == 0 else Fraction(1, 3)
        if density(TWO_THIRDS_SET, state.interval) != want:
            return False
    return True


class CounterexampleRow(NamedTuple):
    n: int
    sum_of_norms: Fraction
    norm_of_sum: Fraction
    ratio: Fraction


# row n integrates a step function down to level 2n.  At the cap the table
# and the CLI, which also checks each row's function, take 0.5-0.9 s each
# in process (Python 3.11, a shared 2-core machine)
MAX_TABLE_N = 200


def _rows(N: int) -> Iterator[Tuple[CounterexampleRow, PiecewiseConstant]]:
    """Rows n = 0..N of the table, each with the partial sum Σ_{k ≤ n}
    a_{2k} h_{I_{2k}} 1_E whose norm it holds; N is checked before the walk."""
    if N < 0:
        raise InputError(f"need N >= 0, got {N}")
    if N > MAX_TABLE_N:
        raise InputError(f"need N <= {MAX_TABLE_N}, got {N}")
    running = Fraction(0)
    coeffs: dict[DyadicInterval, Fraction] = {}
    for state in islice(_descent(2 * N + 1), 0, None, 2):
        coeffs[state.interval] = state.coefficient
        running += state.coefficient**2 * restricted_norm_sq(state.interval, TWO_THIRDS_SET)
        partial = combination(CoefficientMap(coeffs), TWO_THIRDS_SET)
        total = norm_sq(partial)
        yield CounterexampleRow(state.stage // 2, running, total, total / running), partial


def counterexample_table(N: int) -> List[CounterexampleRow]:
    """Exact Riesz-ratio table of the zig-zag family for n = 0..N.

    Both columns are computed from the generic Haar machinery — the norm of
    the sum by integrating the actual step function — never from the closed
    forms 2/3 + n/6 and 2/3, which tests assert against independently.
    """
    return [row for row, _ in _rows(N)]


def _check_partial_sum(n: int, actual: PiecewiseConstant):
    """Raise unless the stage-2n partial sum is its closed form: −1 on
    [0, 1/2) and 2ⁿ on the sliver rh(I_{2n}) ∩ E = [2/3 − 4⁻ⁿ/6, 2/3)."""
    sliver = Fraction(2, 3) - Fraction(1, 6 * 4**n)
    expected = PiecewiseConstant.from_segments(
        [(Fraction(0), Fraction(1, 2), Fraction(-1)), (sliver, Fraction(2, 3), Fraction(2**n))]
    )
    if actual != expected:
        raise ConsistencyError(f"zig-zag partial sum at n={n} does not match its closed form")


def partial_sum_structure(n: int) -> PiecewiseConstant:
    """The partial sum Σ_{k ≤ n} a_{2k} h_{I_{2k}} 1_E, computed generically and
    cross-checked against its closed form (:func:`_check_partial_sum`)."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    actual = combination(zigzag_coefficients(n), TWO_THIRDS_SET)
    _check_partial_sum(n, actual)
    return actual
