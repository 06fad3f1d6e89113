"""Exact step sets and dyadic intervals on the unit interval.

The set model is a canonical finite union of half-open intervals with
rational endpoints inside [0,1).  Every measure and density computed here is
an exact `Fraction`; nothing in this module rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

from .errors import InputError
from .rational import format_rational, parse_rational

RationalLike = Union[Fraction, int, str]


def _as_fraction(value: RationalLike) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


@dataclass(frozen=True, order=True, slots=True)
class DyadicInterval:
    """The interval [index/2^level, (index+1)/2^level) inside [0,1)."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise InputError(f"dyadic level must be >= 0, got {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise InputError(
                f"dyadic index {self.index} out of range [0, {1 << self.level}) at level {self.level}"
            )

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 1 << self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.index + 1, 1 << self.level)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    def contains(self, other: "DyadicInterval") -> bool:
        """Dyadic nesting test: other is a subinterval of self."""
        shift = other.level - self.level
        return shift >= 0 and (other.index >> shift) == self.index

    def __str__(self) -> str:
        return f"[{self.left}, {self.right})"


def _canonical_intervals(
    raw: Iterable[Sequence[RationalLike]],
) -> Tuple[Tuple[Fraction, Fraction], ...]:
    pairs = []
    for pair in raw:
        left, right = _as_fraction(pair[0]), _as_fraction(pair[1])
        if not (0 <= left < right <= 1):
            raise InputError(
                f"bad interval ({left}, {right}): need 0 <= left < right <= 1"
            )
        pairs.append((left, right))
    pairs.sort()
    merged: list[list[Fraction]] = []
    for left, right in pairs:
        if merged and left <= merged[-1][1]:
            if right > merged[-1][1]:
                merged[-1][1] = right
        else:
            merged.append([left, right])
    return tuple((left, right) for left, right in merged)


def cell_runs(cells: Sequence[bool]) -> list[Tuple[int, int]]:
    """Maximal runs of set flags as integer pairs (first, one past the last).

    At one scale, the list orders as the intervals of the set the cells make.
    """
    runs = []
    start = None
    for k, present in enumerate(cells):
        if present and start is None:
            start = k
        elif not present and start is not None:
            runs.append((start, k))
            start = None
    if start is not None:
        runs.append((start, len(cells)))
    return runs


# k/scale for each scale a step set was built at, filled as endpoints are
# first needed: at most scale + 1 entries per scale
_ENDPOINTS: dict[int, dict[int, Fraction]] = {}


@dataclass(frozen=True)
class StepSet:
    """Canonical finite union of half-open rational intervals inside [0,1).

    Construction eagerly canonicalizes: intervals are sorted, overlapping or
    touching inputs are merged, so equality of indicator functions is
    structural equality of the tuples.
    """

    intervals: Tuple[Tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", _canonical_intervals(self.intervals))

    @classmethod
    def from_cells(cls, cells: Sequence[bool]) -> "StepSet":
        """The union of the cells [k/m, (k+1)/m) whose flag is set, m = len(cells)."""
        return cls.from_runs(cell_runs(cells), len(cells))

    @classmethod
    def from_runs(cls, runs: Sequence[Tuple[int, int]], scale: int) -> "StepSet":
        """The union of [a/scale, b/scale) over the integer pairs (a, b).

        The endpoints come from a table shared by every set of this scale,
        so a set keeps one tuple per interval and no Fractions of its own.
        """
        table = _ENDPOINTS.setdefault(scale, {})
        for run in runs:
            for k in run:
                if k not in table:
                    if not 0 <= k <= scale:
                        raise InputError(f"endpoint {k}/{scale} lies outside [0, 1]")
                    table[k] = Fraction(k, scale)
        return cls(tuple((table[a], table[b]) for a, b in runs))

    @property
    def measure(self) -> Fraction:
        return sum((right - left for left, right in self.intervals), Fraction(0))

    def contains_point(self, x: RationalLike) -> bool:
        x = _as_fraction(x)
        return any(left <= x < right for left, right in self.intervals)

    def complement(self) -> "StepSet":
        """The normalized complement within [0,1)."""
        gaps = []
        cursor = Fraction(0)
        for left, right in self.intervals:
            if cursor < left:
                gaps.append((cursor, left))
            cursor = right
        if cursor < 1:
            gaps.append((cursor, Fraction(1)))
        return StepSet(tuple(gaps))

    def to_json_dict(self) -> dict:
        return {
            "intervals": [
                [format_rational(left), format_rational(right)]
                for left, right in self.intervals
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Union[dict, str]) -> "StepSet":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "intervals" not in data:
            raise InputError('step set JSON must be {"intervals": [["a/b","c/d"], ...]}')
        return cls(tuple((pair[0], pair[1]) for pair in data["intervals"]))

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " ∪ ".join(f"[{l}, {r})" for l, r in self.intervals)


FULL_SET = StepSet(((0, 1),))
EMPTY_SET = StepSet(())


def normalize(raw: Iterable[Sequence[RationalLike]]) -> StepSet:
    """Canonical StepSet with the same indicator function as the raw pairs."""
    return StepSet(tuple(raw))


def intersect_measure(region: StepSet, interval: DyadicInterval) -> Fraction:
    """Exact Lebesgue measure of region ∩ interval."""
    lo, hi = interval.left, interval.right
    total = Fraction(0)
    for left, right in region.intervals:
        if right <= lo:
            continue
        if left >= hi:
            break
        total += min(right, hi) - max(left, lo)
    return total


def measures_below(region: StepSet, points: Sequence[Fraction]) -> list[Fraction]:
    """Exact |E ∩ [0, x)| at each point x of an ascending sequence.

    One merge sweep of the region's intervals against the points, so the cost
    is O(len(points) + len(region.intervals)); the measure of any half-open
    interval between two of the points is the difference of their values.
    """
    intervals = region.intervals
    out = []
    covered = Fraction(0)  # measure of the region's intervals ending at or before x
    k = 0
    for x in points:
        while k < len(intervals) and intervals[k][1] <= x:
            covered += intervals[k][1] - intervals[k][0]
            k += 1
        if k < len(intervals) and intervals[k][0] < x:
            out.append(covered + (x - intervals[k][0]))
        else:
            out.append(covered)
    return out


def density(region: StepSet, interval: DyadicInterval) -> Fraction:
    """The covered fraction |I ∩ E| / |I|, exactly; always in [0, 1]."""
    return intersect_measure(region, interval) / interval.measure
