"""Exact step sets and dyadic intervals on the unit interval.

The set model is a canonical finite union of half-open intervals with
rational endpoints inside [0,1).  Every measure and density computed here is
an exact `Fraction` or integer count over a common unit; nothing rounds.  The
measures at dyadic points come from one integer sweep, :func:`measures_below`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import InputError
from .rational import format_rational, parse_rational

RationalLike = Union[Fraction, int, str]


def _as_fraction(value: RationalLike) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True, order=True, slots=True)
class DyadicInterval:
    """The interval [index/2^level, (index+1)/2^level) inside [0,1)."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise InputError(f"dyadic level must be >= 0, got {self.level}")
        # a shift of the index allocates nothing however deep the level
        if self.index < 0 or self.index >> self.level:
            raise InputError(
                f"dyadic index {self.index} out of range [0, 2^{self.level}) at level {self.level}"
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


def _canonical_ends(raw: Iterable[Sequence[RationalLike]]) -> Tuple[Fraction, ...]:
    """The flat ends (a₀, b₀, a₁, b₁, …) of the union of the raw pairs:
    sorted, with overlapping or touching pairs merged."""
    pairs = []
    for pair in raw:
        left, right = _as_fraction(pair[0]), _as_fraction(pair[1])
        if not (0 <= left < right <= 1):
            raise InputError(
                f"bad interval ({left}, {right}): need 0 <= left < right <= 1"
            )
        pairs.append((left, right))
    pairs.sort()
    merged: list[Fraction] = []
    for left, right in pairs:
        if merged and left <= merged[-1]:
            if right > merged[-1]:
                merged[-1] = right
        else:
            merged += (left, right)
    return tuple(merged)


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


class StepSet:
    """Canonical finite union of half-open rational intervals inside [0,1).

    The set is one flat tuple ``ends`` = (a₀, b₀, a₁, b₁, …) of strictly
    increasing Fractions, the intervals being [a_k, b_k).  Construction from
    pairs eagerly canonicalizes: intervals are sorted, overlapping or touching
    inputs are merged, so equality of indicator functions is structural
    equality of the tuples.  ``intervals`` builds the pairs on request.
    Instances are immutable.
    """

    __slots__ = ("ends",)

    def __init__(self, intervals: Iterable[Sequence[RationalLike]] = ()):
        object.__setattr__(self, "ends", _canonical_ends(intervals))

    @classmethod
    def _of_ends(cls, ends: Tuple[Fraction, ...]) -> "StepSet":
        """The set of flat ends that are already canonical, kept as given."""
        region = object.__new__(cls)
        object.__setattr__(region, "ends", ends)
        return region

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return StepSet._of_ends, (self.ends,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ends == other.ends

    def __hash__(self) -> int:
        return hash(self.ends)

    def __repr__(self) -> str:
        return f"StepSet(intervals={self.intervals!r})"

    @property
    def intervals(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """The intervals as (left, right) pairs, in increasing order."""
        ends = self.ends
        return tuple(zip(ends[0::2], ends[1::2]))

    @classmethod
    def from_cells(cls, cells: Sequence[bool]) -> "StepSet":
        """The union of the cells [k/m, (k+1)/m) whose flag is set, m = len(cells)."""
        return cls.from_runs(cell_runs(cells), len(cells))

    @classmethod
    def from_runs(cls, runs: Sequence[Tuple[int, int]], scale: int) -> "StepSet":
        """The union of [a/scale, b/scale) over the integer pairs (a, b).

        The endpoints come from a table shared by every set of this scale,
        so a set keeps one tuple of ends and no Fractions of its own.  Runs
        whose flattened ends strictly increase, as :func:`cell_runs` gives
        them, are canonical already and kept as they are; any other runs are
        sorted and merged.
        """
        flat = [k for a, b in runs for k in (a, b)]
        table = _ENDPOINTS.setdefault(scale, {})
        for k in flat:
            if k not in table:
                if not 0 <= k <= scale:
                    raise InputError(f"endpoint {k}/{scale} lies outside [0, 1]")
                table[k] = Fraction(k, scale)
        ends = tuple(map(table.__getitem__, flat))
        if all(a < b for a, b in zip(flat, flat[1:])):
            return cls._of_ends(ends)
        return cls(zip(ends[0::2], ends[1::2]))

    @property
    def measure(self) -> Fraction:
        ends = self.ends
        return sum(ends[1::2], Fraction(0)) - sum(ends[0::2], Fraction(0))

    def contains_point(self, x: RationalLike) -> bool:
        # x lies in [a_k, b_k) exactly when an odd number of ends are <= x
        return bisect_right(self.ends, _as_fraction(x)) % 2 == 1

    def complement(self) -> "StepSet":
        """The normalized complement within [0,1)."""
        ends = (Fraction(0),) + self.ends + (Fraction(1),)
        if ends[0] == ends[1]:
            ends = ends[2:]
        if ends and ends[-2] == ends[-1]:
            ends = ends[:-2]
        return StepSet._of_ends(ends)

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
        shape = 'step set JSON must be {"intervals": [["a/b","c/d"], ...]}'
        if not isinstance(data, dict) or "intervals" not in data:
            raise InputError(shape)
        pairs = data["intervals"]
        # each interval exactly two ends: a longer list would lose the rest
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            raise InputError(shape)
        return cls(pairs)

    def __str__(self) -> str:
        if not self.ends:
            return "{}"
        return " ∪ ".join(f"[{l}, {r})" for l, r in self.intervals)


FULL_SET = StepSet(((0, 1),))
EMPTY_SET = StepSet(())


def intersect_measure(region: StepSet, interval: DyadicInterval) -> Fraction:
    """Exact Lebesgue measure of region ∩ interval."""
    lo, hi = interval.left, interval.right
    ends = region.ends
    total = Fraction(0)
    # the first interval whose right end lies past lo: every earlier one
    # ends at or before lo
    for k in range(bisect_right(ends, lo) & ~1, len(ends), 2):
        left = ends[k]
        if left >= hi:
            break
        total += min(ends[k + 1], hi) - max(left, lo)
    return total


def measures_below(region: StepSet, level: int, positions: Iterable[int]) -> Tuple[int, List[int]]:
    """(unit, below): |E ∩ [0, k/2^level)| = below[i] / unit for the i-th k
    of ascending positions in [0, 2^level], ``unit`` their least common
    denominator.  The ends and the points share one integer grid of step
    1/lcm(2^level, the ends' denominators), merged in one sweep.
    """
    ends = region.ends
    grid = lcm(1 << level, *(end.denominator for end in ends))
    ticks = [end.numerator * (grid // end.denominator) for end in ends]
    step = grid >> level
    n = len(ticks)
    below = []
    covered = 0  # grid steps of the region's intervals ending at or before x
    k = 0  # index of the left end of the first interval not yet covered
    for position in positions:
        x = position * step
        while k < n and ticks[k + 1] <= x:
            covered += ticks[k + 1] - ticks[k]
            k += 2
        below.append(covered + (x - ticks[k]) if k < n and ticks[k] < x else covered)
    common = gcd(grid, *below)
    return grid // common, [value // common for value in below]


def density(region: StepSet, interval: DyadicInterval) -> Fraction:
    """The covered fraction |I ∩ E| / |I|, exactly; always in [0, 1]."""
    return intersect_measure(region, interval) / interval.measure


def heap_sums(leaves: Sequence[int]) -> List[int]:
    """The heap over 2^k leaf counts: node 2^level + index holds the sum of
    the leaves under the level-``level`` interval ``index`` (the halves of
    node v are 2v and 2v + 1), leaf i is node 2^k + i, and node 0 is 0.
    """
    width = len(leaves)
    counts = [0] * width + list(leaves)
    while width > 1:
        row = counts[width : 2 * width]
        width //= 2
        counts[width : 2 * width] = map(add, row[0::2], row[1::2])
    return counts


MAX_TABLE_BITS = 1 << 30  # a count table's integers at their widest: 128 MiB


def dyadic_counts(region: StepSet, deepest: int) -> Tuple[int, List[int]]:
    """(unit, counts): |E ∩ I| = counts[2^level + index] / unit for every
    dyadic interval I = (level, index) of level ≤ ``deepest``.

    One :func:`measures_below` sweep at the ends of the level-``deepest``
    cells gives that level as integers over ``unit``, the least common
    denominator of its values, and each coarser node is the sum of its
    halves (:func:`heap_sums`).  A level's counts are the slice
    ``counts[1 << level : 2 << level]``.  Each of the 2^(deepest+1) counts
    may be as wide as the sweep's grid, whose step every distinct endpoint
    denominator shortens, so a table that could exceed MAX_TABLE_BITS is
    refused before the sweep.
    """
    grid = lcm(1 << deepest, *(end.denominator for end in region.ends))
    bits = (2 << deepest) * grid.bit_length()
    if bits > MAX_TABLE_BITS:
        raise InputError(
            f"the level-{deepest} count table could take {bits} bits, more "
            f"than the budget of {MAX_TABLE_BITS}: the set's endpoint "
            "denominators are too large for this depth"
        )
    unit, below = measures_below(region, deepest, range((1 << deepest) + 1))
    return unit, heap_sums(list(map(sub, below[1:], below[:-1])))
