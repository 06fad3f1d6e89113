"""Restricted Haar functions and exact L² bookkeeping for their combinations."""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .errors import InputError
from .measure import DyadicInterval, StepSet, dyadic_counts, intersect_measure
from .rational import format_rational, parse_rational

MAX_DEPTH = 16  # enumerate_family reads 2^depth + 1 masses: 65537 at the cap
MAX_JSON_LEVEL = 400  # deepest coefficient of a map: the zig-zag stages of counterexample --n 200


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function on [0,1): sorted breakpoints (first 0, last 1), one value per gap.

    The representation is canonical: adjacent gaps with equal values are merged
    on construction, so structural equality is function equality.
    """

    breakpoints: Tuple[Fraction, ...]
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(b if type(b) is Fraction else Fraction(b) for b in self.breakpoints)
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise InputError("breakpoints must start at 0 and end at 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise InputError("breakpoints must be strictly increasing")
        if len(vals) != len(bps) - 1:
            raise InputError("need exactly one value per breakpoint gap")
        out_b = [bps[0]]
        out_v = [vals[0]]
        for i in range(1, len(vals)):
            if vals[i] == out_v[-1]:
                continue
            out_b.append(bps[i])
            out_v.append(vals[i])
        out_b.append(bps[-1])
        object.__setattr__(self, "breakpoints", tuple(out_b))
        object.__setattr__(self, "values", tuple(out_v))

    @classmethod
    def constant(cls, value) -> "PiecewiseConstant":
        return cls((Fraction(0), Fraction(1)), (Fraction(value),))

    @classmethod
    def zero(cls) -> "PiecewiseConstant":
        return cls.constant(0)

    @classmethod
    def from_segments(cls, segments: Iterable[Sequence]) -> "PiecewiseConstant":
        """Build from disjoint (left, right, value) pieces; uncovered gaps are 0."""
        segs = sorted((Fraction(l), Fraction(r), Fraction(v)) for l, r, v in segments)
        bps = [Fraction(0)]
        vals: list[Fraction] = []
        for left, right, value in segs:
            if left < bps[-1]:
                raise InputError(f"overlapping segment at {left}")
            if left >= right or right > 1:
                raise InputError(f"bad segment ({left}, {right})")
            if left > bps[-1]:
                vals.append(Fraction(0))
                bps.append(left)
            vals.append(value)
            bps.append(right)
        if bps[-1] < 1:
            vals.append(Fraction(0))
            bps.append(Fraction(1))
        return cls(tuple(bps), tuple(vals))

    def value_at(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise InputError(f"point {x} outside [0,1)")
        return self.values[bisect_right(self.breakpoints, x) - 1]

    def _aligned_values(self, grid: Sequence[Fraction]) -> list[Fraction]:
        # grid must contain all own breakpoints
        out = []
        k = 0
        for i in range(len(grid) - 1):
            while self.breakpoints[k + 1] <= grid[i]:
                k += 1
            out.append(self.values[k])
        return out

    def _zip(self, other: "PiecewiseConstant", op) -> "PiecewiseConstant":
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        a = self._aligned_values(grid)
        b = other._aligned_values(grid)
        return PiecewiseConstant(tuple(grid), tuple(op(x, y) for x, y in zip(a, b)))

    def __add__(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        return self._zip(other, lambda x, y: x + y)

    def __sub__(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        return self._zip(other, lambda x, y: x - y)

    def __neg__(self) -> "PiecewiseConstant":
        return PiecewiseConstant(self.breakpoints, tuple(-v for v in self.values))

    def __mul__(self, other):
        if isinstance(other, PiecewiseConstant):
            return self._zip(other, lambda x, y: x * y)
        scalar = Fraction(other)
        return PiecewiseConstant(self.breakpoints, tuple(v * scalar for v in self.values))

    __rmul__ = __mul__

    def restrict(self, region: StepSet) -> "PiecewiseConstant":
        """Pointwise product with the indicator of the region."""
        return self * indicator(region)

    def integral(self) -> Fraction:
        return sum(
            (
                v * (self.breakpoints[i + 1] - self.breakpoints[i])
                for i, v in enumerate(self.values)
            ),
            Fraction(0),
        )


def indicator(region: StepSet) -> PiecewiseConstant:
    """The indicator function of a step set, as an exact step function."""
    ends = region.ends
    return PiecewiseConstant.from_segments(
        (left, right, Fraction(1)) for left, right in zip(ends[0::2], ends[1::2])
    )


class CoefficientMap:
    """Finite assignment dyadic interval -> rational coefficient.

    The map is three parallel integer sequences sorted by heap node
    2^level + index, which is the (level, index) order: ``nodes``,
    ``numerators`` and ``denominators``, each coefficient in lowest terms
    with a positive denominator.  Each sequence is an ``array`` of the
    narrowest signed type that holds all its values, or a tuple past 64
    bits (see :func:`_packed`).  The map keeps no ``Fraction`` and no
    ``DyadicInterval``; ``[]`` (a bisection on ``nodes``), ``items`` and
    ``support`` build them on request.  Zero coefficients are dropped, and a
    key given more than once keeps its last value, a last value of 0
    removing it.
    """

    __slots__ = ("nodes", "numerators", "denominators")

    def __init__(self, entries: Union[Mapping, Iterable[Tuple[DyadicInterval, Fraction]]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[int, Fraction] = {}
        for interval, value in items:
            if not isinstance(interval, DyadicInterval):
                raise InputError(f"coefficient key must be a DyadicInterval, got {interval!r}")
            if interval.level > MAX_JSON_LEVEL:  # before 1 << level is built
                raise InputError(
                    f"coefficient level must be <= {MAX_JSON_LEVEL}, got {interval.level}"
                )
            value = Fraction(value)
            node = (1 << interval.level) + interval.index
            if value:
                store[node] = value
            else:
                store.pop(node, None)
        nodes = sorted(store)
        self._set(
            nodes,
            [store[node].numerator for node in nodes],
            [store[node].denominator for node in nodes],
        )

    def _set(self, nodes: Sequence[int], numerators: Sequence[int], denominators: Sequence[int]):
        self.nodes = _packed(nodes)
        self.numerators = _packed(numerators)
        self.denominators = _packed(denominators)

    def __getitem__(self, interval: DyadicInterval) -> Fraction:
        node = (1 << interval.level) + interval.index
        k = bisect_left(self.nodes, node)
        if k < len(self.nodes) and self.nodes[k] == node:
            return Fraction(self.numerators[k], self.denominators[k])
        return Fraction(0)

    def __len__(self) -> int:
        return len(self.nodes)

    def __bool__(self) -> bool:
        return bool(self.nodes)

    def __eq__(self, other) -> bool:
        # equal values are packed alike, and arrays compare by value
        return (
            isinstance(other, CoefficientMap)
            and self.nodes == other.nodes
            and self.numerators == other.numerators
            and self.denominators == other.denominators
        )

    def __iter__(self):
        return iter(self.support())

    def items(self) -> list[Tuple[DyadicInterval, Fraction]]:
        return [
            (node_interval(node), Fraction(num, den))
            for node, num, den in zip(self.nodes, self.numerators, self.denominators)
        ]

    def support(self) -> list[DyadicInterval]:
        return [node_interval(node) for node in self.nodes]

    def max_level(self) -> int:
        """Deepest level carrying a coefficient; -1 when empty."""
        return self.nodes[-1].bit_length() - 1 if self.nodes else -1

    def restrict(self, max_level: int) -> "CoefficientMap":
        k = bisect_left(self.nodes, 1 << (max_level + 1)) if max_level >= 0 else 0
        restricted = object.__new__(CoefficientMap)
        restricted._set(self.nodes[:k], self.numerators[:k], self.denominators[:k])
        return restricted

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [
                {"level": i.level, "index": i.index, "a": format_rational(a)}
                for i, a in self.items()
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Union[dict, str]) -> "CoefficientMap":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise InputError(_COEFFS_SHAPE)
        return cls(map(_json_entry, data["coeffs"]))

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {a}" for i, a in self.items())
        return f"CoefficientMap({{{body}}})"


_COEFFS_SHAPE = 'coefficient JSON must be {"coeffs": [{"level":..,"index":..,"a":".."}]}'


def _json_entry(entry: dict) -> Tuple[DyadicInterval, Fraction]:
    """One coefficient; its level and index must be JSON integers (not
    floats, which would truncate, nor booleans)."""
    try:
        level, index, a = entry["level"], entry["index"], entry["a"]
    except (TypeError, KeyError) as exc:
        raise InputError(_COEFFS_SHAPE) from exc
    if type(level) is not int or type(index) is not int:
        raise InputError(_COEFFS_SHAPE)
    return DyadicInterval(level, index), parse_rational(a)


_TYPECODES = ("b", "h", "i", "q")  # signed integers of 8, 16, 32 and 64 bits


def _packed(values: Sequence[int]) -> Sequence[int]:
    """The ints as an ``array`` of the narrowest signed type that holds them
    all, or as a tuple when one needs more than 64 bits.

    The choice depends only on the values, so equal sequences are packed
    alike.
    """
    low, high = min(values, default=0), max(values, default=0)
    for code in _TYPECODES:
        bound = 1 << (8 * array(code).itemsize - 1)
        if -bound <= low and high < bound:
            return array(code, values)
    return tuple(values)


def node_interval(node: int) -> DyadicInterval:
    """The dyadic interval of heap node 2^level + index."""
    level = node.bit_length() - 1
    return DyadicInterval(level, node - (1 << level))


def halves(interval: DyadicInterval) -> Tuple[DyadicInterval, DyadicInterval]:
    """(left half, right half), one level deeper."""
    return (
        DyadicInterval(interval.level + 1, 2 * interval.index),
        DyadicInterval(interval.level + 1, 2 * interval.index + 1),
    )


def haar_function(interval: DyadicInterval) -> PiecewiseConstant:
    """-1 on the left half of the interval, +1 on the right half, 0 elsewhere."""
    lh, rh = halves(interval)
    return PiecewiseConstant.from_segments(
        [(lh.left, lh.right, Fraction(-1)), (rh.left, rh.right, Fraction(1))]
    )


def restricted_norm_sq(interval: DyadicInterval, region: StepSet) -> Fraction:
    """‖h_I · 1_E‖²; the Haar square is 1 on its interval, so this is |I ∩ E|."""
    return intersect_measure(region, interval)


def combination(coeffs: CoefficientMap, region: StepSet) -> PiecewiseConstant:
    """The exact step function Σ a_I · h_I · 1_E.

    Each term a·h_I is the jumps −a, +2a, −a at the left end, the midpoint
    and the right end of I.  All points lie on the grid of step 2^-(M+1),
    M the deepest level, so they are kept as integer grid positions, sorted
    once, and the prefix sums of the jumps are the values between them.
    The jumps are integers too, in units of 1/D with D the least common
    denominator of the coefficients.
    """
    shift = coeffs.max_level() + 1
    scale = lcm(*coeffs.denominators)
    jumps: dict[int, int] = {}
    for node, num, den in zip(coeffs.nodes, coeffs.numerators, coeffs.denominators):
        level = node.bit_length() - 1
        a = num * (scale // den)
        half = 1 << (shift - level - 1)
        left = (node - (1 << level)) * 2 * half
        for point, jump in ((left, -a), (left + half, 2 * a), (left + 2 * half, -a)):
            jumps[point] = jumps.get(point, 0) + jump
    width = 1 << shift
    breakpoints = [Fraction(0)]
    values = []
    running = jumps.pop(0, 0)
    jumps.pop(width, None)
    for point in sorted(jumps):
        breakpoints.append(Fraction(point, width))
        values.append(Fraction(running, scale))
        running += jumps[point]
    breakpoints.append(Fraction(1))
    values.append(Fraction(running, scale))
    return PiecewiseConstant(tuple(breakpoints), tuple(values)).restrict(region)


def norm_sq(f: PiecewiseConstant) -> Fraction:
    """Exact ∫ f² over [0,1)."""
    return sum(
        (
            v * v * (f.breakpoints[i + 1] - f.breakpoints[i])
            for i, v in enumerate(f.values)
        ),
        Fraction(0),
    )


def enumerate_family(depth: int, region: StepSet, p: Fraction) -> list[DyadicInterval]:
    """All intervals of level ≤ depth whose density meets the threshold p.

    Uses the weak inequality density ≥ p (a coefficient is forced to zero only
    by a strict shortfall), in (level, index) order: the members
    :func:`admissible_nodes` reads off the set's :func:`dyadic_counts` table
    at ``depth``.  Depths past ``MAX_DEPTH`` are refused before anything is
    allocated.
    """
    p = check_family_args(depth, p)
    unit, counts = dyadic_counts(region, depth)
    return [node_interval(v) for v in admissible_nodes(counts, unit, depth, p)]


def check_family_args(depth: int, p) -> Fraction:
    """p as a Fraction, once depth and p are checked for a family of level
    ≤ depth at threshold p; nothing is allocated before the checks."""
    if depth < 0:
        raise InputError(f"depth must be >= 0, got {depth}")
    if depth > MAX_DEPTH:
        raise InputError(f"depth must be <= {MAX_DEPTH}, got {depth}")
    return check_threshold(p)


def check_threshold(p) -> Fraction:
    """p as a Fraction, once it is checked to be a density threshold 0 < p ≤ 1."""
    p = Fraction(p)
    if not 0 < p <= 1:
        raise InputError(f"threshold must satisfy 0 < p <= 1, got {p}")
    return p


def admissible_nodes(counts: Sequence[int], unit: int, depth: int, p: Fraction) -> list[int]:
    """The heap nodes 2^level + index of level ≤ depth whose density
    counts[node]/unit / 2^-level meets p, in (level, index) order."""
    return [
        v
        for level in range(depth + 1)
        for v in range(1 << level, 2 << level)
        if meets_density(counts[v], unit, level, p)
    ]


def meets_density(count: int, unit: int, level: int, p: Fraction) -> bool:
    """Whether a level-`level` interval I with |I ∩ E| = count/unit has density ≥ p.

    |I ∩ E| / 2^-level ≥ p  ⇔  count·p.den·2^level ≥ p.num·unit, in integers.
    """
    return (count * p.denominator << level) >= p.numerator * unit
