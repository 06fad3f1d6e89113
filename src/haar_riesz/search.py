"""Seeded randomized and greedy search for step sets with a low Riesz ratio.

Candidates are cell sets at ``cell_resolution``, and each is scored on an
integer cell-count tree (:class:`_CountTree`): admissibility, masses and
slopes are read off the counts of its dyadic nodes, and a greedy flip
updates one cell's subtree and ancestor chain.  The pencil's entries are
written by the ancestor-chain walk that :func:`build_gram` uses
(:func:`gram._chain_store`) and filled in by :func:`float_view`, so they have
the bits :meth:`GramMatrix.as_float` gives.  The pencil splits into
independent blocks under non-member ancestors, and its extremes are solved
block by block; a memo that lives for one search keeps each solved block's
extremes, so a flip re-solves only the blocks it changed (one, unless a
member that leaves splits a block).  No candidate builds a Fraction Gram
matrix; ties on the ratio are broken on the integer runs of the cells, and a
StepSet is built only for the final winner or for a candidate that fails a
spectral check.  :func:`pencil_extremes` is the reference the tree scores
equal.

The winner's certified lower bracket is taken on its count tree too: the
exact pencil of its integer counts is G and D scaled alike by 2^unit, so
every exact PSD verdict is the one on :func:`build_gram`'s Fractions.  The
verdicts are monotone in the constant, and the search already knows the
winner's float λ_min, so the exact checks start at its grid point and
usually take two (that point and the next); the float only picks where to
look and never decides.  :func:`certified_lower_bound`, the bisection of
[0, 2] from any step set, is the reference this bracket equals bit for bit.
All randomness flows through an explicit splitmix64 generator so results are
reproducible bit for bit from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .constants import riesz_constant
from .errors import ConsistencyError, InputError
from .gram import (
    GramMatrix,
    _chain_store,
    _extreme_eigenvalues,
    build_gram,
    eig_bounds,
    float_view,
    psd_certificate,
)
from .haar import MAX_DEPTH, enumerate_family, meets_density
from .measure import StepSet, cell_runs

_MASK64 = (1 << 64) - 1
_FLOAT_TOL = 1e-8  # slack granted to the float eigensolver against exact bounds
_BRACKET_WIDTH = Fraction(1, 1 << 20)  # width of a search winner's certified bracket

# iteration-varying inclusion biases used when the config pins none
_BIAS_CYCLE = (0.35, 0.5, 0.65, 0.8, 0.9)

_GREEDY_STAGNATION_LIMIT = 32  # consecutive rejected flips before a restart
_GREEDY_RESTART_STREAM = 1 << 32  # seed-derivation offsets for greedy substreams
_GREEDY_FLIP_STREAM = 1 << 33

MAX_RESOLUTION = 16  # a step set is drawn cell by cell: 2^16 cells at the cap


def splitmix64(state: int) -> Tuple[int, int]:
    """One step of splitmix64 (Steele–Lea–Flood): (new_state, output).

    The increment 0x9E3779B97F4A7C15 and the two xor-multiply finalizer
    rounds are the reference constants; all arithmetic is mod 2^64.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Per-task seed: the splitmix64 output for state (seed XOR index).

    Because the state is ``seed XOR index``, nearby seeds share their draws:
    for i < 24, every ``derive_seed(2, i)`` is some ``derive_seed(1, i')``
    with i' < 24, so searches with seeds 1 and 2 score the same candidates in
    another order.  Spread independent runs with unrelated 64-bit seeds.
    """
    _, out = splitmix64((seed ^ index) & _MASK64)
    return out


class SplitMix64:
    """Tiny stateful wrapper around :func:`splitmix64`."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state, out = splitmix64(self.state)
        return out

    def next_unit(self) -> float:
        """Uniform float64 in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def random_stepset(resolution: int, density_bias: float, seed: int) -> StepSet:
    """Include each level-`resolution` cell independently with the given bias.

    Deterministic in the seed; a bias of exactly 1.0 always yields the full
    interval (the generated uniforms are strictly below 1).
    """
    if resolution < 1:
        raise InputError(f"resolution must be >= 1, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise InputError(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    if not 0.0 < density_bias <= 1.0:
        raise InputError(f"density bias must lie in (0, 1], got {density_bias}")
    return StepSet.from_cells(_draw_cells(resolution, density_bias, seed))


@dataclass(frozen=True)
class SearchConfig:
    p: Fraction
    depth: int
    cell_resolution: int
    iterations: int
    seed: int
    mode: str = "random"  # "random" | "greedy-flip"
    density_bias: Optional[float] = None  # None: cycle through _BIAS_CYCLE

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "seed", self.seed & _MASK64)
        if self.depth < 0:
            raise InputError(f"depth must be >= 0, got {self.depth}")
        if self.depth > MAX_DEPTH:
            raise InputError(f"depth must be <= {MAX_DEPTH}, got {self.depth}")
        if self.cell_resolution < 1:
            raise InputError(
                f"cell resolution must be >= 1, got {self.cell_resolution}"
            )
        if self.cell_resolution > MAX_RESOLUTION:
            raise InputError(
                f"cell resolution must be <= {MAX_RESOLUTION}, "
                f"got {self.cell_resolution}"
            )
        if self.iterations < 1:
            raise InputError(f"iterations must be >= 1, got {self.iterations}")
        if self.mode not in ("random", "greedy-flip"):
            raise InputError(f"unknown search mode {self.mode!r}")
        if self.density_bias is not None and not 0.0 < self.density_bias <= 1.0:
            raise InputError(
                f"density bias must lie in (0, 1], got {self.density_bias}"
            )


@dataclass(frozen=True, slots=True)
class SearchResult:
    best_set: StepSet
    best_ratio: float
    family_size: int
    certificate_lower: Fraction
    ratios: Tuple[float, ...]  # one scored ratio per iteration

    @property
    def history(self) -> Tuple[Tuple[int, float], ...]:
        """The (iteration, ratio) pairs, built from ``ratios`` on request."""
        return tuple(enumerate(self.ratios))

    def to_json_dict(self, precision: int = 17) -> dict:
        """Floats rendered to ``precision`` significant digits."""
        from .rational import format_rational, render_float

        return {
            "best_set": self.best_set.to_json_dict(),
            "best_ratio": render_float(self.best_ratio, precision),
            "family_size": self.family_size,
            "certificate_lower": format_rational(self.certificate_lower),
            "history": [
                [i, render_float(r, precision)] for i, r in self.history
            ],
        }


def pencil_extremes(
    region: StepSet, p: Fraction, depth: int
) -> Tuple[float, float, int]:
    """(λ_min, λ_max, family size) of the normalized pencil over the admissible
    family of level ≤ depth; (1.0, 1.0, 0) for an empty family.

    This is the reference route, from any step set through
    :func:`enumerate_family`, :func:`build_gram` and :func:`eig_bounds`; the
    search scores its cell-set candidates on a count tree and gets these
    values bit for bit.
    """
    family = enumerate_family(depth, region, p)
    if not family:
        return 1.0, 1.0, 0
    gram = build_gram(family, region, normalized=True)
    low, high = eig_bounds(gram)
    return low, high, len(family)


def min_ratio(region: StepSet, p: Fraction, depth: int) -> Tuple[float, int]:
    """Smallest Rayleigh ratio over the admissible family of level ≤ depth:
    λ_min of the normalized pencil, via the float eigensolver.

    An empty family is vacuously a Riesz sequence; by convention it scores
    the orthogonal-case value 1.
    """
    low, _, size = pencil_extremes(region, p, depth)
    return low, size


def certified_lower_bound(
    region: StepSet,
    p: Fraction,
    depth: int,
    width: Fraction = _BRACKET_WIDTH,
) -> Fraction:
    """Largest certified constant, to within ``width``, by exact PSD bisection.

    Returns lo with the certificate exactly true at lo and exactly false at
    lo + width.  The bracket starts at [0, 2]: a Gram matrix is always PSD,
    and the normalized pencil has unit diagonal so its λ_min is at most 1.
    Empty family: vacuously 1.

    This is the reference route, from any step set through
    :func:`enumerate_family` and :func:`build_gram`; a search brackets its
    winner on its count tree and gets this value bit for bit.
    """
    step, top = _bracket_grid(width)
    family = enumerate_family(depth, region, p)
    if not family:
        return Fraction(1)
    gram = build_gram(family, region, normalized=False)
    return step * _bisect(_certified_at(gram, step), 0, top)


def _bracket_grid(width: Fraction) -> Tuple[Fraction, int]:
    """(step, top): bisecting [0, 2] until the bracket is at most ``width``
    wide visits only multiples k·step, 0 ≤ k ≤ top, of step = 2/top."""
    if not width > 0:
        raise InputError(f"bracket width must be > 0, got {width}")
    top = 1
    while Fraction(2, top) > width:
        top *= 2
    return Fraction(2, top), top


def _certified_at(gram: GramMatrix, step: Fraction):
    """k ↦ the exact certificate G − k·step·D ⪰ 0, D the diagonal of G.

    It is monotone: true at k implies true below k, since D ⪰ 0.
    """
    diag = gram.diagonal
    return lambda k: psd_certificate(gram, k * step, diag)


def _bisect(holds, lo: int, hi: int) -> int:
    """The largest k in [lo, hi) with holds(k), for a monotone ``holds``
    taken as true at lo and false at hi; neither end is asked."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _gallop(holds, top: int, start: int) -> Tuple[int, int]:
    """(lo, hi) around the last k with holds(k) for a monotone ``holds``,
    holds(lo) and not holds(hi), found from ``start`` in [0, top) by steps
    that double; 0 counts as true and top as false, neither asked.

    With the answer at start, two checks: start and start + 1.
    """
    if start == 0 or holds(start):
        lo, step = start, 1
        while lo + step < top and holds(lo + step):
            lo, step = lo + step, 2 * step
        return lo, min(lo + step, top)
    hi, step = start, 1
    while hi - step > 0 and not holds(hi - step):
        hi, step = hi - step, 2 * step
    return max(hi - step, 0), hi


def _tree_bracket(tree: "_CountTree", p: Fraction, guess: float) -> Fraction:
    """:func:`certified_lower_bound` of the tree's set at the tree's depth,
    bit for bit, on the exact pencil of its integer counts.

    Masses and slopes in units of 2^−unit scale G and D alike by 2^unit,
    which leaves every verdict G − cD ⪰ 0 unchanged, and the verdicts are
    monotone in c, so any start finds the bisection's answer.  ``guess``, the
    float λ_min, only picks the start ⌊guess/step⌋; a non-finite guess
    bisects from [0, 2].
    """
    family, (diagonal, lower) = tree.store(p)
    if not family:
        return Fraction(1)
    step, top = _bracket_grid(_BRACKET_WIDTH)
    holds = _certified_at(GramMatrix(diagonal, lower), step)
    lo, hi = 0, top
    if math.isfinite(guess):
        start = min(max(math.floor(Fraction(guess) / step), 0), top - 1)
        lo, hi = _gallop(holds, top, start)
    return step * _bisect(holds, lo, hi)


def _floor_for(p: Fraction) -> Optional[float]:
    if p > Fraction(2, 3):
        return float(riesz_constant(p)) - _FLOAT_TOL
    return None


def _draw_cells(resolution: int, density_bias: float, seed: int) -> List[bool]:
    """One inclusion flag per level-`resolution` cell, drawn in cell order."""
    rng = SplitMix64(seed)
    return [rng.next_unit() < density_bias for _ in range(1 << resolution)]


class _CountTree:
    """Covered-leaf counts of every dyadic node from level 0 to unit.

    A candidate's cells at ``resolution`` fill the tree, each cell as
    2^(unit − resolution) leaves; nodes are numbered as in a heap (node
    (level, index) is 2^level + index, its halves are 2v and 2v + 1, its
    parent v >> 1).  Counts are integers in units of 2^−unit,
    unit = max(resolution, depth + 1), so a member's mass is its count and
    its slope |rh ∩ E| − |lh ∩ E| is the difference of its halves' counts,
    both exact and free of Fractions.
    """

    __slots__ = ("cells", "resolution", "depth", "unit", "counts", "memo")

    def __init__(self, cells: List[bool], depth: int, memo: Optional[dict] = None):
        self.cells = cells
        self.memo = memo
        self.resolution = resolution = len(cells).bit_length() - 1
        self.depth = depth
        self.unit = unit = max(resolution, depth + 1)
        leaves = list(map(int, cells))
        for _ in range(unit - resolution):  # halve every cell down to the leaves
            leaves = [present for present in leaves for _ in (0, 1)]
        base = len(leaves)
        self.counts = counts = [0] * base + leaves
        for v in range(base - 1, 0, -1):
            counts[v] = counts[2 * v] + counts[2 * v + 1]

    def toggle(self, cell: int):
        """Flip one cell: its subtree's nodes and its ancestor chain change
        by their counts of its leaves."""
        self.cells[cell] = present = not self.cells[cell]
        delta = 1 if present else -1
        counts, below = self.counts, self.unit - self.resolution
        v = (1 << self.resolution) | cell
        for down in range(1, below + 1):
            share = delta << (below - down)
            for u in range(v << down, (v + 1) << down):
                counts[u] += share
        weight = delta << below
        while v:
            counts[v] += weight
            v >>= 1

    def family(self, p: Fraction) -> List[int]:
        """The admissible nodes of level ≤ depth, in (level, index) order."""
        counts, unit = self.counts, 1 << self.unit
        return [
            v
            for level in range(self.depth + 1)
            for v in range(1 << level, 2 << level)
            if meets_density(counts[v], unit, level, p)
        ]

    def store(self, p: Fraction, step=1) -> Tuple[List[int], tuple]:
        """The admissible family and its Gram store (diagonal, lower), written
        by the ancestor-chain walk of :func:`build_gram`
        (:func:`gram._chain_store`) from the masses and slopes in units of
        ``step``: the counts times step.  With the default, integer counts:
        the store of ``build_gram`` times 2^unit."""
        counts = self.counts
        family = self.family(p)
        return family, _chain_store(
            family,
            [counts[v] * step for v in family],
            [(counts[2 * v + 1] - counts[2 * v]) * step for v in family],
        )

    def pencil(self, p: Fraction) -> Tuple[List[int], np.ndarray]:
        """The admissible family and the float view of its normalized Gram
        matrix, entry for entry the bits of ``build_gram(..., True).as_float()``.

        The store of the counts times 2^−unit, exact in float64, goes through
        the fill of :meth:`GramMatrix.as_float` (:func:`float_view`).
        """
        family, (diagonal, lower) = self.store(p, 2.0 ** -self.unit)
        return family, float_view(diagonal, lower, normalized=True)

    def extremes(self, p: Fraction) -> Tuple[float, float, int]:
        """:func:`pencil_extremes` of the candidate, bit for bit.

        The pencil is solved block by block; with a ``memo`` (one per search),
        a block a flip left unchanged is read from it, not solved again.  A
        block's value depends only on its bytes, so the memo moves no bit.
        """
        family, matrix = self.pencil(p)
        if not family:
            return 1.0, 1.0, 0
        low, high = _extreme_eigenvalues(matrix, self.memo)
        return low, high, len(family)


def _score(
    tree: _CountTree, cfg: SearchConfig, floor: Optional[float], ceiling: float
) -> Tuple[float, int]:
    """Score one candidate, enforcing both spectral invariants."""
    low, high, size = tree.extremes(cfg.p)
    if floor is not None and low < floor:
        raise ConsistencyError(
            f"computed ratio {low!r} undercuts the certified lower bound "
            f"{floor!r} on {StepSet.from_cells(tree.cells)}; this would "
            "contradict the lower-bound theorem and indicates a bug"
        )
    if high > ceiling:
        raise ConsistencyError(
            f"pencil λ_max {high!r} exceeds the upper bound 1/p on "
            f"{StepSet.from_cells(tree.cells)}; this would contradict the "
            "upper-bound inequality and indicates a bug"
        )
    return low, size


def _offer(best, ratio: float, size: int, cells: List[bool]):
    """The lower of best and the candidate by (ratio, intervals).

    best is (ratio, runs, family size) or None, runs the maximal runs of the
    cells as integer pairs: at one resolution they order as the intervals
    of the sets do, so a tie is broken without building a StepSet.
    """
    if best is None or ratio < best[0]:
        return ratio, cell_runs(cells), size
    if ratio == best[0]:
        runs = cell_runs(cells)
        if runs < best[1]:
            return ratio, runs, size
    return best


def _bias_for(cfg: SearchConfig, iteration: int) -> float:
    if cfg.density_bias is not None:
        return cfg.density_bias
    return _BIAS_CYCLE[iteration % len(_BIAS_CYCLE)]


def _search_random(
    cfg: SearchConfig, floor: Optional[float], ceiling: float, memo: dict
):
    ratios: List[float] = []
    best = None
    for iteration in range(cfg.iterations):
        cells = _draw_cells(
            cfg.cell_resolution,
            _bias_for(cfg, iteration),
            derive_seed(cfg.seed, iteration),
        )
        ratio, size = _score(_CountTree(cells, cfg.depth, memo), cfg, floor, ceiling)
        ratios.append(ratio)
        best = _offer(best, ratio, size, cells)
    return best, ratios


def _search_greedy(
    cfg: SearchConfig, floor: Optional[float], ceiling: float, memo: dict
):
    n_cells = 1 << cfg.cell_resolution
    flip_rng = SplitMix64(derive_seed(cfg.seed, _GREEDY_FLIP_STREAM))

    def fresh_tree(restart: int) -> _CountTree:
        seed = derive_seed(cfg.seed, _GREEDY_RESTART_STREAM + restart)
        cells = _draw_cells(cfg.cell_resolution, _bias_for(cfg, restart), seed)
        return _CountTree(cells, cfg.depth, memo)

    restarts = 0
    tree = fresh_tree(restarts)
    current_ratio, size = _score(tree, cfg, floor, ceiling)
    best = _offer(None, current_ratio, size, tree.cells)

    ratios: List[float] = []
    stagnation = 0
    for _ in range(cfg.iterations):
        flip = flip_rng.next_u64() % n_cells
        tree.toggle(flip)
        ratio, size = _score(tree, cfg, floor, ceiling)
        ratios.append(ratio)
        best = _offer(best, ratio, size, tree.cells)
        if ratio < current_ratio:
            current_ratio = ratio
            stagnation = 0
        else:
            tree.toggle(flip)  # revert
            stagnation += 1
        if stagnation >= _GREEDY_STAGNATION_LIMIT:
            restarts += 1
            tree = fresh_tree(restarts)
            current_ratio, size = _score(tree, cfg, floor, ceiling)
            best = _offer(best, current_ratio, size, tree.cells)
            stagnation = 0
    return best, ratios


def search_extremal(cfg: SearchConfig) -> SearchResult:
    """Minimize the float Riesz ratio over seeded step sets.

    Random mode scores independent draws (merged by minimum ratio with a
    deterministic lexicographic tie-break on the set); greedy-flip mode
    hill-descends by single-cell flips, restarting after stagnation; each
    restart's fresh set competes for the best as the flips do, though
    ``ratios`` keeps one entry per iteration.  Every evaluated ratio is
    checked against the certified theorem floor.  The returned record
    carries an exact certified bracket for the winning set, equal to
    :func:`certified_lower_bound` of it, taken on its count tree.

    The extremes of every pencil block solved are kept, keyed by the block's
    bytes, for the length of this call only, so a flip re-solves only the
    blocks it changed.
    """
    floor = _floor_for(cfg.p)
    ceiling = float(Fraction(1) / cfg.p) + _FLOAT_TOL
    run = _search_random if cfg.mode == "random" else _search_greedy
    (ratio, runs, size), ratios = run(cfg, floor, ceiling, {})
    cells = [False] * (1 << cfg.cell_resolution)
    for a, b in runs:
        cells[a:b] = [True] * (b - a)
    certificate = _tree_bracket(_CountTree(cells, cfg.depth), cfg.p, ratio)
    return SearchResult(
        best_set=StepSet.from_runs(runs, len(cells)),
        best_ratio=ratio,
        family_size=size,
        certificate_lower=certificate,
        ratios=tuple(ratios),
    )
