"""Seeded randomized and greedy search for step sets with a low Riesz ratio.

Every route from (set, p, depth) reads one integer count table
(:class:`_CountTree`): the set's masses on the dyadic nodes down to level
depth + 1, as integers over one unit.  Admissibility, masses and slopes are
read off it, and the float pencil's entries are written by the ancestor-chain
walk of :func:`build_gram` (:func:`gram._chain_store`).  A step set's table comes
from one sweep of it (:func:`_table_tree`), for :func:`pencil_extremes`,
:func:`certified_lower_bound` and a search's winner alike; a candidate fills
it from its cells, and a greedy flip updates one cell's subtree and ancestor
chain.  The float pencil's store divides the counts by the unit, which
rounds as ``float`` of the Fraction does, so each block the eigen route cuts
from it (:func:`gram._extreme_eigenvalues`) has the bits of the same block of
``build_gram(..., normalized=True).as_float()``; no n×n float matrix is
built.  The extremes are solved block by block, and a memo that lives for
one search keeps each solved block's extremes, up to a cap on its keys'
bytes, so a flip re-solves only the blocks it changed.  No candidate builds
a Fraction Gram matrix; ties on the ratio are broken on the integer runs of
the cells, and a StepSet is built only for the final winner or for a
candidate that fails a spectral check.

The certified bracket decides each exact PSD verdict by one pass over the
family's members (:func:`gram._pivot_psd`), the paper's level-by-level
induction run as an elimination, with integer masses and slopes read off the
count table: G and D are scaled alike by the unit.  The same pass decides
every other family verdict (``verify_riesz``, ``verify_bessel``).  The
verdicts are monotone in the constant, so a search asks its winner's float
λ_min and the next grid point first and usually needs no more; the float
never decides.  The tests check each verdict against the generic LDLᵀ
(:func:`gram.psd_certificate`) and keep the Fraction routes these values
equal bit for bit as references (``tests/conftest.py``).  All randomness
flows through an explicit splitmix64 generator so results are reproducible
bit for bit from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .constants import riesz_constant
from .errors import ConsistencyError, InputError
from .gram import _BlockMemo, _chain_store, _extreme_eigenvalues, _pivot_psd, check_dense
from .haar import admissible_nodes, check_family_args
from .measure import StepSet, cell_runs, dyadic_counts, heap_sums

_MASK64 = (1 << 64) - 1
_FLOAT_TOL = 1e-8  # slack granted to the float eigensolver against exact bounds
_BRACKET_WIDTH = Fraction(1, 1 << 20)  # width of a search winner's certified bracket

# iteration-varying inclusion biases used when the config pins none
_BIAS_CYCLE = (0.35, 0.5, 0.65, 0.8, 0.9)

_GREEDY_STAGNATION_LIMIT = 32  # consecutive rejected flips before a restart
_GREEDY_RESTART_STREAM = 1 << 32  # seed-derivation offsets for greedy substreams
_GREEDY_FLIP_STREAM = 1 << 33

MAX_RESOLUTION = 16  # a step set is drawn cell by cell: 2^16 cells at the cap
MAX_ITERATIONS = 100_000  # a search keeps one float ratio per iteration


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
    _check_cells(resolution, density_bias)
    return StepSet.from_cells(_draw_cells(resolution, density_bias, seed))


def _check_cells(resolution: int, density_bias: Optional[float]):
    """The checks of a cell grid: 1 ≤ resolution ≤ MAX_RESOLUTION and, when
    one is given, a cell-inclusion bias in (0, 1]."""
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise InputError(
            f"cell resolution must lie in [1, {MAX_RESOLUTION}], got {resolution}"
        )
    if density_bias is not None and not 0.0 < density_bias <= 1.0:
        raise InputError(f"density bias must lie in (0, 1], got {density_bias}")


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
        object.__setattr__(self, "p", check_family_args(self.depth, self.p))
        object.__setattr__(self, "seed", self.seed & _MASK64)
        _check_cells(self.cell_resolution, self.density_bias)
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise InputError(
                f"iterations must lie in [1, {MAX_ITERATIONS}], got {self.iterations}"
            )
        if self.mode not in ("random", "greedy-flip"):
            raise InputError(f"unknown search mode {self.mode!r}")


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

    Read off the set's count table, with the bits of :func:`eig_bounds` on
    ``build_gram(family, region, normalized=True)``.
    """
    tree, p = _table_tree(region, p, depth)
    return tree.extremes(p, {})


def _table_tree(region: StepSet, p: Fraction, depth: int) -> Tuple["_CountTree", Fraction]:
    """(tree, p): the count table of a step set down to level depth + 1,
    after the checks of :func:`enumerate_family`, and p as a Fraction."""
    p = check_family_args(depth, p)
    unit, counts = dyadic_counts(region, depth + 1)
    return _CountTree(counts, unit, depth), p


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
    Empty family: vacuously 1.  Every verdict is one pass over the family's
    members with their masses and slopes read off the set's count table
    (:func:`_bracket`, :func:`gram._pivot_psd`).
    """
    grid = _bracket_grid(width)
    tree, p = _table_tree(region, p, depth)
    return _bracket(tree, p, grid)


def _bracket_grid(width: Fraction) -> Tuple[Fraction, int]:
    """(step, top): bisecting [0, 2] until the bracket is at most ``width``
    wide visits only multiples k·step, 0 ≤ k ≤ top, of step = 2/top."""
    if not width > 0:
        raise InputError(f"bracket width must be > 0, got {width}")
    top = 1
    while Fraction(2, top) > width:
        top *= 2
    return Fraction(2, top), top


def _bracket(
    tree: "_CountTree", p: Fraction, grid: Tuple[Fraction, int], guess: float = math.nan
) -> Fraction:
    """The largest k·step on the grid (step, top) of :func:`_bracket_grid`
    with G − k·step·D ⪰ 0 exactly, D the diagonal of G.  Each verdict is one
    :func:`gram._pivot_psd` pass over the members, with pivots
    (1 − k·step)·counts[v] and slopes counts[2v + 1] − counts[2v].  The
    verdicts are monotone in k (D ⪰ 0), so a finite ``guess``, the float
    λ_min, only picks the first two points asked, k = ⌊guess/step⌋ and
    k + 1; bisection finds the answer in what is left of [0, top], so a wrong
    guess costs at most log₂(top) more.
    """
    family = tree.family(p)
    if not family:
        return Fraction(1)
    step, top = grid
    counts = tree.counts
    mass = [counts[v] for v in family]
    slope = [counts[2 * v + 1] - counts[2 * v] for v in family]

    def holds(k: int) -> bool:
        keep = 1 - k * step
        return _pivot_psd(family, [keep * m for m in mass], slope)

    lo, hi = 0, top  # true at 0, false at top; neither is asked
    if math.isfinite(guess):
        start = min(max(math.floor(Fraction(guess) / step), 0), top - 1)
        for k in (start, start + 1):
            if lo < k < hi:
                lo, hi = (k, hi) if holds(k) else (lo, k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return step * lo


def _floor_for(p: Fraction) -> Optional[float]:
    if p > Fraction(2, 3):
        return float(riesz_constant(p)) - _FLOAT_TOL
    return None


def _draw_cells(resolution: int, density_bias: float, seed: int) -> List[bool]:
    """One inclusion flag per level-`resolution` cell, drawn in cell order."""
    rng = SplitMix64(seed)
    return [rng.next_unit() < density_bias for _ in range(1 << resolution)]


class _CountTree:
    """A set's masses on every dyadic node down to level depth + 1 (or
    deeper), as integer counts over one ``unit``: |I ∩ E| = counts[v] / unit
    for node v = 2^level + index, numbered as in a heap (halves 2v and
    2v + 1, parent v >> 1).  A member's mass is its count and its slope
    |rh ∩ E| − |lh ∩ E| the difference of its halves' counts, exact and free
    of Fractions; the bracket's exact verdicts take them from here
    (:func:`_bracket`).
    :meth:`from_cells` builds the table of a candidate's cell flags and keeps
    ``cells``, which :meth:`toggle` flips one at a time.
    """

    __slots__ = ("counts", "unit", "depth", "cells")

    def __init__(self, counts: List[int], unit: int, depth: int):
        self.counts, self.unit, self.depth = counts, unit, depth

    @classmethod
    def from_cells(cls, cells: List[bool], depth: int):
        """Each of the 2^resolution cells as 2^(leaf − resolution) leaves of
        level leaf = max(resolution, depth + 1), in units of 2^−leaf."""
        resolution = len(cells).bit_length() - 1
        below = max(depth + 1 - resolution, 0)
        leaves = [int(present) for present in cells for _ in range(1 << below)]
        tree = cls(heap_sums(leaves), 1 << (resolution + below), depth)
        tree.cells = cells
        return tree

    def toggle(self, cell: int):
        """Flip one cell: its subtree's nodes and its ancestor chain change
        by their counts of its leaves."""
        self.cells[cell] = present = not self.cells[cell]
        delta = 1 if present else -1
        resolution = len(self.cells).bit_length() - 1
        counts, below = self.counts, self.unit.bit_length() - 1 - resolution
        v = (1 << resolution) | cell
        for down in range(below + 1):  # the cell's own node and its subtree
            for u in range(v << down, (v + 1) << down):
                counts[u] += delta << (below - down)
        while v > 1:
            v >>= 1
            counts[v] += delta << below

    def family(self, p: Fraction) -> List[int]:
        """The admissible nodes of level ≤ depth, in (level, index) order."""
        return admissible_nodes(self.counts, self.unit, self.depth, p)

    def extremes(self, p: Fraction, memo: dict) -> Tuple[float, float, int]:
        """(λ_min, λ_max, family size) of the normalized pencil; (1.0, 1.0, 0)
        for an empty family.

        A family past the dense cap is refused before its store is built.
        The pencil's store comes from :func:`_chain_store`, masses and slopes
        the counts over the unit (int/int division rounds as ``float`` of the
        Fraction does), and is solved block by block: a block whose bytes
        are in ``memo`` (one per search) is read from it, not solved again.
        A block's value depends only on its bytes, so the memo moves no bit.
        """
        counts, unit = self.counts, self.unit
        family = self.family(p)
        if not family:
            return 1.0, 1.0, 0
        check_dense(len(family))
        mass = [counts[v] / unit for v in family]
        slope = [(counts[2 * v + 1] - counts[2 * v]) / unit for v in family]
        low, high = _extreme_eigenvalues(*_chain_store(family, mass, slope), True, memo)
        return low, high, len(family)


def _score(
    tree: _CountTree, cfg: SearchConfig, floor: Optional[float], ceiling: float, memo: dict
) -> Tuple[float, int]:
    """Score one candidate, enforcing both spectral invariants."""
    low, high, size = tree.extremes(cfg.p, memo)
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
        ratio, size = _score(_CountTree.from_cells(cells, cfg.depth), cfg, floor, ceiling, memo)
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
        return _CountTree.from_cells(cells, cfg.depth)

    restarts = 0
    tree = fresh_tree(restarts)
    current_ratio, size = _score(tree, cfg, floor, ceiling, memo)
    best = _offer(None, current_ratio, size, tree.cells)

    ratios: List[float] = []
    stagnation = 0
    for _ in range(cfg.iterations):
        flip = flip_rng.next_u64() % n_cells
        tree.toggle(flip)
        ratio, size = _score(tree, cfg, floor, ceiling, memo)
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
            current_ratio, size = _score(tree, cfg, floor, ceiling, memo)
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
    carries an exact certified bracket for the winning set, decided on its
    table as :func:`certified_lower_bound` decides it, started at its ratio.

    The extremes of every pencil block solved are kept, keyed by the block's
    bytes, for the length of this call only, so a flip re-solves only the
    blocks it changed; past ``gram.MAX_MEMO_BYTES`` of keys the memo starts
    over (:class:`gram._BlockMemo`).
    """
    floor = _floor_for(cfg.p)
    ceiling = float(Fraction(1) / cfg.p) + _FLOAT_TOL
    run = _search_random if cfg.mode == "random" else _search_greedy
    (ratio, runs, size), ratios = run(cfg, floor, ceiling, _BlockMemo())
    best_set = StepSet.from_runs(runs, 1 << cfg.cell_resolution)
    tree, _ = _table_tree(best_set, cfg.p, cfg.depth)
    return SearchResult(
        best_set=best_set,
        best_ratio=ratio,
        family_size=size,
        certificate_lower=_bracket(tree, cfg.p, _bracket_grid(_BRACKET_WIDTH), ratio),
        ratios=tuple(ratios),
    )
