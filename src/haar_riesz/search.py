"""Seeded randomized and greedy search for step sets with a low Riesz ratio.

The float eigensolver drives the hot loop; the exact PSD certificate is run
once, on the winning set, to produce a rigorously certified lower bracket.
All randomness flows through an explicit splitmix64 generator so results are
reproducible bit for bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .constants import riesz_constant
from .errors import ConsistencyError, InputError
from .gram import build_gram, eig_bounds, psd_certificate
from .haar import MAX_DEPTH, enumerate_family
from .measure import StepSet

_MASK64 = (1 << 64) - 1
_FLOAT_TOL = 1e-8  # slack granted to the float eigensolver against exact bounds

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
    rng = SplitMix64(seed)
    scale = 1 << resolution
    cells = [k for k in range(scale) if rng.next_unit() < density_bias]
    return StepSet(
        tuple((Fraction(k, scale), Fraction(k + 1, scale)) for k in cells)
    )


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


@dataclass(frozen=True)
class SearchResult:
    best_set: StepSet
    best_ratio: float
    family_size: int
    certificate_lower: Fraction
    history: Tuple[Tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        from .rational import format_rational, render_float

        return {
            "best_set": self.best_set.to_json_dict(),
            "best_ratio": render_float(self.best_ratio),
            "family_size": self.family_size,
            "certificate_lower": format_rational(self.certificate_lower),
            "history": [
                [i, render_float(r)] for i, r in self.history
            ],
        }


def pencil_extremes(
    region: StepSet, p: Fraction, depth: int
) -> Tuple[float, float, int]:
    """(λ_min, λ_max, family size) of the normalized pencil over the admissible
    family of level ≤ depth; (1.0, 1.0, 0) for an empty family."""
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
    width: Fraction = Fraction(1, 1 << 20),
) -> Fraction:
    """Largest certified constant, to within ``width``, by exact PSD bisection.

    Returns lo with the certificate exactly true at lo and exactly false at
    lo + width.  The bracket starts at [0, 2]: a Gram matrix is always PSD,
    and the normalized pencil has unit diagonal so its λ_min is at most 1.
    Empty family: vacuously 1.
    """
    family = enumerate_family(depth, region, p)
    if not family:
        return Fraction(1)
    gram = build_gram(family, region, normalized=False)
    diag = gram.diagonal
    lo, hi = Fraction(0), Fraction(2)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if psd_certificate(gram, mid, diag):
            lo = mid
        else:
            hi = mid
    return lo


def _floor_for(p: Fraction) -> Optional[float]:
    if p > Fraction(2, 3):
        return float(riesz_constant(p)) - _FLOAT_TOL
    return None


def _check_floor(ratio: float, floor: Optional[float], region: StepSet):
    if floor is not None and ratio < floor:
        raise ConsistencyError(
            f"computed ratio {ratio!r} undercuts the certified lower bound "
            f"{floor!r} on {region}; this would contradict the lower-bound "
            "theorem and indicates a bug"
        )


def _evaluate(region: StepSet, cfg: SearchConfig, floor: Optional[float]):
    """Score one candidate set, enforcing both spectral invariants."""
    low, high, size = pencil_extremes(region, cfg.p, cfg.depth)
    _check_floor(low, floor, region)
    ceiling = float(Fraction(1) / cfg.p) + _FLOAT_TOL
    if high > ceiling:
        raise ConsistencyError(
            f"pencil λ_max {high!r} exceeds the upper bound 1/p on {region}; "
            "this would contradict the upper-bound inequality and indicates a bug"
        )
    return low, size


def _bias_for(cfg: SearchConfig, iteration: int) -> float:
    if cfg.density_bias is not None:
        return cfg.density_bias
    return _BIAS_CYCLE[iteration % len(_BIAS_CYCLE)]


def _search_random(cfg: SearchConfig, floor: Optional[float]):
    history: List[Tuple[int, float]] = []
    best = None
    for iteration in range(cfg.iterations):
        region = random_stepset(
            cfg.cell_resolution, _bias_for(cfg, iteration), derive_seed(cfg.seed, iteration)
        )
        ratio, size = _evaluate(region, cfg, floor)
        history.append((iteration, ratio))
        key = (ratio, region.intervals)
        if best is None or key < best[0]:
            best = (key, region, ratio, size)
    _, region, ratio, size = best
    return region, ratio, size, history


def _search_greedy(cfg: SearchConfig, floor: Optional[float]):
    n_cells = 1 << cfg.cell_resolution
    scale = n_cells
    flip_rng = SplitMix64(derive_seed(cfg.seed, _GREEDY_FLIP_STREAM))

    def fresh_cells(restart: int) -> List[bool]:
        bias = _bias_for(cfg, restart)
        rng = SplitMix64(derive_seed(cfg.seed, _GREEDY_RESTART_STREAM + restart))
        return [rng.next_unit() < bias for _ in range(n_cells)]

    def to_set(cells: List[bool]) -> StepSet:
        return StepSet(
            tuple(
                (Fraction(k, scale), Fraction(k + 1, scale))
                for k, present in enumerate(cells)
                if present
            )
        )

    restarts = 0
    cells = fresh_cells(restarts)
    region = to_set(cells)
    current_ratio, current_size = _evaluate(region, cfg, floor)

    history: List[Tuple[int, float]] = []
    best = ((current_ratio, region.intervals), region, current_ratio, current_size)
    stagnation = 0
    for iteration in range(cfg.iterations):
        flip = flip_rng.next_u64() % n_cells
        cells[flip] = not cells[flip]
        candidate = to_set(cells)
        ratio, size = _evaluate(candidate, cfg, floor)
        history.append((iteration, ratio))
        key = (ratio, candidate.intervals)
        if key < best[0]:
            best = (key, candidate, ratio, size)
        if ratio < current_ratio:
            current_ratio = ratio
            stagnation = 0
        else:
            cells[flip] = not cells[flip]  # revert
            stagnation += 1
        if stagnation >= _GREEDY_STAGNATION_LIMIT:
            restarts += 1
            cells = fresh_cells(restarts)
            fresh = to_set(cells)
            current_ratio, size = _evaluate(fresh, cfg, floor)
            key = (current_ratio, fresh.intervals)
            if key < best[0]:
                best = (key, fresh, current_ratio, size)
            stagnation = 0
    _, region, ratio, size = best
    return region, ratio, size, history


def search_extremal(cfg: SearchConfig) -> SearchResult:
    """Minimize the float Riesz ratio over seeded step sets.

    Random mode scores independent draws (merged by minimum ratio with a
    deterministic lexicographic tie-break on the set); greedy-flip mode
    hill-descends by single-cell flips, restarting after stagnation; each
    restart's fresh set competes for the best as the flips do, though
    ``history`` keeps one entry per iteration.  Every evaluated ratio is
    checked against the certified theorem floor.  The returned record
    carries an exact certified bracket for the winning set.
    """
    floor = _floor_for(cfg.p)
    if cfg.mode == "random":
        region, ratio, size, history = _search_random(cfg, floor)
    else:
        region, ratio, size, history = _search_greedy(cfg, floor)
    certificate = certified_lower_bound(region, cfg.p, cfg.depth)
    return SearchResult(
        best_set=region,
        best_ratio=ratio,
        family_size=size,
        certificate_lower=certificate,
        history=tuple(history),
    )
