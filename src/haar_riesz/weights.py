"""The convex weight machinery behind the level-by-level lower-bound induction.

For a density threshold p in (2/3, 1] the weight curve assigns to a cell of
density q the mass

    weight_mass(q) = 1 + p(2−p) / ((3p−2)(3p−2q))   for q ≥ p,

continued linearly through the origin below p.  The per-cell weight is
weight_mass(q)/q, and one level of the induction trades the re-weighted norm
of a Haar combination against the newly added level's unweighted mass.
Everything in this module is exact rational arithmetic.

The curve is evaluated from integers: with p = a/b and q = n/m in lowest
terms it is (D + a(2b−a)m)/D with D = (3a−2b)(3am−2bn) for q ≥ p, and
2bn/((3a−2b)m) below p, one Fraction normalisation each.

Every cell mass comes from one table, :func:`measure.dyadic_counts`: one
sweep of the set at the ends of the deepest cells, in integer units of the
sweep's common denominator, heap-numbered, each coarser node the sum of its
halves; a level's masses are its slice ``counts[1 << level : 2 << level]``.
The values of a partial Haar sum on the cells come from one top-down walk,
:func:`_level_values`, in integer units of the coefficients' common
denominator: a cell's value is its parent's value minus the parent's
coefficient on the left half and plus it on the right.  A level's weighted
norm, :func:`_level_norm`, sums the squared values per cell mass and
evaluates the curve once per distinct mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import InputError
from .haar import MAX_DEPTH, CoefficientMap, halves, meets_density, node_interval
from .measure import DyadicInterval, StepSet, dyadic_counts, measures_below

_TWO_THIRDS = Fraction(2, 3)

MAX_GRID = 4096  # verify_grid decides (grid+1)² pairs: about 16.8M at the cap
MAX_LEVEL = MAX_DEPTH  # the weighted norms sweep 2^(level+1) cells: 131072 at the cap


def _check_level(level: int):
    if level > MAX_LEVEL:
        raise InputError(f"level must be <= {MAX_LEVEL}, got {level}")


@dataclass(frozen=True, slots=True)
class WeightConfig:
    """Density threshold p; the weight curve exists only for 2/3 < p ≤ 1."""

    p: Fraction

    def __post_init__(self):
        p = Fraction(self.p)
        if not _TWO_THIRDS < p <= 1:
            raise InputError(f"threshold must satisfy 2/3 < p <= 1, got {p}")
        object.__setattr__(self, "p", p)


def weight_mass_unclipped(q: Fraction, cfg: WeightConfig) -> Fraction:
    """The hyperbola branch on all of [0,1]; well defined since 2q ≤ 2 < 3p."""
    q = Fraction(q)
    p = cfg.p
    return 1 + (p * (2 - p)) / ((3 * p - 2) * (3 * p - 2 * q))


def weight_mass(q: Fraction, cfg: WeightConfig) -> Fraction:
    """Weighted E-mass per unit cell length at density q (exact).

    Hyperbola branch for q ≥ p, linear continuation through the origin below,
    each from the integers of p = a/b and q = n/m (see the module notes).
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise InputError(f"density must lie in [0,1], got {q}")
    a, b = cfg.p.numerator, cfg.p.denominator
    n, m = q.numerator, q.denominator
    if n * b >= a * m:
        d = (3 * a - 2 * b) * (3 * a * m - 2 * b * n)
        return Fraction(d + a * (2 * b - a) * m, d)
    return Fraction(2 * b * n, (3 * a - 2 * b) * m)


def mass_cap(cfg: WeightConfig) -> Fraction:
    """The constant C = weight_mass(1) bounding weight_mass(q) ≤ C·q."""
    return weight_mass(Fraction(1), cfg)


def check_branch_agreement(cfg: WeightConfig) -> bool:
    """Exact equality of the clipped and unclipped branches at q = 2p−1.

    Both sides evaluate to 1 + p/(3p−2); this is what makes the linear branch
    the chord of the hyperbola between 2p−1 and p.
    """
    q = 2 * cfg.p - 1
    return weight_mass(q, cfg) == weight_mass_unclipped(q, cfg)


def _split_failure(
    n1: int, d1: int, n2: int, d2: int, nm: int, dm: int, all_a: bool
) -> Optional[str]:
    """The split decision from the curve values g1 = n1/d1, g2 = n2/d2 and
    gm = nm/dm (positive denominators), in integers only.

    With L, B, K as in :func:`check_split_inequality`:

        K = k / (2·d1·d2·dm),   k = (n1·d2 + n2·d1)·dm − 2·nm·d1·d2,
        L = l / (2·d1·d2),      l = n1·d2 + n2·d1 − 2·d1·d2,
        B = b / (d1·d2),        b = n2·d1 − n1·d2,

    so sign(k) = sign(K), sign(l) = sign(L), and B² ≤ 4LK ⇔ b²·dm ≤ l·k.
    Returns "a0" when K < 0, "all-a" when ``all_a`` asks for the all-a
    decision and it fails, and None when the inequality holds.
    """
    s = n1 * d2 + n2 * d1
    dd = d1 * d2
    k = s * dm - 2 * nm * dd
    if k < 0:
        return "a0"
    if not all_a:
        return None
    l = s - 2 * dd
    b = n2 * d1 - n1 * d2
    if l > 0:
        return None if b * b * dm <= l * k else "all-a"
    return None if l == 0 and b == 0 else "all-a"


def check_split_inequality(
    q1: Fraction, q2: Fraction, cfg: WeightConfig, require_mid: bool = True
) -> bool:
    """Decide, for all real a simultaneously, the two-halves inequality

        (1−a)²/2·g(q1) + (1+a)²/2·g(q2) − g((q1+q2)/2) ≥ a²

    with g = weight_mass.  The left side minus a² is L·a² + B·a + K with
    L = (g1+g2)/2 − 1, B = g2 − g1, K = (g1+g2)/2 − g(mid), so the exact
    decision is a discriminant check: L > 0 and B² ≤ 4LK (or the degenerate
    L = B = 0, K ≥ 0).  With require_mid the midpoint must meet the threshold,
    which is the regime where the inequality is claimed for every a; without
    it only a = 0 is decided, i.e. midpoint convexity K ≥ 0.

    The decision runs in integers: with g = n/d in lowest terms, K, L and B
    are the integers k, l, b over positive denominators, and the test reads
    k ≥ 0 and either l > 0 with b²·dm ≤ l·k, or l = b = 0
    (see :func:`_split_failure`).
    """
    q1, q2 = Fraction(q1), Fraction(q2)
    if not (0 <= q1 <= 1 and 0 <= q2 <= 1):
        raise InputError(f"densities must lie in [0,1], got ({q1}, {q2})")
    mid = (q1 + q2) / 2
    if require_mid and mid < cfg.p:
        raise InputError(
            f"midpoint density {mid} below threshold {cfg.p}; use require_mid=False"
        )
    g1 = weight_mass(q1, cfg)
    g2 = weight_mass(q2, cfg)
    gm = weight_mass(mid, cfg)
    failure = _split_failure(
        g1.numerator, g1.denominator,
        g2.numerator, g2.denominator,
        gm.numerator, gm.denominator,
        require_mid,
    )
    return failure is None


class MassBounds(NamedTuple):
    lower_ok: bool
    upper_ok: bool
    cap: Fraction


def check_mass_bounds(q: Fraction, cfg: WeightConfig) -> MassBounds:
    """Exact check of q ≤ weight_mass(q) ≤ C·q with C = weight_mass(1)."""
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise InputError(f"density must lie in [0,1], got {q}")
    g = weight_mass(q, cfg)
    cap = mass_cap(cfg)
    return MassBounds(q <= g, g <= cap * q, cap)


@dataclass(frozen=True, slots=True)
class WeightProfile:
    """Constant weight value per dyadic cell of one fixed level."""

    level: int
    values: Dict[DyadicInterval, Fraction]

    def value_range(self) -> tuple[Fraction, Fraction]:
        vals = list(self.values.values())
        return min(vals), max(vals)


def weight_profile(region: StepSet, n: int, cfg: WeightConfig) -> WeightProfile:
    """The step-n weight: on each level-(n+1) cell the value weight_mass(q)/q.

    On cells the region misses entirely the weight is irrelevant (the weighted
    integrand vanishes there); it is set to weight_mass(p)/p, the constant
    value of the ratio on the whole linear branch, which keeps every profile
    value inside [1, C].
    """
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    _check_level(n)
    cell_level = n + 1
    unit, counts = dyadic_counts(region, cell_level)
    by_mass = {0: weight_mass(cfg.p, cfg) / cfg.p}
    values: Dict[DyadicInterval, Fraction] = {}
    for index, c in enumerate(_level(counts, cell_level)):
        if c not in by_mass:
            q = Fraction(c << cell_level, unit)
            by_mass[c] = weight_mass(q, cfg) / q
        values[DyadicInterval(cell_level, index)] = by_mass[c]
    return WeightProfile(cell_level, values)


def _level(counts: List[int], level: int) -> List[int]:
    """One level's masses from a :func:`dyadic_counts` heap, in index order."""
    return counts[1 << level : 2 << level]


def _scaled_levels(
    coeffs: CoefficientMap, top: int
) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """(scale, terms): terms[level] lists (index, a·scale) for every
    coefficient a on a level ≤ ``top``, in index order; ``scale`` is the
    least common denominator of the coefficients."""
    scale = lcm(*coeffs.denominators)
    terms: List[List[Tuple[int, int]]] = [[] for _ in range(top + 1)]
    for node, num, den in zip(coeffs.nodes, coeffs.numerators, coeffs.denominators):
        level = node.bit_length() - 1
        if level > top:
            break
        terms[level].append((node - (1 << level), num * (scale // den)))
    return scale, terms


def _level_values(terms: List[List[Tuple[int, int]]]) -> Iterator[List[int]]:
    """For level = 0, 1, …, len(terms) − 1 in turn: the values, in the units
    of ``terms``, of Σ_{level(I) ≤ level} a_I h_I on the level-(level+1) cells.

    A cell's value is its parent's value, minus the parent's coefficient on
    the left half and plus it on the right half.
    """
    values = [0]
    for level_terms in terms:
        values = [v for v in values for _ in (0, 1)]
        for index, a in level_terms:
            values[2 * index] -= a
            values[2 * index + 1] += a
        yield values


def _level_norm(
    level: int, values: List[int], counts: List[int], unit: int, scale: int,
    cfg: WeightConfig,
) -> Fraction:
    """‖Σ_{level(I) ≤ level} a_I h_I 1_E‖² in L²(w_level), from the values·scale
    on the level-(level+1) cells and their masses counts/unit.

    A cell of density q contributes value²·weight_mass(q)·|cell|, and
    weight_mass(0) = 0 settles the cells E misses; so the squared values are
    summed per cell mass and the curve is evaluated once per distinct mass.
    """
    squares: Dict[int, int] = {}
    for s, c in zip(values, counts):
        if s and c:
            squares[c] = squares.get(c, 0) + s * s
    cell_level = level + 1
    total = sum(
        (
            weight_mass(Fraction(c << cell_level, unit), cfg) * square
            for c, square in squares.items()
        ),
        Fraction(0),
    )
    return total / ((scale * scale) << cell_level)


def _step_rhs(
    level: int, terms: List[Tuple[int, int]], counts: List[int], unit: int,
    cfg: WeightConfig,
) -> int:
    """Σ a²·|I ∩ E| over one level's scaled coefficients, in units of
    1/(scale²·unit), after checking that each coefficient below the root is
    admissible (density ≥ p), as the step that adds its level requires."""
    total = 0
    for index, a in terms:
        c = counts[index]
        if level and not meets_density(c, unit, level, cfg.p):
            raise InputError(
                f"inadmissible coefficient on {DyadicInterval(level, index)}: "
                f"density {Fraction(c << level, unit)} < {cfg.p}"
            )
        total += a * a * c
    return total


def weighted_norm_sq(
    region: StepSet, coeffs: CoefficientMap, level: int, cfg: WeightConfig
) -> Fraction:
    """‖Σ_{level(I) ≤ level} a_I h_I 1_E‖² in L²(w_level), exactly.

    The combination is constant on level-(level+1) cells, where the weight is
    weight_mass(q)/q; each cell therefore contributes value²·weight_mass(q)·|cell|,
    which also settles the zero-density cells (weight_mass(0) = 0).
    """
    _check_level(level)
    if level < 0:
        return Fraction(0)
    unit, counts = dyadic_counts(region, level + 1)
    scale, terms = _scaled_levels(coeffs, level)
    *_, values = _level_values(terms)
    return _level_norm(level, values, _level(counts, level + 1), unit, scale, cfg)


class StepResult(NamedTuple):
    holds: bool
    lhs: Fraction
    rhs: Fraction


def induction_step_check(
    region: StepSet, coeffs: CoefficientMap, n: int, cfg: WeightConfig
) -> StepResult:
    """Exact check of one descent level:

        ‖Σ_{≤ n+1} a_I h_I 1_E‖²_{w_{n+1}} − ‖Σ_{≤ n} a_I h_I 1_E‖²_{w_n}
            ≥ Σ_{level(I) = n+1} ‖a_I h_I 1_E‖².

    Coefficients must live on levels ≤ n+1, and every nonzero coefficient at
    the new level n+1 must be admissible (density ≥ p) — that is where the
    all-a split inequality is invoked; coarser coefficients only feed the
    constant base value on each cell and are unconstrained.
    """
    _check_level(n + 1)
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    unit, counts = dyadic_counts(region, n + 2)
    scale, terms = _scaled_levels(coeffs, n + 1)
    rhs = _step_rhs(n + 1, terms[n + 1], _level(counts, n + 1), unit, cfg)
    if coeffs.max_level() > n + 1:
        deeper = node_interval(coeffs.nodes[sum(map(len, terms))])
        raise InputError(f"coefficient on {deeper} lies below level {n + 1}")
    norms = [
        _level_norm(level, values, _level(counts, level + 1), unit, scale, cfg)
        for level, values in enumerate(_level_values(terms))
        if level >= n
    ]
    lhs = norms[1] - norms[0]
    rhs = Fraction(rhs, scale * scale * unit)
    return StepResult(lhs >= rhs, lhs, rhs)


def per_interval_check(
    region: StepSet,
    interval: DyadicInterval,
    b: Fraction,
    a: Fraction,
    cfg: WeightConfig,
) -> bool:
    """The single-cell reduction of the induction step, exactly:

        (b−a)²·|lh|·g(q1) + (b+a)²·|rh|·g(q2) − b²·|J|·g((q1+q2)/2)
            ≥ |J|·((q1+q2)/2)·a²

    where b is the combination's constant value on the cell from coarser
    levels and a is the cell's own coefficient.
    """
    b, a = Fraction(b), Fraction(a)
    lh, rh = halves(interval)
    left = 2 * interval.index
    unit, (lo, centre, hi) = measures_below(region, lh.level, (left, left + 1, left + 2))
    q1 = Fraction((centre - lo) << lh.level, unit)
    q2 = Fraction((hi - centre) << lh.level, unit)
    mid = (q1 + q2) / 2
    lhs = (
        (b - a) ** 2 * lh.measure * weight_mass(q1, cfg)
        + (b + a) ** 2 * rh.measure * weight_mass(q2, cfg)
        - b * b * interval.measure * weight_mass(mid, cfg)
    )
    rhs = interval.measure * mid * a * a
    return lhs >= rhs


@dataclass(frozen=True, slots=True)
class TelescopeReport:
    """Base level plus all induction steps up to a top level, with exact sums."""

    top_level: int
    base_lhs: Fraction
    base_rhs: Fraction
    steps: tuple[StepResult, ...]
    weighted_total: Fraction  # ‖Σ_{≤ top} a_I h_I 1_E‖²_{w_top}
    norm_total: Fraction  # Σ ‖a_I h_I 1_E‖²
    holds: bool  # every step holds and weighted_total ≥ norm_total
    telescoping_exact: bool  # the step sums reproduce the totals exactly


def telescope_check(
    region: StepSet,
    coeffs: CoefficientMap,
    cfg: WeightConfig,
    top_level: Optional[int] = None,
) -> TelescopeReport:
    """Run the base inequality and every induction step up to ``top_level``.

    Summing base + steps telescopes exactly into the weighted inequality
    ‖Σ a_I h_I 1_E‖²_{w_k} ≥ Σ ‖a_I h_I 1_E‖²; the report records both sides
    and whether the telescoping identity is exact.  ``top_level`` defaults
    to the deepest coefficient's level (0 without coefficients); a negative
    one is refused.
    """
    if top_level is not None and top_level < 0:
        raise InputError(f"top level must be >= 0, got {top_level}")
    k = max(coeffs.max_level(), 0) if top_level is None else top_level
    if coeffs.max_level() > k:
        raise InputError(f"coefficients extend past level {k}")
    _check_level(k)
    unit, counts = dyadic_counts(region, k + 1)
    scale, terms = _scaled_levels(coeffs, k)
    # every level's Σ a²·|I∩E|, each new level checked for admissibility in
    # turn, then every level's norm once: the new side of step n−1 and the
    # old side of step n
    rhs = [
        _step_rhs(level, terms[level], _level(counts, level), unit, cfg)
        for level in range(k + 1)
    ]
    norms = [
        _level_norm(level, values, _level(counts, level + 1), unit, scale, cfg)
        for level, values in enumerate(_level_values(terms))
    ]
    den = scale * scale * unit
    base_lhs, weighted_total = norms[0], norms[k]
    base_rhs = Fraction(rhs[0], den)
    steps = []
    for n in range(k):
        lhs = norms[n + 1] - norms[n]
        step_rhs = Fraction(rhs[n + 1], den)
        steps.append(StepResult(lhs >= step_rhs, lhs, step_rhs))
    norm_total = Fraction(sum(rhs), den)
    lhs_sum = base_lhs + sum((s.lhs for s in steps), Fraction(0))
    rhs_sum = base_rhs + sum((s.rhs for s in steps), Fraction(0))
    holds = (
        base_lhs >= base_rhs
        and all(s.holds for s in steps)
        and weighted_total >= norm_total
    )
    exact = lhs_sum == weighted_total and rhs_sum == norm_total
    return TelescopeReport(
        k, base_lhs, base_rhs, tuple(steps), weighted_total, norm_total, holds, exact
    )


@dataclass(frozen=True, slots=True)
class GridReport:
    """Result of an exact sweep of the weight-curve inequalities over a grid."""

    p: Fraction
    grid_step: Fraction
    gpos_failures: tuple
    gcomp_failures: tuple
    cap: Fraction


def verify_grid(cfg: WeightConfig, grid: int = 256) -> GridReport:
    """Exact verification of the split inequality and the mass bounds on the
    grid {k/grid : 0 ≤ k ≤ grid}.

    Ordered pairs with midpoint ≥ p get the full all-a discriminant decision;
    all pairs get the a = 0 midpoint-convexity check; every grid point gets
    both mass bounds.  Failures are returned, not raised.

    The curve is evaluated once, as n/d in lowest terms, on the half grid
    {k/(2·grid)}, so every midpoint (i+j)/(2·grid) is on it.  Each pair is
    then decided from integers only: the threshold test (i+j)/(2·grid) ≥ p
    reads (i+j)·p_den ≥ 2·p_num·grid, and the split decision uses the
    integer forms k, l, b of K, L, B (see :func:`_split_failure`).  At most
    ``MAX_GRID`` is accepted, checked before anything is computed.
    """
    if grid < 1:
        raise InputError(f"grid must be >= 1, got {grid}")
    if grid > MAX_GRID:
        raise InputError(f"grid must be <= {MAX_GRID}, got {grid}")
    # precompute the curve on the half grid so midpoints stay on it
    half = [weight_mass(Fraction(k, 2 * grid), cfg) for k in range(2 * grid + 1)]
    num = [g.numerator for g in half]
    den = [g.denominator for g in half]
    cap = mass_cap(cfg)
    reach = 2 * cfg.p.numerator * grid  # (i+j)·p_den ≥ reach ⇔ midpoint ≥ p
    p_den = cfg.p.denominator
    # k, l and the threshold test are symmetric in (i, j) and b is
    # antisymmetric, so b² is symmetric: decide j ≥ i and mirror the rest
    kinds = []
    for i in range(grid + 1):
        n1, d1 = num[2 * i], den[2 * i]
        for j in range(i, grid + 1):
            kind = _split_failure(
                n1, d1, num[2 * j], den[2 * j], num[i + j], den[i + j],
                (i + j) * p_den >= reach,
            )
            if kind is not None:
                kinds.append((i, j, kind))
                if i != j:
                    kinds.append((j, i, kind))
    kinds.sort()
    gpos_failures = [(Fraction(i, grid), Fraction(j, grid), kind) for i, j, kind in kinds]
    gcomp_failures = []
    for k in range(grid + 1):
        q = Fraction(k, grid)
        g = half[2 * k]
        if not (q <= g and g <= cap * q):
            gcomp_failures.append(q)
    return GridReport(
        cfg.p, Fraction(1, grid), tuple(gpos_failures), tuple(gcomp_failures), cap
    )
