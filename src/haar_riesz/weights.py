"""The convex weight machinery behind the level-by-level lower-bound induction.

For a density threshold p in (2/3, 1] the weight curve assigns to a cell of
density q the mass

    weight_mass(q) = 1 + p(2−p) / ((3p−2)(3p−2q))   for q ≥ p,

continued linearly through the origin below p.  The per-cell weight is
weight_mass(q)/q, and one level of the induction trades the re-weighted norm
of a Haar combination against the newly added level's unweighted mass.
Everything in this module is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from .errors import InputError
from .haar import CoefficientMap, halves
from .measure import DyadicInterval, StepSet, density, intersect_measure

_TWO_THIRDS = Fraction(2, 3)

MAX_GRID = 4096  # verify_grid decides (grid+1)² pairs: about 16.8M at the cap


@dataclass(frozen=True)
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

    Hyperbola branch for q ≥ p, linear continuation through the origin below.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise InputError(f"density must lie in [0,1], got {q}")
    p = cfg.p
    if q >= p:
        return weight_mass_unclipped(q, cfg)
    return weight_mass_unclipped(p, cfg) * q / p


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


@dataclass(frozen=True)
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
    default = weight_mass(cfg.p, cfg) / cfg.p
    values: Dict[DyadicInterval, Fraction] = {}
    for index in range(1 << (n + 1)):
        cell = DyadicInterval(n + 1, index)
        q = density(region, cell)
        values[cell] = weight_mass(q, cfg) / q if q > 0 else default
    return WeightProfile(n + 1, values)


def _partial_sum_values(
    coeffs: CoefficientMap, max_level: int, cell_level: int
) -> List[Fraction]:
    """Values on the level-`cell_level` cells of Σ_{level(I) ≤ max_level} a_I h_I.

    Requires max_level < cell_level so every contributing Haar function is
    constant on each cell; the sign is the cell's half-of-ancestor bit.
    """
    top = min(max_level, cell_level - 1)
    values = []
    for index in range(1 << cell_level):
        total = Fraction(0)
        for level in range(top + 1):
            a = coeffs[DyadicInterval(level, index >> (cell_level - level))]
            if a:
                bit = (index >> (cell_level - level - 1)) & 1
                total += a if bit else -a
        values.append(total)
    return values


def weighted_norm_sq(
    region: StepSet, coeffs: CoefficientMap, level: int, cfg: WeightConfig
) -> Fraction:
    """‖Σ_{level(I) ≤ level} a_I h_I 1_E‖² in L²(w_level), exactly.

    The combination is constant on level-(level+1) cells, where the weight is
    weight_mass(q)/q; each cell therefore contributes value²·weight_mass(q)·|cell|,
    which also settles the zero-density cells (weight_mass(0) = 0).
    """
    cell_level = level + 1
    svals = _partial_sum_values(coeffs, level, cell_level)
    total = Fraction(0)
    for index, s in enumerate(svals):
        if s:
            cell = DyadicInterval(cell_level, index)
            q = density(region, cell)
            if q:
                total += s * s * weight_mass(q, cfg) * cell.measure
    return total


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
    rhs = _step_rhs(region, coeffs, n, cfg)
    lhs = weighted_norm_sq(region, coeffs, n + 1, cfg) - weighted_norm_sq(
        region, coeffs, n, cfg
    )
    return StepResult(lhs >= rhs, lhs, rhs)


def _step_rhs(
    region: StepSet, coeffs: CoefficientMap, n: int, cfg: WeightConfig
) -> Fraction:
    """Σ_{level(I) = n+1} ‖a_I h_I 1_E‖², after checking that the coefficients
    fit step n of :func:`induction_step_check`."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    for interval, _ in coeffs.items():
        if interval.level > n + 1:
            raise InputError(
                f"coefficient on {interval} lies below level {n + 1}"
            )
        if interval.level == n + 1:
            q = density(region, interval)
            if q < cfg.p:
                raise InputError(
                    f"inadmissible coefficient on {interval}: density {q} < {cfg.p}"
                )
    return sum(
        (
            a * a * intersect_measure(region, interval)
            for interval, a in coeffs.items()
            if interval.level == n + 1
        ),
        Fraction(0),
    )


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
    q1 = density(region, lh)
    q2 = density(region, rh)
    mid = (q1 + q2) / 2
    lhs = (
        (b - a) ** 2 * lh.measure * weight_mass(q1, cfg)
        + (b + a) ** 2 * rh.measure * weight_mass(q2, cfg)
        - b * b * interval.measure * weight_mass(mid, cfg)
    )
    rhs = interval.measure * mid * a * a
    return lhs >= rhs


@dataclass(frozen=True)
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
    and whether the telescoping identity is exact.
    """
    k = coeffs.max_level() if top_level is None else top_level
    if k < 0:
        k = 0
    if coeffs.max_level() > k:
        raise InputError(f"coefficients extend past level {k}")
    # the level-n norm only sees coefficients on levels ≤ n, so each level is
    # computed once and serves as the new side of step n−1 and the old of step n
    norms = [weighted_norm_sq(region, coeffs, 0, cfg)]
    root = DyadicInterval(0, 0)
    base_rhs = coeffs[root] ** 2 * intersect_measure(region, root)
    steps = []
    for n in range(k):
        rhs = _step_rhs(region, coeffs.restrict(n + 1), n, cfg)
        norms.append(weighted_norm_sq(region, coeffs, n + 1, cfg))
        lhs = norms[n + 1] - norms[n]
        steps.append(StepResult(lhs >= rhs, lhs, rhs))
    base_lhs, weighted_total = norms[0], norms[k]
    norm_total = sum(
        (a * a * intersect_measure(region, i) for i, a in coeffs.items()),
        Fraction(0),
    )
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


@dataclass(frozen=True)
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
    gpos_failures = []
    for i in range(grid + 1):
        n1, d1 = num[2 * i], den[2 * i]
        for j in range(grid + 1):
            kind = _split_failure(
                n1, d1, num[2 * j], den[2 * j], num[i + j], den[i + j],
                (i + j) * p_den >= reach,
            )
            if kind is not None:
                gpos_failures.append((Fraction(i, grid), Fraction(j, grid), kind))
    gcomp_failures = []
    for k in range(grid + 1):
        q = Fraction(k, grid)
        g = half[2 * k]
        if not (q <= g and g <= cap * q):
            gcomp_failures.append(q)
    return GridReport(
        cfg.p, Fraction(1, grid), tuple(gpos_failures), tuple(gcomp_failures), cap
    )
