"""Shared hypothesis strategies and small exact helpers for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings

from haar_riesz import CoefficientMap, DyadicInterval, StepSet
from haar_riesz import gram as gram_module
from haar_riesz.errors import ConvergenceError, InputError
from haar_riesz.gram import (
    _JACOBI_MAX_SWEEPS,
    _JACOBI_REL_TOL,
    GramMatrix,
    build_gram,
    eig_bounds,
    psd_certificate,
)
from haar_riesz.haar import (
    PiecewiseConstant,
    check_threshold,
    enumerate_family,
    haar_function,
    halves,
)
from haar_riesz.measure import density, intersect_measure
from haar_riesz.weights import (
    GridReport,
    StepResult,
    TelescopeReport,
    WeightConfig,
    WeightProfile,
    mass_cap,
    weight_mass,
)

# Exact arithmetic makes example times vary with the drawn sizes, and the
# machines running the suite differ in speed, so no test has a deadline.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@st.composite
def step_sets(draw, max_intervals: int = 4, denominators=(3, 5, 8, 12, 16, 64)):
    """Step sets with endpoints on a small rational grid (possibly empty)."""
    den = draw(st.sampled_from(denominators))
    count = draw(st.integers(0, min(max_intervals, (den + 1) // 2)))
    points = draw(
        st.lists(
            st.integers(0, den), min_size=2 * count, max_size=2 * count, unique=True
        )
    )
    points.sort()
    pairs = [
        (Fraction(points[2 * i], den), Fraction(points[2 * i + 1], den))
        for i in range(count)
    ]
    return StepSet(tuple(pairs))


@st.composite
def dyadic_intervals(draw, max_level: int = 6):
    level = draw(st.integers(0, max_level))
    index = draw(st.integers(0, (1 << level) - 1))
    return DyadicInterval(level, index)


@st.composite
def coefficient_maps(draw, max_level: int = 4, max_terms: int = 6):
    terms = draw(
        st.lists(
            st.tuples(
                dyadic_intervals(max_level=max_level),
                st.fractions(
                    min_value=Fraction(-4),
                    max_value=Fraction(4),
                    max_denominator=4,
                ),
            ),
            max_size=max_terms,
        )
    )
    return CoefficientMap(terms)


def prime_shifted_set(n: int) -> StepSet:
    """n intervals [2k/2n + 1/q, (2k+1)/2n + 1/q′), each end shifted by 1/q
    for its own prime q above 10⁶, found by a sieve: every end lengthens the
    common unit of a sweep of the set by about 20 bits.  n = 300 gives a
    13.8 KB JSON file."""
    width = 20 * 2 * n + 1000
    is_prime = bytearray([1]) * width  # is_prime[i]: is 10⁶ + i a prime
    for d in range(2, math.isqrt(10**6 + width) + 1):
        first = -(10**6) % d
        is_prime[first::d] = bytes(len(range(first, width, d)))
    q = [10**6 + i for i, flag in enumerate(is_prime) if flag]
    return StepSet(
        (
            Fraction(2 * k, 2 * n) + Fraction(1, q[2 * k]),
            Fraction(2 * k + 1, 2 * n) + Fraction(1, q[2 * k + 1]),
        )
        for k in range(n)
    )


def clip_stepset(region: StepSet, left: Fraction, right: Fraction) -> StepSet:
    """region ∩ [left, right) as a step set (test-side helper)."""
    pieces = []
    for a, b in region.intervals:
        lo, hi = max(a, left), min(b, right)
        if lo < hi:
            pieces.append((lo, hi))
    return StepSet(tuple(pieces))


def leibniz_det(rows) -> Fraction:
    """Exact determinant by the Leibniz permutation sum (test-side helper)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = prod((Fraction(rows[i][perm[i]]) for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def psd_by_principal_minors(rows) -> bool:
    """Exact PSD oracle sharing no code with the library's LDLᵀ.

    A symmetric matrix is positive semidefinite iff every principal minor
    (not only the leading ones) is ≥ 0.  The minors come from
    :func:`leibniz_det`, so the cost grows as 2ⁿ·n!; meant for n ≤ 6.
    """
    n = len(rows)
    if n > 6:
        raise ValueError(f"principal-minor oracle is meant for n <= 6, got {n}")
    return all(
        leibniz_det([[rows[i][j] for j in subset] for i in subset]) >= 0
        for k in range(1, n + 1)
        for subset in combinations(range(n), k)
    )


def gram_from_entries(entries, labels=None, normalized: bool = False) -> GramMatrix:
    """The store of a dense symmetric matrix; entries become Fractions.

    Test-side reference for ``GramMatrix`` stores given as dense rows: it
    refuses a matrix that is not square, or not symmetric, naming the first
    asymmetric position, and ``GramMatrix`` itself checks the labels.
    """
    rows = tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row)
        for row in entries
    )
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("Gram matrix must be square")
    # tuple equality short-cuts on shared objects, so a Gram matrix whose
    # mirrored entries are one object each is checked at C speed
    if tuple(zip(*rows)) != rows:
        i, j = next(
            (i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i]
        )
        raise InputError(f"Gram matrix not symmetric at ({i}, {j})")
    lower = tuple(
        tuple((j, x) for j, x in enumerate(row[:i]) if x)
        for i, row in enumerate(rows)
    )
    return GramMatrix(tuple(rows[i][i] for i in range(n)), lower, labels, normalized)


def bessel_certificate(gram: GramMatrix, p) -> bool:
    """Exact truth of (1/p)·D − G ⪰ 0, D the diagonal of G, by the library's
    LDLᵀ on a given store: ``psd_certificate`` of the negated store at shift
    −1/p (test-side reference for the family route ``verify_bessel``)."""
    p = check_threshold(p)
    negated = GramMatrix(
        tuple(-d for d in gram.diagonal),
        tuple(tuple((j, -x) for j, x in row) for row in gram.lower),
    )
    return psd_certificate(negated, -1 / p, gram.diagonal)


def inner_product(first: DyadicInterval, second: DyadicInterval, region: StepSet) -> Fraction:
    """Exact ∫ h_I h_J 1_E, one pair at a time (test-side reference for the
    entries ``build_gram`` writes along ancestor chains).

    Dyadic intervals are nested or disjoint, so the product is zero unless one
    interval contains the other; the outer Haar function is then constant ±1
    on the inner interval.
    """
    if first == second:
        return intersect_measure(region, first)
    if first.contains(second):
        outer, inner = first, second
    elif second.contains(first):
        outer, inner = second, first
    else:
        return Fraction(0)
    _, outer_rh = halves(outer)
    sign = 1 if outer_rh.contains(inner) else -1
    inner_lh, inner_rh = halves(inner)
    return sign * (
        intersect_measure(region, inner_rh) - intersect_measure(region, inner_lh)
    )


def ldlt_psd(rows) -> bool:
    """The library's exact PSD verdict on a dense symmetric rational matrix:
    its store, built by :func:`gram_from_entries`, through the sparse LDLᵀ
    of ``psd_certificate`` at shift 0."""
    return psd_certificate(gram_from_entries(rows), 0, [0] * len(rows))


def dense_exact_psd(rows) -> bool:
    """Reference exact PSD decision: dense LDLᵀ with largest-diagonal pivoting.

    This is the library's earlier dense routine, kept here unchanged as a
    differential reference for the library's sparse LDLᵀ.  The two share
    neither the store (a full dense matrix here, only the entries left of the
    diagonal there) nor the pivot order (largest remaining diagonal here,
    reverse index order there), so agreement on every matrix, permuted or
    not, checks that the verdict does not depend on either.

    Diagonal-pivoted LDLᵀ: repeatedly pivot on the largest-magnitude remaining
    diagonal entry.  A negative diagonal is an immediate witness of
    indefiniteness.  Once every remaining diagonal is zero, the matrix is PSD
    iff the remaining block vanishes: a surviving off-diagonal entry m sits in
    a 2×2 block [[0, m], [m, 0]] of determinant −m² < 0.
    """
    matrix = [list(row) for row in rows]
    active = list(range(len(matrix)))
    while active:
        pivot = max(active, key=lambda i: abs(matrix[i][i]))
        d = matrix[pivot][pivot]
        if d < 0:
            return False
        if d == 0:
            return not any(
                matrix[i][j] for i in active for j in active if i != j
            )
        active.remove(pivot)
        column = [(i, matrix[i][pivot]) for i in active if matrix[i][pivot]]
        for i, ci in column:
            row_i = matrix[i]
            ratio = ci / d
            for j, cj in column:
                row_i[j] -= ratio * cj
    return True


def reference_jacobi(A, target, max_sweeps, forms=None):
    """Cyclic-by-row Jacobi sweeps on a symmetric matrix, in place.

    The plain two-sided rotation: rows p and q as vectors, then columns p
    and q from the rotated rows, then A[p, q] = A[q, p] = 0.  Its bits are
    the ones :func:`haar_riesz.gram._jacobi` must give, bit for bit.

    Returns (final off-diagonal Frobenius norm, sweeps used).  Its scalars
    are Python floats: they round as numpy's float64 scalars do, but a tiny
    A[p, q] sends tau to inf and t to 0 (no rotation) without an overflow
    warning.  When ``forms`` is a list, each sweep appends the list of its
    pairs' forms: "skip" when A[p, q] == 0.0, "c=1" when c == 1.0 exactly,
    else "c<1".
    """
    n = A.shape[0]
    sweeps = 0
    while sweeps < max_sweeps:
        off = float(np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum()))
        if off <= target:
            return off, sweeps
        sweep = []
        if forms is not None:
            forms.append(sweep)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(A[p, q])
                if apq == 0.0:
                    sweep.append("skip")
                    continue
                tau = (float(A[q, q]) - float(A[p, p])) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sweep.append("c=1" if c == 1.0 else "c<1")
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
        sweeps += 1
    off = float(np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum()))
    return off, sweeps


def reference_extreme_eigenvalues(matrix):
    """Reference (λ_min, λ_max): one Jacobi solve of the whole matrix.

    The library's earlier route, kept here unchanged as a differential
    reference for the block-by-block solve.
    """
    n = matrix.shape[0]
    if n == 0:
        raise InputError("eigenvalue bounds of an empty matrix are undefined")
    work = np.array(matrix, dtype=np.float64, copy=True)
    fro = float(np.sqrt((work * work).sum()))
    if fro == 0.0:
        return 0.0, 0.0
    target = _JACOBI_REL_TOL * fro
    off, sweeps = reference_jacobi(work, target, _JACOBI_MAX_SWEEPS)
    if off > target:
        raise ConvergenceError(
            f"Jacobi iteration did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off:.3e}, target {target:.3e})",
            residual=float(off),
        )
    diag = np.diag(work)
    return float(diag.min()), float(diag.max())


def reference_pencil_extremes(region: StepSet, p: Fraction, depth: int):
    """Reference (λ_min, λ_max, family size) of the normalized pencil: the
    Fraction route through enumerate_family, build_gram and eig_bounds.

    The library's earlier body, kept here unchanged as a differential
    reference for the pencil read off a count table.
    """
    family = enumerate_family(depth, region, p)
    if not family:
        return 1.0, 1.0, 0
    gram = build_gram(family, region, normalized=True)
    low, high = eig_bounds(gram)
    return low, high, len(family)


def reference_certified_lower_bound(
    region: StepSet, p: Fraction, depth: int, width: Fraction = Fraction(1, 1 << 20)
) -> Fraction:
    """Reference certified bracket: exact PSD bisection of [0, 2] on the
    Fraction Gram matrix of the set's admissible family.

    The library's earlier loop, kept here unchanged as a differential
    reference for the bracket taken on a count table.
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


def solved_blocks(extremes):
    """extremes() and the bytes of every block the eigen route solved for
    it, recorded through ``gram._block_extremes`` before the block is
    solved in place."""
    blocks = []
    solve = gram_module._block_extremes

    def recorded(block):
        blocks.append(block.tobytes())
        return solve(block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gram_module, "_block_extremes", recorded)
        return extremes(), blocks


def matrix_components(matrix):
    """Connected components of a matrix's off-diagonal nonzero pattern, by
    breadth-first search; each is a sorted list of indices (test-side)."""
    n = matrix.shape[0]
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, members = [start], []
        while queue:
            i = queue.pop()
            members.append(i)
            for j in range(n):
                if j != i and matrix[i, j] != 0 and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        out.append(sorted(members))
    return out


def reference_combination(coeffs: CoefficientMap, region: StepSet) -> PiecewiseConstant:
    """Reference Σ a_I · h_I · 1_E: one step-function sum per term.

    The library's earlier route, kept here unchanged as a differential
    reference for the one-sweep jump construction.
    """
    total = PiecewiseConstant.zero()
    for interval, a in coeffs.items():
        total = total + haar_function(interval) * a
    return total.restrict(region)


def fraction_split_failure(g1: Fraction, g2: Fraction, gm: Fraction, all_a: bool):
    """Reference split decision on curve values in Fraction arithmetic.

    K = (g1+g2)/2 − gm decides a = 0; with ``all_a`` the quadratic
    L·a² + B·a + K must be ≥ 0 for every real a.  Same return convention as
    the library's integer helper: "a0", "all-a" or None.
    """
    K = (g1 + g2) / 2 - gm
    if K < 0:
        return "a0"
    if not all_a:
        return None
    L = (g1 + g2) / 2 - 1
    B = g2 - g1
    ok = B * B <= 4 * L * K if L > 0 else (L == 0 and B == 0)
    return None if ok else "all-a"


def reference_verify_grid(cfg: WeightConfig, grid: int = 256) -> GridReport:
    """Exact verification of the split inequality and the mass bounds on the
    grid {k/grid : 0 ≤ k ≤ grid}.

    The library's earlier Fraction route, kept here unchanged as a
    differential reference for the integer-form grid decisions.

    Ordered pairs with midpoint ≥ p get the full all-a discriminant decision;
    all pairs get the a = 0 midpoint-convexity check; every grid point gets
    both mass bounds.  Failures are returned, not raised.
    """
    if grid < 1:
        raise InputError(f"grid must be >= 1, got {grid}")
    # precompute the curve on the half grid so midpoints stay on it
    half = [weight_mass(Fraction(k, 2 * grid), cfg) for k in range(2 * grid + 1)]
    cap = mass_cap(cfg)
    two_p = 2 * cfg.p
    gpos_failures = []
    for i in range(grid + 1):
        g1 = half[2 * i]
        for j in range(grid + 1):
            g2 = half[2 * j]
            gm = half[i + j]
            K = (g1 + g2) / 2 - gm
            if K < 0:
                gpos_failures.append((Fraction(i, grid), Fraction(j, grid), "a0"))
                continue
            if Fraction(i + j, grid) >= two_p:
                L = (g1 + g2) / 2 - 1
                B = g2 - g1
                ok = B * B <= 4 * L * K if L > 0 else (L == 0 and B == 0)
                if not ok:
                    gpos_failures.append(
                        (Fraction(i, grid), Fraction(j, grid), "all-a")
                    )
    gcomp_failures = []
    for k in range(grid + 1):
        q = Fraction(k, grid)
        g = half[2 * k]
        if not (q <= g and g <= cap * q):
            gcomp_failures.append(q)
    return GridReport(
        cfg.p, Fraction(1, grid), tuple(gpos_failures), tuple(gcomp_failures), cap
    )


# ---------------------------------------------------------------------------
# The library's earlier weight routines, kept here unchanged (bar the
# reference_ names they call each other by) as differential references for
# the one-sweep integer route: the literal curve formula, one density call
# per cell, and one Fraction partial sum per cell and level.  MAX_LEVEL is
# the library's level cap, as it was.


REFERENCE_MAX_LEVEL = 16


def reference_check_level(level: int):
    if level > REFERENCE_MAX_LEVEL:
        raise InputError(f"level must be <= {REFERENCE_MAX_LEVEL}, got {level}")


def reference_weight_mass_unclipped(q: Fraction, cfg: WeightConfig) -> Fraction:
    """The hyperbola branch on all of [0,1]; well defined since 2q ≤ 2 < 3p."""
    q = Fraction(q)
    p = cfg.p
    return 1 + (p * (2 - p)) / ((3 * p - 2) * (3 * p - 2 * q))


def reference_weight_mass(q: Fraction, cfg: WeightConfig) -> Fraction:
    """Weighted E-mass per unit cell length at density q (exact).

    Hyperbola branch for q ≥ p, linear continuation through the origin below.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise InputError(f"density must lie in [0,1], got {q}")
    p = cfg.p
    if q >= p:
        return reference_weight_mass_unclipped(q, cfg)
    return reference_weight_mass_unclipped(p, cfg) * q / p


def reference_weight_profile(region: StepSet, n: int, cfg: WeightConfig) -> WeightProfile:
    """The step-n weight: on each level-(n+1) cell the value weight_mass(q)/q.

    On cells the region misses entirely the weight is irrelevant (the weighted
    integrand vanishes there); it is set to weight_mass(p)/p, the constant
    value of the ratio on the whole linear branch, which keeps every profile
    value inside [1, C].
    """
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    reference_check_level(n)
    default = reference_weight_mass(cfg.p, cfg) / cfg.p
    values = {}
    for index in range(1 << (n + 1)):
        cell = DyadicInterval(n + 1, index)
        q = density(region, cell)
        values[cell] = reference_weight_mass(q, cfg) / q if q > 0 else default
    return WeightProfile(n + 1, values)


def reference_partial_sum_values(
    coeffs: CoefficientMap, max_level: int, cell_level: int
) -> list:
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


def reference_weighted_norm_sq(
    region: StepSet, coeffs: CoefficientMap, level: int, cfg: WeightConfig
) -> Fraction:
    """‖Σ_{level(I) ≤ level} a_I h_I 1_E‖² in L²(w_level), exactly.

    The combination is constant on level-(level+1) cells, where the weight is
    weight_mass(q)/q; each cell therefore contributes value²·weight_mass(q)·|cell|,
    which also settles the zero-density cells (weight_mass(0) = 0).
    """
    reference_check_level(level)
    cell_level = level + 1
    svals = reference_partial_sum_values(coeffs, level, cell_level)
    total = Fraction(0)
    for index, s in enumerate(svals):
        if s:
            cell = DyadicInterval(cell_level, index)
            q = density(region, cell)
            if q:
                total += s * s * reference_weight_mass(q, cfg) * cell.measure
    return total


def reference_step_rhs(
    region: StepSet, coeffs: CoefficientMap, n: int, cfg: WeightConfig
) -> Fraction:
    """Σ_{level(I) = n+1} ‖a_I h_I 1_E‖², after checking that the coefficients
    fit step n of :func:`reference_induction_step_check`."""
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


def reference_induction_step_check(
    region: StepSet, coeffs: CoefficientMap, n: int, cfg: WeightConfig
) -> StepResult:
    """Exact check of one descent level (see the library's
    ``induction_step_check``)."""
    reference_check_level(n + 1)
    rhs = reference_step_rhs(region, coeffs, n, cfg)
    lhs = reference_weighted_norm_sq(
        region, coeffs, n + 1, cfg
    ) - reference_weighted_norm_sq(region, coeffs, n, cfg)
    return StepResult(lhs >= rhs, lhs, rhs)


def reference_telescope_check(
    region: StepSet,
    coeffs: CoefficientMap,
    cfg: WeightConfig,
    top_level=None,
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
    reference_check_level(k)
    # the level-n norm only sees coefficients on levels ≤ n, so each level is
    # computed once and serves as the new side of step n−1 and the old of step n
    norms = [reference_weighted_norm_sq(region, coeffs, 0, cfg)]
    root = DyadicInterval(0, 0)
    base_rhs = coeffs[root] ** 2 * intersect_measure(region, root)
    steps = []
    for n in range(k):
        rhs = reference_step_rhs(region, coeffs.restrict(n + 1), n, cfg)
        norms.append(reference_weighted_norm_sq(region, coeffs, n + 1, cfg))
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
