"""Exact Gram matrices of restricted Haar families.

A Gram matrix is kept as its diagonal and each row's nonzero entries left
of it.  A family's entries, O(n·depth) of them, are written by one walk up
each member's ancestor chain (:func:`_chain_store`), never pair by pair;
dense rows only on request.

Two verification routes live here and are kept deliberately independent:

* an exact route — the paper's level-by-level induction run as an
  elimination, :func:`_pivot_psd`: one pass over a family's members, deepest
  first, decides positive semidefiniteness of the pencil G − c·D with no
  rounding at all and no matrix.  It decides every family verdict, from
  integer masses and slopes: :func:`verify_riesz`, :func:`verify_bessel`,
  the ``gram`` command's ``--c``/``--bessel`` verdicts and the search's
  certified brackets (read off its count table).  A given Gram matrix, with
  no tree behind it, is decided by one rational LDLᵀ (:func:`_ldlt_psd`,
  through :func:`psd_certificate`), which the tests use as the pass's
  independent reference;
* a float route — one cyclic Jacobi eigensolver on the float64 view, used
  to drive searches and to cross-check the exact certificates.  Two members
  of a family share a nonzero entry only when one is an ancestor of the
  other, so the view splits into independent blocks under non-member
  ancestors, found from the store; each block is built from its own store
  and solved apart, so no n×n float matrix is built but to print one, and a
  search can reuse the value of a block that a flip left unchanged.  A
  block is bitwise symmetric, so a rotation computes its two new rows in
  place and copies row q into column q; column p, read only at the corners
  it rotates, is copied once per pivot row, and an exact c = 1 rotation
  skips the products by c: the bits of a two-sided rotation at a fraction
  of its numpy calls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, InputError
from .haar import check_threshold
from .measure import DyadicInterval, StepSet, measures_below
from .rational import format_rational, render_float

MAX_DENSE = 2048  # members of a float-route family or a printed view: 32 MiB of float64


def check_dense(size: int):
    """Refuse a dense matrix of more than MAX_DENSE members before it is built."""
    if size > MAX_DENSE:
        raise InputError(
            f"a dense matrix of {size} members exceeds the cap of {MAX_DENSE}"
        )


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of exact inner products of a finite vector family.

    The one store: ``diagonal`` and, in ``lower[i]``, row i's nonzero raw
    rational inner products left of the diagonal as (j, G_ij), j ascending.
    A family's store comes from :func:`build_gram`; any other matrix is
    given as its store, which is symmetric by construction.  Dense
    ``entries`` are built on request.  When ``normalized`` is set the matrix
    *represents* the family v_i/‖v_i‖; those entries involve square roots of
    rationals, so they are materialized only in the float view
    (:meth:`as_float`), while every exact computation works on the
    equivalent pencil form with the diagonal.
    """

    diagonal: Tuple[Fraction, ...]
    lower: Tuple[Tuple[Tuple[int, Fraction], ...], ...]
    labels: Optional[Tuple[DyadicInterval, ...]] = None
    normalized: bool = False

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.size:
            raise InputError("label count must match matrix size")
        if self.normalized and any(d <= 0 for d in self.diagonal):
            raise InputError("normalized Gram matrix requires positive diagonal")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return len(self.diagonal)

    @cached_property
    def entries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The dense matrix, built from the store on first use."""
        check_dense(self.size)
        zero = Fraction(0)
        rows = [[zero] * self.size for _ in self.diagonal]
        for i, (d, row) in enumerate(zip(self.diagonal, self.lower)):
            rows[i][i] = d
            for j, x in row:
                rows[i][j] = rows[j][i] = x
        return tuple(map(tuple, rows))

    def as_float(self) -> np.ndarray:
        """Float64 view; applies the 1/√(G_ii·G_jj) normalization if flagged.

        For printing; the eigen route builds each block with the same helper,
        :func:`float_view`, bit for bit the block cut from this view.
        """
        return float_view([float(d) for d in self.diagonal], self.lower, self.normalized)

    def to_json_dict(self) -> dict:
        """The exact raw entries G_ij as rationals, with ``normalized``
        telling whether the matrix represents v_i/‖v_i‖: the normalized
        entries involve square roots, so they appear only in the float view
        (:meth:`as_float`, :meth:`to_csv`)."""
        return {
            "size": self.size,
            "normalized": self.normalized,
            "labels": None
            if self.labels is None
            else [{"level": i.level, "index": i.index} for i in self.labels],
            "entries": [[format_rational(x) for x in row] for row in self.entries],
        }

    def to_csv(self, precision: int = 17) -> str:
        """Plot-ready CSV of the float view."""
        rows = self.as_float()
        return "\n".join(
            ",".join(render_float(x, precision) for x in row) for row in rows
        ) + ("\n" if self.size else "")


def float_view(
    diagonal: Sequence[float], lower: Sequence[Sequence], normalized: bool
) -> np.ndarray:
    """Symmetric float64 matrix from its diagonal and the entries left of it,
    stored as in :class:`GramMatrix`.  When ``normalized`` is set, the
    diagonal is 1 and the entry x at (i, j) becomes (x·s_i)·s_j with
    s_i = diagonal[i]^(−1/2), multiplied in that order, so every caller gets
    the same bits for the same entries.
    """
    n = len(diagonal)
    check_dense(n)
    rows = np.array([i for i, row in enumerate(lower) for _ in row], dtype=np.intp)
    cols = np.array([j for row in lower for j, _ in row], dtype=np.intp)
    values = np.array([float(x) for row in lower for _, x in row], dtype=np.float64)
    out = np.zeros((n, n), dtype=np.float64)
    if normalized:
        scale = np.array([d ** -0.5 for d in diagonal], dtype=np.float64)
        values = values * scale[rows] * scale[cols]
        np.fill_diagonal(out, 1.0)  # exactly 1 by definition; avoid √ round-trip
    else:
        np.fill_diagonal(out, diagonal)
    out[rows, cols] = values
    out[cols, rows] = values
    return out


def _chain_store(nodes: Sequence[int], mass: Sequence, slope: Sequence) -> tuple:
    """(diagonal, lower) of a family's Gram matrix from each member's mass
    |I∩E| and slope |rh(I)∩E| − |lh(I)∩E|; members are heap numbers
    (2^level + index, parent v >> 1) in any order, repeats allowed.  For
    J ⊋ I the entry is ±slope(I), + when I ⊂ rh(J); copies of one interval
    share its mass, and every other pair is orthogonal.
    """
    positions: dict = {}
    for k, v in enumerate(nodes):
        positions.setdefault(v, []).append(k)
    lower = [[] for _ in nodes]
    for same in positions.values():  # copies of one interval share its mass
        for a in range(1, len(same)):
            i = same[a]
            if mass[i]:
                lower[i] += [(j, mass[i]) for j in same[:a]]
    for i, (v, s) in enumerate(zip(nodes, slope)):
        if not s:
            continue
        row = lower[i]
        while v > 1:
            value = s if v & 1 else -s  # + iff the member is in v's parent's right half
            v >>= 1
            for j in positions.get(v, ()):
                if j < i:
                    row.append((j, value))
                else:
                    lower[j].append((i, value))
    for row in lower:
        row.sort()  # the columns in a row are distinct
    return tuple(mass), tuple(map(tuple, lower))


def _member_measures(family: Sequence[DyadicInterval], region: StepSet) -> tuple:
    """(nodes, unit, mass, slope): member i is heap node nodes[i] =
    2^level + index, with |I∩E| = mass[i]/unit and |rh(I)∩E| − |lh(I)∩E| =
    slope[i]/unit, all integers from one :func:`measures_below` sweep at the
    members' ends and midpoints."""
    top = max((interval.level for interval in family), default=0) + 1
    # ends of each member and of its halves, in units of 2^-top
    ends = [
        (interval.index << (top - interval.level), 1 << (top - interval.level - 1))
        for interval in family
    ]
    points = sorted({left + k * half for left, half in ends for k in (0, 1, 2)})
    unit, values = measures_below(region, top, points)
    below = dict(zip(points, values))
    mass, slope = [], []
    for left, half in ends:
        lo, mid, hi = below[left], below[left + half], below[left + 2 * half]
        mass.append(hi - lo)
        slope.append((hi - mid) - (mid - lo))
    nodes = [(1 << interval.level) | interval.index for interval in family]
    return nodes, unit, mass, slope


def build_gram(
    family: Sequence[DyadicInterval], region: StepSet, normalized: bool = False
) -> GramMatrix:
    """Exact Gram matrix of {h_I · 1_E : I in family}.

    Dyadic intervals are nested or disjoint, so the only nonzero entries pair
    a member with its ancestors: for J ⊋ I, ⟨h_I 1_E, h_J 1_E⟩ = ±(|rh(I)∩E| −
    |lh(I)∩E|), with + when I ⊂ rh(J).  Each member's mass and slope come from
    one sweep of E (:func:`_member_measures`), and :func:`_chain_store` writes
    the entries along each member's ancestor chain: O(n·depth) entries, and
    no dense matrix.
    """
    family = tuple(family)
    nodes, unit, mass, slope = _member_measures(family, region)
    mass = [Fraction(m, unit) for m in mass]
    if normalized:
        for interval, m in zip(family, mass):
            if m == 0:
                raise InputError(
                    f"cannot normalize: {interval} has zero restricted norm"
                )
    diagonal, lower = _chain_store(nodes, mass, [Fraction(s, unit) for s in slope])
    return GramMatrix(diagonal, lower, family, normalized)


# --------------------------------------------------------------------------
# exact PSD certificate


def _ldlt_psd(diag: list, lower: list) -> bool:
    """Exact PSD verdict from a diagonal and a store {j: entry} of each row's
    nonzero entries left of the diagonal; both are consumed.

    LDLᵀ that eliminates k = n−1, …, 0: eliminating k updates only rows of
    lower index, so the entries right of the diagonal are never needed.  A
    negative pivot is a witness of indefiniteness.  A zero pivot whose row
    still holds an entry m leaves a 2×2 principal minor [[a, m], [m, 0]] of
    determinant −m² < 0, so the matrix is not PSD; a zero pivot with an empty
    row splits off a zero row and is skipped.  Entries that cancel to zero
    are dropped, so "empty" is exact.

    Any order gives an exact verdict: a simultaneous row/column permutation
    does not change definiteness, and with a positive pivot the matrix is PSD
    exactly when the Schur complement left by eliminating it is.  The order
    only decides the fill-in.  Families come in (level, index) order, so
    reverse index order eliminates each member before its ancestors.  A
    member's remaining neighbours are then ancestors of it, which are nested
    in one another, so fill-in stays on pairs that are nested already.
    """
    while lower:
        d = diag.pop()
        if d < 0:
            return False
        column = sorted(lower.pop().items())
        if d == 0:
            if column:
                return False
            continue
        for a, (i, ci) in enumerate(column):
            ratio = ci / d
            diag[i] -= ratio * ci
            row_i = lower[i]
            for j, cj in column[:a]:
                value = row_i.get(j, 0) - ratio * cj
                if value:
                    row_i[j] = value
                else:
                    row_i.pop(j, None)
    return True


def psd_certificate(
    gram: GramMatrix, shift: Fraction, diag: Sequence[Fraction]
) -> bool:
    """Exact truth of G − shift·diag(D) ⪰ 0.

    This is the pencil form of the lower Riesz inequality with constant
    ``shift`` when D carries the squared norms; the answer is exact, never
    approximate.  The off-diagonal entries are copied from the Gram matrix's
    store of nonzero entries, so the cost of the copy is O(n + nonzeros).
    """
    shift = Fraction(shift)
    diag = [Fraction(d) for d in diag]
    if len(diag) != gram.size:
        raise InputError(
            f"diagonal length {len(diag)} does not match matrix size {gram.size}"
        )
    pivots = [g - shift * d for g, d in zip(gram.diagonal, diag)]
    return _ldlt_psd(pivots, [dict(row) for row in gram.lower])


def _pivot_psd(nodes: Sequence[int], pivots: Sequence, slopes: Sequence) -> bool:
    """Exact truth of G − c·D ⪰ 0 for distinct dyadic members, from each
    member's diagonal entry pivots[i] = G_ii − c·D_ii and slope slopes[i] =
    s_i, where G[I, J] = ±s_I for members I ⊊ J, + when I ⊂ rh(J), and every
    other pair is orthogonal.  Members are heap numbers nodes[i] (2^level +
    index, parent v >> 1) in any order and at any level; pivots are
    Fractions.

    The paper's level-by-level induction as an elimination: the members are
    visited in descending node number, so each goes before its ancestors.
    Member v keeps L and R, the sums of t over the members below it in its
    left and right halves; eliminating them leaves v the pivot G_vv − c·D_vv
    − L − R and, towards every member ancestor, the slope s_v − (R − L).  A
    negative pivot means not PSD; so does a zero pivot whose slope survives
    under a member ancestor (a 2×2 minor of determinant −slope²).
    Otherwise t = slope²/pivot, or 0 at a zero pivot, and L + R + t goes to
    v's nearest member ancestor, into the half that holds v.  No matrix is
    built: O(n·depth) steps.
    """
    entry = dict(zip(nodes, zip(pivots, slopes)))
    below: dict = {}  # half 2a or 2a + 1 of member a -> the sum of t under it
    for v in sorted(entry, reverse=True):
        pivot, slope = entry[v]
        left, right = below.pop(2 * v, 0), below.pop(2 * v + 1, 0)
        total = left + right
        pivot -= total
        slope -= right - left
        if pivot < 0:
            return False
        half = v  # climbs to the half of v's nearest member ancestor that holds v
        while half > 1 and half >> 1 not in entry:
            half >>= 1
        if half == 1:
            continue
        if pivot:
            total += slope * slope / pivot
        elif slope:
            return False
        below[half] = below[half] + total if half in below else total
    return True


def _folded_members(family: Sequence[DyadicInterval], region: StepSet) -> tuple:
    """(nodes, mass, slope, copies) of the family's distinct members: integer
    masses and slopes over one unit, as in :func:`_member_measures`, and how
    often each member is listed."""
    copies = Counter(family)
    nodes, _, mass, slope = _member_measures(list(copies), region)
    return nodes, mass, slope, list(copies.values())


def verify_riesz(
    family: Sequence[DyadicInterval], region: StepSet, c: Fraction
) -> bool:
    """Exactly decide ‖Σ a_I h_I 1_E‖² ≥ c · Σ a_I² ‖h_I 1_E‖² over the family.

    Decided by :func:`_pivot_psd` on the pencil G − c·D, D the diagonal of
    restricted norms, with pivots (1 − c)·|I∩E|; G and D are scaled alike by
    the sweep's unit, so no Fraction Gram matrix and no square root is
    built.  With c > 0, a member of positive mass listed twice fails: the
    coefficients a and −a on its copies make the left side 0 and the right
    side positive.  Members of zero mass drop out on their own.
    """
    c = Fraction(c)
    nodes, mass, slope, copies = _folded_members(family, region)
    if c > 0 and any(k > 1 and m for m, k in zip(mass, copies)):
        return False
    keep = 1 - c
    return _pivot_psd(nodes, [keep * m for m in mass], slope)


def verify_bessel(
    family: Sequence[DyadicInterval], region: StepSet, p: Fraction
) -> bool:
    """Exact truth of the upper bound (1/p)·D − G ⪰ 0 on a family.

    Decided by :func:`_pivot_psd` with pivots (1/p − 1)·|I∩E| and the slopes
    negated.  The k copies of a member listed k times act as one member
    whose D-entry is |I∩E|/k: for a fixed sum b of their coefficients, the
    spread Σ a² is least, b²/k, when the coefficients are equal.  So its
    pivot is (1/(p·k) − 1)·|I∩E|.
    """
    p = check_threshold(p)
    nodes, mass, slope, copies = _folded_members(family, region)
    pivots = [(1 / (p * k) - 1) * m for m, k in zip(mass, copies)]
    return _pivot_psd(nodes, pivots, [-s for s in slope])


# --------------------------------------------------------------------------
# float eigensolver (cyclic Jacobi)

_JACOBI_REL_TOL = 1e-14  # stop when off-diagonal Frobenius mass < this × ‖A‖_F
_JACOBI_MAX_SWEEPS = 64


def _jacobi(A, target, max_sweeps):
    """Cyclic-by-row Jacobi sweeps on a bitwise symmetric matrix, in place.

    Returns (final off-diagonal Frobenius norm, sweeps used).  A must be
    bitwise symmetric (``np.array_equal(A, A.T)``), as every block that
    :func:`float_view` builds is.  The bits are those of the two-sided
    rotation that updates rows p and q and then columns p and q, with three
    savings, each exact:

    * The new rows p and q are written in place from the products c·r_p,
      s·r_q, s·r_p and c·r_q, held in buffers allocated once per call; row q
      is then copied into column q.  Off the 2×2 corner that copy is the
      column rotation, since A[k, p] = A[p, k] for every other k.  Column q
      is copied at every rotation, because a later row q' > q reads A[q', q].
    * Column p is copied from row p once, after the last q of pivot row p.
      Until then A[q, p] is stale, but rotation (p, q) carries it only into
      positions (p, p), (q, p) and, by the column-q copy, (p, q), which the
      corner formulas or that copy overwrite; nothing else reads column p.
    * c and s are passed as reused 0-d float64 operands, which round each
      product as the Python floats do.  When c is exactly 1.0, c·x = x in
      IEEE 754, so the rotation takes s·r_q and s·r_p alone.

    The corner is rotated from its old entries in Python floats, rows first
    and then columns as a two-sided rotation does; every product and
    difference rounds once, as numpy's float64 operations do, and the
    rotated matrix is bitwise symmetric again.  A tiny A[p, q] sends tau to
    inf and t to 0 (no rotation) without an overflow warning.
    """
    n = A.shape[0]
    rows = list(A)  # row views: writes go into A
    c0, s0 = np.empty(()), np.empty(())
    cp, sq, sp, cq = (np.empty(n) for _ in range(4))
    sweeps = 0
    while sweeps < max_sweeps:
        off = float(np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum()))
        if off <= target:
            return off, sweeps
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                apq = row_p.item(q)
                if apq == 0.0:
                    continue
                row_q = rows[q]
                app = row_p.item(p)
                aqq = row_q.item(q)
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s0[()] = s
                np.multiply(row_q, s0, sq)
                np.multiply(row_p, s0, sp)
                if c == 1.0:
                    np.subtract(row_p, sq, row_p)
                    np.add(sp, row_q, row_q)
                else:
                    c0[()] = c
                    np.multiply(row_p, c0, cp)
                    np.multiply(row_q, c0, cq)
                    np.subtract(cp, sq, row_p)
                    np.add(sp, cq, row_q)
                A[:, q] = row_q
                rpp = c * app - s * apq
                rpq = c * apq - s * aqq
                rqp = s * app + c * apq
                rqq = s * apq + c * aqq
                row_p[p] = c * rpp - s * rpq
                row_q[q] = s * rqp + c * rqq
                row_p[q] = 0.0
            A[:, p] = row_p
        sweeps += 1
    off = float(np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum()))
    return off, sweeps


def _components(lower: Sequence[Sequence]) -> list:
    """Connected components of a store's nonzero entries (j, x), x ≠ 0, by
    union-find; each is a list of indices in ascending order."""
    parent = list(range(len(lower)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(lower):
        for j, x in row:
            a, b = find(i), find(j)
            if x and a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _block_extremes(block: np.ndarray) -> Tuple[float, float]:
    """Extreme eigenvalues of one block by Jacobi, in place, to within
    1e−14 · ‖block‖_F.  The block must be bitwise symmetric: :func:`_jacobi`
    writes each rotated row into its column and copies column p once per
    pivot row, which gives the two-sided rotation's bits only then."""
    fro = float(np.sqrt((block * block).sum()))
    if fro == 0.0:
        return 0.0, 0.0
    target = _JACOBI_REL_TOL * fro
    off, sweeps = _jacobi(block, target, _JACOBI_MAX_SWEEPS)
    if off > target:
        raise ConvergenceError(
            f"Jacobi iteration did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off:.3e}, target {target:.3e})",
            residual=float(off),
        )
    diag = np.diag(block)
    return float(diag.min()), float(diag.max())


MAX_MEMO_BYTES = 64 << 20  # key bytes a search's block memo holds before it starts over


class _BlockMemo(dict):
    """Extremes of solved blocks keyed by the blocks' bytes, for one search.

    An insertion that would take the keys past MAX_MEMO_BYTES clears the
    memo first, so it holds at most that many key bytes, or one key that is
    larger alone.  A block's extremes depend only on its bytes, so a clear
    costs solving again and moves no result.
    """

    key_bytes = 0

    def __setitem__(self, key: bytes, value):
        if self.key_bytes + len(key) > MAX_MEMO_BYTES:
            self.clear()
            self.key_bytes = 0
        self.key_bytes += len(key)
        super().__setitem__(key, value)


def _extreme_eigenvalues(
    diagonal: Sequence[float], lower: Sequence[Sequence], normalized: bool, memo: dict
) -> Tuple[float, float]:
    """(λ_min, λ_max) of a store's :func:`float_view`, solved block by block.

    The blocks are the components of the store's nonzero entries; the
    spectrum is the union of theirs.  A 1×1 block's value is its diagonal
    entry (1.0 when normalized).  A larger block is the :func:`float_view` of
    its own store, members ascending: the bytes of the block cut from the
    whole view.  It is solved by :func:`_jacobi`, or read from ``memo`` when
    a block of its bytes was solved before; a connected view is one block.
    """
    if not diagonal:
        raise InputError("eigenvalue bounds of an empty matrix are undefined")
    check_dense(len(diagonal))
    low, high = math.inf, -math.inf
    for members in _components(lower):
        if len(members) == 1:
            block_low = block_high = 1.0 if normalized else float(diagonal[members[0]])
        else:
            position = {m: k for k, m in enumerate(members)}
            block = float_view(
                [diagonal[m] for m in members],
                [[(position[j], x) for j, x in lower[m]] for m in members],
                normalized,
            )
            key = block.tobytes()
            if key not in memo:
                memo[key] = _block_extremes(block)
            block_low, block_high = memo[key]
        low, high = min(low, block_low), max(high, block_high)
    return low, high


def eig_bounds(gram: GramMatrix) -> Tuple[float, float]:
    """(λ_min, λ_max) of the float view via cyclic Jacobi, block by block.

    Dyadic intervals are nested or disjoint, so the view splits into
    independent blocks, each built from the store alone
    (:func:`_extreme_eigenvalues`).  Each block's sweeps run until its
    off-diagonal Frobenius mass is at most 1e−14 times its own Frobenius
    norm, so its extreme eigenvalues are accurate to about that much in
    absolute terms.  Each block is bitwise symmetric, which lets each
    rotation update two rows in place, copy row q into column q and leave
    column p to one copy per pivot row, with a shorter rotation when c is
    exactly 1 (see :func:`_jacobi`).  The whole matrix's extremes are the
    extremes of its blocks' values and each block's norm is at most ‖G‖_F,
    so the same bound holds for the whole matrix: comfortably inside 1e−10
    for the well-scaled matrices produced here.  The result is
    deterministic, bit for bit, and no sweep raises a float warning.  Raises
    :class:`ConvergenceError` when a block has not converged after 64
    sweeps.
    """
    diagonal = [float(d) for d in gram.diagonal]
    return _extreme_eigenvalues(diagonal, gram.lower, gram.normalized, {})


# --------------------------------------------------------------------------
# mean-recentering demo


@dataclass(frozen=True)
class PerturbationDemo:
    """Gram-level record of recentering n orthonormal vectors by their mean."""

    n: int
    sum_norm_sq: Fraction
    norm_of_sum_sq: Fraction
    per_vector_perturbation: Fraction
    gram: GramMatrix


MAX_VECTORS = 500  # perturbation_demo stores n(n−1)/2 entries: about 125k at the cap


def perturbation_demo(n: int) -> PerturbationDemo:
    """Recenter n orthonormal vectors by their mean: u_i' = u_i − (u_1+…+u_n)/n.

    Each vector moves by only ‖u_i − u_i'‖² = 1/n, yet the recentered family
    sums to zero — small perturbations of an orthonormal family need not stay
    a Riesz sequence.  Everything is computed from the exact Gram matrix
    ⟨u_i', u_j'⟩ = δ_ij − 1/n; the vectors themselves are never instantiated.
    """
    if n < 2:
        raise InputError(f"need at least 2 vectors, got {n}")
    if n > MAX_VECTORS:
        raise InputError(f"need at most {MAX_VECTORS} vectors, got {n}")
    q = Fraction(1, n)
    lower = tuple(tuple((j, -q) for j in range(i)) for i in range(n))
    gram = GramMatrix((1 - q,) * n, lower)
    sum_norm_sq = sum(gram.diagonal, Fraction(0))
    off_diagonal = sum((x for row in gram.lower for _, x in row), Fraction(0))
    norm_of_sum_sq = sum_norm_sq + 2 * off_diagonal
    per_vector = q * q * n  # ‖(1/n)·u‖² with ‖u‖² = n
    return PerturbationDemo(n, sum_norm_sq, norm_of_sum_sq, per_vector, gram)
