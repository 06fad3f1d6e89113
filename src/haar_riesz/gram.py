"""Exact Gram matrices of restricted Haar families.

Two verification routes live here and are kept deliberately independent:

* an exact route — one rational LDLᵀ, eliminating members from the last
  index to the first, decides positive semidefiniteness of the pencil
  G − c·D with no rounding at all;
* a float route — one cyclic Jacobi eigensolver on the float64 view, used
  to drive searches and to cross-check the exact certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, InputError
from .measure import DyadicInterval, StepSet, measures_below
from .rational import format_rational, render_float

@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of exact inner products of a finite vector family.

    ``entries`` always holds the raw rational inner products.  When
    ``normalized`` is set the matrix *represents* the family v_i/‖v_i‖; those
    entries involve square roots of rationals, so they are materialized only
    in the float view (:meth:`as_float`), while every exact computation works
    on the equivalent pencil form with the diagonal.
    """

    entries: Tuple[Tuple[Fraction, ...], ...]
    labels: Optional[Tuple[DyadicInterval, ...]] = None
    normalized: bool = False

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in self.entries
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
        if self.labels is not None and len(self.labels) != n:
            raise InputError("label count must match matrix size")
        if self.normalized and any(rows[i][i] <= 0 for i in range(n)):
            raise InputError("normalized Gram matrix requires positive diagonal")
        object.__setattr__(self, "entries", rows)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def diagonal(self) -> Tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.size))

    def as_float(self) -> np.ndarray:
        """Float64 view; applies the 1/√(G_ii·G_jj) normalization if flagged."""
        n = self.size
        out = np.empty((n, n), dtype=np.float64)
        if self.normalized:
            scale = [float(d) ** -0.5 for d in self.diagonal]
            for i in range(n):
                out[i, i] = 1.0  # exactly 1 by definition; avoid √ round-trip
                for j in range(i):
                    value = float(self.entries[i][j]) * scale[i] * scale[j]
                    out[i, j] = value
                    out[j, i] = value
        else:
            for i in range(n):
                for j in range(n):
                    out[i, j] = float(self.entries[i][j])
        return out

    def to_json_dict(self) -> dict:
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


def build_gram(
    family: Sequence[DyadicInterval], region: StepSet, normalized: bool = False
) -> GramMatrix:
    """Exact Gram matrix of {h_I · 1_E : I in family}.

    Dyadic intervals are nested or disjoint, so the only nonzero entries pair
    a member with its ancestors: for J ⊋ I, ⟨h_I 1_E, h_J 1_E⟩ = ±(|rh(I)∩E| −
    |lh(I)∩E|), with + when I ⊂ rh(J).  Each member's mass and slope come from
    one sweep of E, and the entries are filled along each member's ancestor
    chain: O(n·depth) entries, and no table over a whole dyadic level.
    """
    family = tuple(family)
    n = len(family)
    top = max((interval.level for interval in family), default=0) + 1
    # ends of each member and of its halves, in units of 2^-top
    ends = [
        (interval.index << (top - interval.level), 1 << (top - interval.level - 1))
        for interval in family
    ]
    points = sorted({left + k * half for left, half in ends for k in (0, 1, 2)})
    below = dict(
        zip(points, measures_below(region, [Fraction(x, 1 << top) for x in points]))
    )
    mass, slope = [], []
    for left, half in ends:
        lo, mid, hi = below[left], below[left + half], below[left + 2 * half]
        mass.append(hi - lo)
        slope.append((hi - mid) - (mid - lo))
    if normalized:
        for interval, m in zip(family, mass):
            if m == 0:
                raise InputError(
                    f"cannot normalize: {interval} has zero restricted norm"
                )

    positions: dict[Tuple[int, int], list[int]] = {}
    for i, interval in enumerate(family):
        positions.setdefault((interval.level, interval.index), []).append(i)
    zero = Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    for i, interval in enumerate(family):
        level, index = interval.level, interval.index
        for j in positions[level, index]:  # the member itself and any repeats
            rows[i][j] = mass[i]
        s = slope[i]
        if not s:
            continue
        for shift in range(1, level + 1):
            ancestor = (level - shift, index >> shift)
            # I lies in the right half of the ancestor iff this index bit is set
            value = s if (index >> (shift - 1)) & 1 else -s
            for j in positions.get(ancestor, ()):
                rows[i][j] = value
                rows[j][i] = value
    return GramMatrix(tuple(tuple(row) for row in rows), family, normalized)


# --------------------------------------------------------------------------
# exact PSD certificate


def _exact_psd(rows) -> bool:
    """Decide positive semidefiniteness of a symmetric rational matrix, exactly.

    LDLᵀ that eliminates k = n−1, …, 0, on a store of each row's nonzero
    entries left of the diagonal: eliminating k updates only rows of lower
    index, so the entries right of the diagonal are never needed.  A negative
    pivot is a witness of indefiniteness.  A zero pivot whose row still holds
    an entry m leaves a 2×2 principal minor [[a, m], [m, 0]] of determinant
    −m² < 0, so the matrix is not PSD; a zero pivot with an empty row splits
    off a zero row and is skipped.  Entries that cancel to zero are dropped,
    so "empty" is exact.

    Any order gives an exact verdict: a simultaneous row/column permutation
    does not change definiteness, and with a positive pivot the matrix is PSD
    exactly when the Schur complement left by eliminating it is.  The order
    only decides the fill-in.  Families come in (level, index) order, so
    reverse index order eliminates each member before its ancestors.  A
    member's remaining neighbours are then ancestors of it, which are nested
    in one another, so fill-in stays on pairs that are nested already.
    """
    diag = [row[i] for i, row in enumerate(rows)]
    lower = [{j: x for j, x in enumerate(row[:i]) if x} for i, row in enumerate(rows)]
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
    approximate.
    """
    shift = Fraction(shift)
    diag = [Fraction(d) for d in diag]
    if len(diag) != gram.size:
        raise InputError(
            f"diagonal length {len(diag)} does not match matrix size {gram.size}"
        )
    n = gram.size
    rows = [list(gram.entries[i]) for i in range(n)]
    for i in range(n):
        rows[i][i] -= shift * diag[i]
    return _exact_psd(rows)


def verify_riesz(
    family: Sequence[DyadicInterval], region: StepSet, c: Fraction
) -> bool:
    """Exactly decide ‖Σ a_I h_I 1_E‖² ≥ c · Σ a_I² ‖h_I 1_E‖² over the family.

    Works on the unnormalized pencil G − c·D with D the diagonal of restricted
    norms, so no square roots are ever materialized.
    """
    gram = build_gram(family, region, normalized=False)
    return psd_certificate(gram, Fraction(c), gram.diagonal)


def bessel_certificate(gram: GramMatrix, p: Fraction) -> bool:
    """Exact truth of the upper bound (1/p)·D − G ⪰ 0, D the diagonal of G."""
    p = Fraction(p)
    if not 0 < p <= 1:
        raise InputError(f"threshold must satisfy 0 < p <= 1, got {p}")
    n = gram.size
    rows = [[-x if x else x for x in gram.entries[i]] for i in range(n)]
    for i in range(n):
        rows[i][i] += gram.entries[i][i] / p
    return _exact_psd(rows)


def verify_bessel(
    family: Sequence[DyadicInterval], region: StepSet, p: Fraction
) -> bool:
    """Exact truth of the upper bound (1/p)·D − G ⪰ 0 on an admissible family."""
    return bessel_certificate(build_gram(family, region, normalized=False), p)


# --------------------------------------------------------------------------
# float eigensolver (cyclic Jacobi)

_JACOBI_REL_TOL = 1e-14  # stop when off-diagonal Frobenius mass < this × ‖A‖_F
_JACOBI_MAX_SWEEPS = 64


def _jacobi(A, target, max_sweeps):
    """Cyclic-by-row Jacobi sweeps on a symmetric matrix, in place.

    Returns (final off-diagonal Frobenius norm, sweeps used).  Each rotation
    updates two rows and two columns as vectors.  Its scalars are Python
    floats: they round as numpy's float64 scalars do, but a tiny A[p, q]
    sends tau to inf and t to 0 (no rotation) without an overflow warning.
    """
    n = A.shape[0]
    sweeps = 0
    while sweeps < max_sweeps:
        off = float(np.sqrt(2.0 * (np.triu(A, 1) ** 2).sum()))
        if off <= target:
            return off, sweeps
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(A[p, q])
                if apq == 0.0:
                    continue
                tau = (float(A[q, q]) - float(A[p, p])) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
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


def _extreme_eigenvalues(matrix: np.ndarray) -> Tuple[float, float]:
    n = matrix.shape[0]
    if n == 0:
        raise InputError("eigenvalue bounds of an empty matrix are undefined")
    work = np.array(matrix, dtype=np.float64, copy=True)
    fro = float(np.sqrt((work * work).sum()))
    if fro == 0.0:
        return 0.0, 0.0
    target = _JACOBI_REL_TOL * fro
    off, sweeps = _jacobi(work, target, _JACOBI_MAX_SWEEPS)
    if off > target:
        raise ConvergenceError(
            f"Jacobi iteration did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {off:.3e}, target {target:.3e})",
            residual=float(off),
        )
    diag = np.diag(work)
    return float(diag.min()), float(diag.max())


def eig_bounds(gram: GramMatrix) -> Tuple[float, float]:
    """(λ_min, λ_max) of the float view via cyclic Jacobi.

    Sweeps run until the off-diagonal Frobenius mass is at most 1e−14 · ‖G‖_F,
    so both ends are accurate to about that much in absolute terms,
    comfortably inside 1e−10 for the well-scaled matrices produced here.  The
    result is deterministic, bit for bit, and no sweep raises a float warning.
    Raises :class:`ConvergenceError` after 64 sweeps without convergence.
    """
    return _extreme_eigenvalues(gram.as_float())


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


def perturbation_demo(n: int) -> PerturbationDemo:
    """Recenter n orthonormal vectors by their mean: u_i' = u_i − (u_1+…+u_n)/n.

    Each vector moves by only ‖u_i − u_i'‖² = 1/n, yet the recentered family
    sums to zero — small perturbations of an orthonormal family need not stay
    a Riesz sequence.  Everything is computed from the exact Gram matrix
    ⟨u_i', u_j'⟩ = δ_ij − 1/n; the vectors themselves are never instantiated.
    """
    if n < 2:
        raise InputError(f"need at least 2 vectors, got {n}")
    q = Fraction(1, n)
    entries = tuple(
        tuple((1 - q) if i == j else -q for j in range(n)) for i in range(n)
    )
    gram = GramMatrix(entries, labels=None, normalized=False)
    sum_norm_sq = sum(gram.diagonal, Fraction(0))
    norm_of_sum_sq = sum((x for row in gram.entries for x in row), Fraction(0))
    per_vector = q * q * n  # ‖(1/n)·u‖² with ‖u‖² = n
    return PerturbationDemo(n, sum_norm_sq, norm_of_sum_sq, per_vector, gram)
