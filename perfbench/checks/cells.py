"""Cell-vector oracle: restricted Haar functions as explicit vectors.

A step set whose endpoints lie on the grid of ``cells`` equal cells is a 0/1
mask; h_I·1_E is a vector of −1, 0 and +1 on that grid.  Inner products are
then integer dot products divided by ``cells``, so the Gram matrix is exact
in float64 as well as over the rationals.  Densities are integer counts
compared with the threshold's numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def grid_cells(resolution: int, depth: int) -> int:
    """Cells fine enough to hold both the set and every half of a level-depth interval."""
    return 1 << max(resolution, depth + 1)


def cell_mask(intervals, cells: int) -> np.ndarray:
    """0/1 vector of the union of rational intervals; endpoints must lie on the grid."""
    mask = np.zeros(cells, dtype=np.int64)
    for left, right in intervals:
        a, b = Fraction(left) * cells, Fraction(right) * cells
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError(f"interval ({left}, {right}) is not on a {cells}-cell grid")
        mask[int(a) : int(b)] = 1
    return mask


def admissible_family(mask: np.ndarray, depth: int, p: Fraction) -> list[tuple[int, int]]:
    """(level, index) of every interval of level ≤ depth with |I∩E|/|I| ≥ p, in (level, index) order."""
    cells = mask.size
    family = []
    for level in range(depth + 1):
        width = cells >> level
        counts = mask.reshape(1 << level, width).sum(axis=1)
        for index, count in enumerate(counts.tolist()):
            if count * p.denominator >= p.numerator * width:
                family.append((level, index))
    return family


def haar_vectors(family, mask: np.ndarray) -> np.ndarray:
    """Integer matrix whose rows are h_I·1_E on the cell grid."""
    cells = mask.size
    rows = np.zeros((len(family), cells), dtype=np.int64)
    for row, (level, index) in enumerate(family):
        width = cells >> level
        start = index * width
        rows[row, start : start + width // 2] = -1
        rows[row, start + width // 2 : start + width] = 1
    return rows * mask


def pencil_bounds(vectors: np.ndarray) -> tuple[float, float]:
    """(λ_min, λ_max) of D^-1/2 G D^-1/2 with G = V Vᵀ / cells, by LAPACK."""
    gram = (vectors @ vectors.T).astype(np.float64) / vectors.shape[1]
    scale = 1.0 / np.sqrt(np.diag(gram))
    values = np.linalg.eigvalsh(gram * scale[:, None] * scale[None, :])
    return float(values[0]), float(values[-1])


def exact_gram(vectors: np.ndarray) -> list[list[Fraction]]:
    """The same Gram matrix over the rationals."""
    cells = vectors.shape[1]
    dots = (vectors @ vectors.T).tolist()
    return [[Fraction(x, cells) for x in row] for row in dots]


def riesz_constant(p: Fraction) -> Fraction:
    """The paper's c(p) = (3p−2)² / ((3p−2)² + p(2−p))."""
    s = 3 * p - 2
    return s * s / (s * s + p * (2 - p))
