"""Exact PSD oracle by principal minors, for small matrices.

A symmetric matrix is positive semidefinite iff every principal minor is
≥ 0 (not only the leading ones).  Each minor is a Leibniz sum over
permutations, so the oracle shares no step with an elimination and costs
2ⁿ·n!·n; it is meant for n ≤ 6.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

MAX_SIZE = 6


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def determinant(rows) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_sign(perm))
        for i in range(n):
            term *= rows[i][perm[i]]
            if not term:
                break
        total += term
    return total


def is_psd(rows) -> bool:
    n = len(rows)
    if n > MAX_SIZE:
        raise ValueError(f"principal-minor oracle takes n <= {MAX_SIZE}, got {n}")
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            if determinant([[rows[i][j] for j in subset] for i in subset]) < 0:
                return False
    return True


def riesz_rows(gram, c: Fraction):
    """G − c·diag(G)."""
    return [
        [x - c * x if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(gram)
    ]


def bessel_rows(gram, p: Fraction):
    """diag(G)/p − G."""
    return [
        [x / p - x if i == j else -x for j, x in enumerate(row)]
        for i, row in enumerate(gram)
    ]
