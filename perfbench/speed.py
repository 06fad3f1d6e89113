"""Reference loop that tracks the speed of the machine during a run.

On the shared 2-core machine this benchmark was built on, the same work ran
up to 1.7× slower in some 10 s windows than in others, and whole 25 s runs of
the seed-independent ``identities`` rounds differed by 40%.  So the worker
runs a short fixed loop (``chunk``) before an operation at most every
SAMPLE_EVERY_S, outside every timed interval, and scales the run's round
times to the reference speed:

    wall_s = measured × NOMINAL_CHUNK_S / (median chunk time of the run)

A reported second is a second at the speed where one chunk takes
NOMINAL_CHUNK_S, this machine's usual speed.  Over ten seeds per workload
the spread (interquartile range over median) of ``wall_s`` fell from 0.21
to 0.08 on ``search-random`` and from 0.29 to 0.13 on ``search-greedy``.  In
fast windows the loop speeds up somewhat more than the program, so the
scaling is not exact.  The loop is the benchmark's own code (rational
elimination and small-array numpy work, like the program's), so no change to
the program moves it.  The measured figures and the chunk median are kept in
the run's detail file.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_CHUNK_S = 0.006
SAMPLE_EVERY_S = 0.5

_draw = random.Random(20180728)
_MATRIX = [
    [Fraction(_draw.randrange(-9, 10), _draw.randrange(1, 9)) for _ in range(14)]
    for _ in range(14)
]
_ARRAY = np.sin(np.arange(48 * 48, dtype=np.float64)).reshape(48, 48)


def chunk() -> float:
    """Seconds for one fixed piece of rational elimination and numpy row work."""
    start = perf_counter()
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for k in range(n):
        pivot = rows[k][k] or Fraction(1)
        for i in range(k + 1, n):
            ratio = rows[i][k] / pivot
            row_i, row_k = rows[i], rows[k]
            for j in range(k, n):
                row_i[j] -= ratio * row_k[j]
    work = _ARRAY.copy()
    for p in range(47):
        work[p, :] = 0.75 * work[p, :] + 0.25 * work[p + 1, :]
        work[:, p] = 0.75 * work[:, p] - 0.25 * work[:, p + 1]
    return perf_counter() - start


class Speedometer:
    """Chunk times taken during one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self):
        self._last = perf_counter()
        self.samples.append(chunk())

    def maybe_sample(self):
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """NOMINAL_CHUNK_S over the median chunk time."""
        return NOMINAL_CHUNK_S / statistics.median(self.samples)
