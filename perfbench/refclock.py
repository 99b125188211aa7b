"""Machine-speed scaling of measured times.

The machine the benchmark was built on runs the same code 10-40% faster
or slower from one minute to the next, in CPU time as much as in wall
time, and both CPUs change together. A fixed reference loop, timed
between operations, tracks that speed; each operation's wall time is
multiplied by ``REF_SECONDS / reference time around it``. The reported
times are thus the times of a machine on which the reference loop takes
``REF_SECONDS``. The raw wall times are kept in the run record.

The loop mixes the two kinds of work ocgr does: small-set, dict and heap
operations in the interpreter (LM-cut, grounding) and a numpy rank-one
update the size of a dense simplex pivot.
"""

from __future__ import annotations

import heapq
import time

REF_SECONDS = 0.0027  # a reference pass's typical time on the machine in README.md
PASSES = 5  # a sample is the median of this many passes, so a burst in one pass is ignored
SAMPLE_EVERY_S = 0.2  # take a sample after this much operation time

_matrix = None


def _one_pass() -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(1000):
        k = (i * 7919) % 1013
        counts[k] = counts.get(k, 0) + 1
        heapq.heappush(heap, (k, i))
        acc += len(frozenset((k, i % 17, i % 5)))
    while heap:
        acc += heapq.heappop(heap)[0] & 3
    work = _matrix.copy()
    for j in range(7):
        work -= work[:, j, None] * work[j] * 1e-3
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median wall time of a pass of the reference loop (numpy is imported on first use)."""
    global _matrix
    if _matrix is None:
        import numpy as np
        _matrix = np.random.default_rng(0).random((100, 400))
    return sorted(_one_pass() for _ in range(PASSES))[PASSES // 2]


class Scaler:
    """Reference samples taken between operations, and the scaled operation times."""

    def __init__(self) -> None:
        self.samples = [(0, reference_seconds())]  # (operations done before it, seconds)
        self._since = 0.0

    def after(self, done: int, elapsed: float) -> None:
        """Call after each operation with the count done so far and its wall time."""
        self._since += elapsed
        if self._since >= SAMPLE_EVERY_S:
            self.samples.append((done, reference_seconds()))
            self._since = 0.0

    def scale(self, raw: list[float]) -> list[float]:
        """Scale each time by the mean of the reference samples just before and after it."""
        if self.samples[-1][0] < len(raw):
            self.samples.append((len(raw), reference_seconds()))
        out = []
        j = 0
        for i, t in enumerate(raw):
            while self.samples[j + 1][0] <= i:
                j += 1
            ref = (self.samples[j][1] + self.samples[j + 1][1]) / 2
            out.append(t * REF_SECONDS / ref)
        return out
