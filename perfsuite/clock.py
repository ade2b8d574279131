"""Host-speed reference: timings scaled to a fixed host speed.

On a shared host the CPU's speed drifts: the same Python code runs up
to ~1.9x slower for tens of seconds at a time, while the ratio between
two pieces of Python code run side by side stays within a few percent.
So the benchmark runs a fixed reference task, independent of semtree,
every ``INTERVAL`` seconds between operations, and scales each
operation's time by ``REFERENCE_MS / median(reference times around
it)``.  A metric in "ms" is therefore milliseconds at the host speed at
which the reference task takes ``REFERENCE_MS``.  Every run's record
keeps the raw wall times next to the scaled ones.

The reference mixes an integer loop, a keyed sort, dict work and a small
matrix product, like the program's operations; of the candidates tried
it tracked their drift best (within ~5% over 4 s windows, against ~20%
unscaled).  References come only from between operations, so they say
nothing about the host's speed inside a long one.  An operation longer
than ``LONG`` (the 1,000-artifact builds) is scaled by the references of
the ``LONG_WINDOW`` seconds either side of it instead.  In one trial of
six runs of the ``build`` workload this cut the spread of ``build_s``
from 0.18 in wall time to 0.08 (a 1-second window gave 0.23); in another
of ten, scaled and wall times spread alike (0.23 and 0.21).
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import numpy as np

INTERVAL = 0.25       # seconds between reference runs
WINDOW = 1.0          # seconds either side of an operation to take references from
LONG = 2.0            # operations longer than this ...
LONG_WINDOW = 3.0     # ... take references from this many seconds either side
REFERENCE_MS = 3.0    # the reference task's nominal time

_rng = random.Random(0)
_PAIRS = [(f"id{i}", _rng.random()) for i in range(1500)]
_MATRIX = np.random.default_rng(0).normal(size=(64, 256))


def reference() -> float:
    """Seconds the reference task takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    order = sorted(range(len(_PAIRS)), key=lambda i: (-_PAIRS[i][1], _PAIRS[i][0]))
    table = dict(_PAIRS)
    for i in order[:500]:
        total += table[_PAIRS[i][0]]
    float((_MATRIX @ _MATRIX.T).sum())
    return time.perf_counter() - start


class HostClock:
    """Reference samples ``(time, seconds)`` taken between operations."""

    def __init__(self):
        self.refs: list[tuple[float, float]] = []
        self._times: list[float] = []

    def tick(self) -> None:
        """Run the reference task if ``INTERVAL`` has passed since the last."""
        now = time.perf_counter()
        if not self.refs or now - self.refs[-1][0] >= INTERVAL:
            self.refs.append((now, reference()))

    def merge(self, refs) -> None:
        """Add another process's references (``perf_counter`` is the system
        monotonic clock on Linux, so the times line up)."""
        self.refs = sorted(self.refs + [(t, dt) for t, dt in refs])

    def scale(self, start: float, end: float) -> float:
        """The factor that takes a time measured over [start, end] to the
        reference host speed."""
        if not self.refs:
            raise RuntimeError("no reference samples")
        if len(self._times) != len(self.refs):
            self._times = [t for t, _ in self.refs]
        times = self._times
        window = LONG_WINDOW if end - start > LONG else WINDOW
        lo = bisect.bisect_left(times, start - window)
        hi = bisect.bisect_right(times, end + window)
        if hi - lo < 3:  # too few nearby: take the four nearest the middle
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(times), mid + 2)
        return REFERENCE_MS / 1e3 / statistics.median(dt for _, dt in self.refs[lo:hi])
