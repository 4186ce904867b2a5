"""Timing utilities for the benchmark harness and the serving telemetry."""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence

__all__ = [
    "best_mean_seconds",
    "percentile",
    "RollingHistogram",
]


def _percentile_sorted(data: Sequence[float], q: float) -> float:
    """Interpolated percentile of already-sorted ``data`` (no copy, no sort)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not data:
        raise ValueError("percentile() of an empty sequence")
    if len(data) == 1:
        return data[0]
    position = (len(data) - 1) * (q / 100.0)
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    fraction = position - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (``q`` in [0, 100]).

    Matches ``numpy.percentile``'s default (linear) interpolation without
    requiring the values to live in an array — the serving metrics keep
    latencies in plain Python ring buffers.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _percentile_sorted(sorted(float(v) for v in values), q)


class RollingHistogram:
    """Bounded reservoir of the most recent observations with percentile queries.

    A fixed-capacity ring buffer: ``add`` is O(1) and memory is bounded no
    matter how long a server runs.  ``count``/``mean``/``max`` cover *all*
    observations ever added; percentiles are exact over the retained window
    (the most recent ``capacity`` values).  Not thread-safe on its own —
    :class:`repro.serve.frontend.ServerMetrics` serialises access.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._window: List[float] = []
        self._cursor = 0
        self._count = 0
        self._total = 0.0
        self._max = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        if len(self._window) < self.capacity:
            self._window.append(value)
        else:
            self._window[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Total number of observations ever added."""
        return self._count

    @property
    def window(self) -> List[float]:
        """A copy of the retained (most recent) observations."""
        return list(self._window)

    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        if not self._window:
            return 0.0
        return percentile(self._window, q)

    def merge(self, other: "RollingHistogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Lifetime aggregates (count, total, max) combine exactly.  The
        retained window keeps up to ``capacity`` values drawn from both
        windows (each in its own arrival order), so merged percentiles
        cover both sources — the use case is aggregating per-shard serving
        metrics into one cluster view, where the shards' windows are
        disjoint requests of the same workload.
        """
        combined = self.window + other.window
        if len(combined) > self.capacity:
            # Keep a fair slice of both sources rather than letting one
            # shard's window evict the other's entirely.
            stride = len(combined) / self.capacity
            combined = [combined[int(i * stride)] for i in range(self.capacity)]
        self._window = combined
        self._cursor = 0
        self._count += other._count
        self._total += other._total
        if other._count and other._max > self._max:
            self._max = other._max

    def summary(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)) -> Dict[str, float]:
        """Count/mean/max plus the requested percentiles, as a flat dict.

        The window is sorted once and shared across the requested quantiles.
        """
        stats = {
            "count": float(self._count),
            "mean": self.mean(),
            "max": self.max(),
        }
        ordered = sorted(self._window)
        for q in percentiles:
            label = f"p{q:g}".replace(".", "_")
            stats[label] = _percentile_sorted(ordered, q) if ordered else 0.0
        return stats


def best_mean_seconds(fn, repeats: int = 3, min_seconds: float = 0.25) -> float:
    """Best-of-``repeats`` mean seconds per call of ``fn``.

    Calls ``fn`` once as a warm-up (filling caches, paging buffers), then
    ``repeats`` times loops it for at least ``min_seconds`` and returns the
    smallest observed mean.  The minimum over repeats rejects scheduler noise,
    which is what both the backend micro-benchmark and the CI perf-floor test
    need to share so their measurements cannot drift apart.
    """
    fn()
    best = float("inf")
    for _ in range(repeats):
        iters = 0
        start = time.perf_counter()
        while time.perf_counter() - start < min_seconds:
            fn()
            iters += 1
        best = min(best, (time.perf_counter() - start) / iters)
    return best
