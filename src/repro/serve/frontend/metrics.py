"""Serving telemetry: latency percentiles, batch occupancy, throughput.

One :class:`ServerMetrics` instance per hosted model (or per cluster shard)
records the numbers an operator actually pages on:

* **end-to-end latency** (submit -> future resolved) and **queue wait**
  (submit -> batch formation), with p50/p95/p99 over a bounded window of
  recent requests (:class:`~repro.utils.timing.RollingHistogram`, so memory
  stays constant on a long-lived server);
* **batch occupancy** — a histogram of served micro-batch sizes in samples,
  the direct readout of how well the dynamic batcher is coalescing;
* **throughput** — completed samples per second over the active serving
  window (first admission to last completion);
* **flow counters** — admitted / completed / failed / cancelled / rejected
  requests and the queue-depth high-water mark, which together tell whether
  admission control is shedding load.

Concurrency contract: every mutator takes the one instance lock, and *every
read* — the public counter properties, :meth:`counters` and
:meth:`snapshot` — takes the same lock, so a poller on another thread (or a
process-boundary poller serialising snapshots over a wire) can never observe
a torn update: within one ``snapshot()``/``counters()`` call, completed
requests are counted in *both* ``completed`` and ``samples_completed`` or in
neither.  :meth:`merge` folds another instance in (the cluster router uses
it to aggregate per-shard metrics into one view) and :meth:`merged` builds
that aggregate without mutating the inputs.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterable, Optional

from ...utils.timing import RollingHistogram

__all__ = ["ServerMetrics"]


def _locked_read(field: str, doc: Optional[str] = None) -> property:
    """A read-only property returning ``self._<field>`` under the instance lock."""

    def read(self) -> int:
        with self._lock:
            return getattr(self, f"_{field}")

    return property(read, doc=doc)


class ServerMetrics:
    """Thread-safe telemetry accumulator for one served model (or shard)."""

    _COUNTER_FIELDS = (
        "admitted",
        "rejected",
        "completed",
        "failed",
        "cancelled",
        "batches",
        "samples",
        # Resilience counters (chaos harness / graceful degradation):
        # requests failed because their deadline passed, requests shed for a
        # higher-priority arrival, requests re-dispatched after a worker
        # crash, and circuit-breaker open transitions.
        "expired",
        "shed",
        "retried",
        "breaker_open",
    )

    def __init__(self, latency_window: int = 8192) -> None:
        self._lock = threading.Lock()
        self.latency_window = int(latency_window)
        self._latency = RollingHistogram(latency_window)
        self._queue_wait = RollingHistogram(latency_window)
        self._batch_occupancy: Dict[int, int] = {}
        self._service = RollingHistogram(latency_window)
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._batches = 0
        self._samples = 0
        self._depth_highwater = 0
        self._expired = 0
        self._shed = 0
        self._retried = 0
        self._breaker_open = 0
        self._first_admit: Optional[float] = None
        self._last_done: Optional[float] = None
        # Sample provenance: how many live recording parts this instance
        # aggregates.  A directly-recording instance is 1 part; an aggregate
        # built by merged() counts the parts folded in, so a consumer of a
        # merged snapshot knows its bounded latency window is a fair slice
        # over N shards rather than one shard's full window.
        self._parts = 1

    # ------------------------------------------------------------------ #
    # recording (called from submit paths and worker threads)
    # ------------------------------------------------------------------ #
    def record_admitted(self, queue_depth: int) -> None:
        with self._lock:
            self._admitted += 1
            if queue_depth > self._depth_highwater:
                self._depth_highwater = queue_depth
            if self._first_admit is None:
                self._first_admit = time.monotonic()

    def record_rejected(self) -> None:
        with self._lock:
            self._rejected += 1

    def record_completion(self, latency_seconds: float, wait_seconds: float, samples: int) -> None:
        with self._lock:
            self._completed += 1
            self._samples += samples
            self._latency.add(latency_seconds)
            self._queue_wait.add(wait_seconds)
            self._last_done = time.monotonic()

    def record_failed(self) -> None:
        with self._lock:
            self._failed += 1

    def record_cancelled(self) -> None:
        with self._lock:
            self._cancelled += 1

    def record_batch(self, num_samples: int, service_seconds: float) -> None:
        with self._lock:
            self._batches += 1
            self._batch_occupancy[num_samples] = self._batch_occupancy.get(num_samples, 0) + 1
            self._service.add(service_seconds)

    def record_expired(self) -> None:
        """One request failed with :class:`DeadlineExceeded` (queued or mid-flight)."""
        with self._lock:
            self._expired += 1

    def record_shed(self) -> None:
        """One queued request was shed for a higher-priority arrival."""
        with self._lock:
            self._shed += 1

    def record_retried(self) -> None:
        """One request was re-dispatched after a worker crash."""
        with self._lock:
            self._retried += 1

    def record_breaker_open(self) -> None:
        """One circuit-breaker transition to OPEN on the owning shard."""
        with self._lock:
            self._breaker_open += 1

    # ------------------------------------------------------------------ #
    # consistent reads
    # ------------------------------------------------------------------ #
    admitted = _locked_read("admitted")
    rejected = _locked_read("rejected")
    completed = _locked_read("completed")
    failed = _locked_read("failed")
    cancelled = _locked_read("cancelled")
    batches = _locked_read("batches")
    samples = _locked_read("samples")
    depth_highwater = _locked_read("depth_highwater")
    expired = _locked_read("expired")
    shed = _locked_read("shed")
    retried = _locked_read("retried")
    breaker_open_total = _locked_read("breaker_open")
    parts = _locked_read(
        "parts", "How many recording parts this instance aggregates (1 = direct)."
    )

    def latency_percentile_ms(self, q: float) -> float:
        """One percentile of the end-to-end latency window, in milliseconds.

        A cheap single-histogram read for high-frequency pollers (the
        autoscaler) that must not pay for a full :meth:`snapshot`.
        """
        with self._lock:
            return round(self._latency.percentile(q) * 1e3, 3)

    def counters(self) -> Dict[str, int]:
        """Every flow counter, read atomically under one lock acquisition.

        This is what aggregators (server totals, cluster views, pollers on
        another thread or process boundary) must use instead of reading the
        counter properties one by one — N separate property reads can
        interleave with recorders and produce totals that never existed at
        any instant.
        """
        with self._lock:
            return {name: getattr(self, f"_{name}") for name in self._COUNTER_FIELDS}

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def merge(self, other: "ServerMetrics") -> "ServerMetrics":
        """Fold ``other``'s recorded state into this instance (and return it).

        Both instances are locked for the duration (in a stable global
        order, so two concurrent merges cannot deadlock); ``other`` is not
        mutated.  Counters and occupancy histograms add exactly; the bounded
        latency windows combine via :meth:`RollingHistogram.merge` (fair
        slice of both windows when over capacity); the serving window spans
        the earliest first-admit to the latest last-done.
        """
        if other is self:
            raise ValueError("cannot merge a ServerMetrics instance into itself")
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            for name in self._COUNTER_FIELDS:
                setattr(self, f"_{name}", getattr(self, f"_{name}") + getattr(other, f"_{name}"))
            if other._depth_highwater > self._depth_highwater:
                self._depth_highwater = other._depth_highwater
            for size, count in other._batch_occupancy.items():
                self._batch_occupancy[size] = self._batch_occupancy.get(size, 0) + count
            self._latency.merge(other._latency)
            self._queue_wait.merge(other._queue_wait)
            self._service.merge(other._service)
            self._parts += other._parts
            if other._first_admit is not None:
                self._first_admit = (
                    other._first_admit
                    if self._first_admit is None
                    else min(self._first_admit, other._first_admit)
                )
            if other._last_done is not None:
                self._last_done = (
                    other._last_done
                    if self._last_done is None
                    else max(self._last_done, other._last_done)
                )
        return self

    @classmethod
    def merged(cls, parts: Iterable["ServerMetrics"], latency_window: Optional[int] = None) -> "ServerMetrics":
        """A fresh aggregate of ``parts`` (none of which is mutated).

        The cluster router uses this to fold per-shard metrics into one
        variant-level (and then cluster-level) view.
        """
        parts = list(parts)
        if latency_window is None:
            latency_window = max((p.latency_window for p in parts), default=8192)
        total = cls(latency_window)
        # The fresh aggregate records nothing itself — its parts count must
        # be exactly the sum of the inputs', not one more.
        total._parts = 0
        for part in parts:
            total.merge(part)
        return total

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ms_summary(histogram: RollingHistogram) -> Dict[str, float]:
        summary = histogram.summary()
        return {
            "p50": round(summary["p50"] * 1e3, 3),
            "p95": round(summary["p95"] * 1e3, 3),
            "p99": round(summary["p99"] * 1e3, 3),
            "mean": round(summary["mean"] * 1e3, 3),
            "max": round(summary["max"] * 1e3, 3),
        }

    def raw_summaries(self) -> Dict[str, Dict[str, float]]:
        """Raw-seconds summaries of the three latency histograms.

        One lock acquisition covers all three, so the Prometheus exporter
        emits mutually consistent ``_count``/``_sum``/quantile lines.
        ``count`` and ``sum`` are lifetime aggregates (monotonic across
        scrapes); quantiles cover the bounded retained window.
        """
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for key, histogram in (
                ("latency", self._latency),
                ("queue_wait", self._queue_wait),
                ("batch_service", self._service),
            ):
                out[key] = {
                    "count": float(histogram.count),
                    "sum": histogram._total,
                    "q0.5": histogram.percentile(50.0),
                    "q0.95": histogram.percentile(95.0),
                    "q0.99": histogram.percentile(99.0),
                }
            return out

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict[str, object]:
        """A JSON-serialisable view of everything recorded so far.

        The whole snapshot is assembled under one lock acquisition, so its
        totals are mutually consistent no matter how many recorder threads
        are running — safe to serialise across a process boundary as-is.
        """
        with self._lock:
            occupancy = dict(sorted(self._batch_occupancy.items()))
            occupancy_samples = sum(size * count for size, count in occupancy.items())
            elapsed = (
                self._last_done - self._first_admit
                if self._first_admit is not None and self._last_done is not None
                else 0.0
            )
            snapshot: Dict[str, object] = {
                "requests": {
                    "admitted": self._admitted,
                    "completed": self._completed,
                    "failed": self._failed,
                    "cancelled": self._cancelled,
                    "rejected": self._rejected,
                    "expired": self._expired,
                    "shed": self._shed,
                    "retried": self._retried,
                },
                "breaker_open_total": self._breaker_open,
                "samples_completed": self._samples,
                "batches": {
                    "served": self._batches,
                    "occupancy_mean": round(occupancy_samples / self._batches, 3)
                    if self._batches
                    else 0.0,
                    "occupancy_histogram": {str(k): v for k, v in occupancy.items()},
                },
                "latency_ms": self._ms_summary(self._latency),
                "queue_wait_ms": self._ms_summary(self._queue_wait),
                "batch_service_ms": self._ms_summary(self._service),
                "throughput_rps": round(self._samples / elapsed, 3) if elapsed > 0 else 0.0,
                "queue_depth_highwater": self._depth_highwater,
                "parts": self._parts,
            }
            if queue_depth is not None:
                snapshot["queue_depth"] = int(queue_depth)
            return snapshot

    def to_json(self, queue_depth: Optional[int] = None, indent: int = 2) -> str:
        return json.dumps(self.snapshot(queue_depth=queue_depth), indent=indent)

    def __repr__(self) -> str:
        counters = self.counters()
        return (
            f"ServerMetrics(admitted={counters['admitted']}, "
            f"completed={counters['completed']}, failed={counters['failed']}, "
            f"rejected={counters['rejected']}, batches={counters['batches']})"
        )
