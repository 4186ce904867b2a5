"""Seeded traffic generation and replayable trace execution.

A **trace** is the unit of reproducibility: a list of plain-dict records,
each fully determined by the spec and one integer seed::

    {"id": 17, "t": 0.412, "variant": "resnet-chaos", "batch": 4,
     "priority": 1, "deadline_s": 0.5, "seed": 931017}

``t`` is the arrival offset (seconds from trace start), ``seed`` makes the
input tensor bitwise-reconstructible (:func:`record_inputs`), and the rest
parameterizes the submit call.  A trace is plain JSON-serializable data, so
the exact request stream of a chaos run can be kept and replayed against a
live cluster with :func:`run_trace`.

Arrival processes are deliberately simple closed forms over one
``random.Random``:

* :class:`PoissonArrivals` — exponential inter-arrival gaps (open-loop,
  memoryless; the classic serving benchmark load).
* :class:`BurstyArrivals` — ON-OFF modulation: Poisson bursts at
  ``on_rate_hz`` for ~``on_s``, silence for ~``off_s`` (both exponential).
  This is the load shape that defeats naive autoscalers.
* :class:`ParetoArrivals` — heavy-tailed gaps; rare long gaps punctuated by
  clumps, the "self-similar" traffic that keeps tail latencies honest.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..frontend.queuing import DeadlineExceeded, ServerClosed, ServerOverloaded
from ..cluster.protocol import WorkerCrashed

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "ParetoArrivals",
    "TrafficSpec",
    "TraceOutcome",
    "generate_trace",
    "record_inputs",
    "run_trace",
]


# --------------------------------------------------------------------------- #
# arrival processes
# --------------------------------------------------------------------------- #
class PoissonArrivals:
    """Memoryless arrivals at ``rate_hz`` requests/second."""

    def __init__(self, rate_hz: float = 100.0) -> None:
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {rate_hz}")
        self.rate_hz = float(rate_hz)

    def next_gap(self, rng: random.Random) -> float:
        return rng.expovariate(self.rate_hz)


class BurstyArrivals:
    """ON-OFF (Markov-modulated Poisson) arrivals.

    Bursts arrive Poisson at ``on_rate_hz`` for an exponential ~``on_s``
    stretch, then the source goes silent for an exponential ~``off_s``
    stretch.  Mean rate is ``on_rate_hz * on_s / (on_s + off_s)`` but the
    instantaneous rate is either ``on_rate_hz`` or zero — exactly the load
    that makes queues breathe and autoscalers flap.
    """

    def __init__(self, on_rate_hz: float, on_s: float = 1.0, off_s: float = 1.0) -> None:
        if on_rate_hz <= 0 or on_s <= 0 or off_s <= 0:
            raise ValueError(
                f"on_rate_hz/on_s/off_s must be positive, got "
                f"({on_rate_hz}, {on_s}, {off_s})"
            )
        self.on_rate_hz = float(on_rate_hz)
        self.on_s = float(on_s)
        self.off_s = float(off_s)
        self._burst_left = 0.0

    def next_gap(self, rng: random.Random) -> float:
        gap = rng.expovariate(self.on_rate_hz)
        if self._burst_left <= 0.0:
            # Entering a fresh burst: pay the silent OFF stretch first.
            self._burst_left = rng.expovariate(1.0 / self.on_s)
            gap += rng.expovariate(1.0 / self.off_s)
        self._burst_left -= gap
        return gap


class ParetoArrivals:
    """Heavy-tailed inter-arrival gaps: ``scale * (U^(-1/alpha) - 1)``.

    ``alpha <= 2`` gives infinite-variance gaps — long silences and dense
    clumps in the same trace.  ``alpha`` closer to 1 is heavier.
    """

    def __init__(self, alpha: float = 1.5, scale_s: float = 0.02) -> None:
        if alpha <= 1.0:
            raise ValueError(f"alpha must be > 1 (finite mean), got {alpha}")
        if scale_s <= 0:
            raise ValueError(f"scale_s must be positive, got {scale_s}")
        self.alpha = float(alpha)
        self.scale_s = float(scale_s)

    def next_gap(self, rng: random.Random) -> float:
        u = 1.0 - rng.random()  # in (0, 1]
        return self.scale_s * (u ** (-1.0 / self.alpha) - 1.0)


_ARRIVALS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "pareto": ParetoArrivals,
}


# --------------------------------------------------------------------------- #
# trace generation
# --------------------------------------------------------------------------- #
@dataclass
class TrafficSpec:
    """What one generated trace should look like (everything else is seed)."""

    #: Variant names to spread requests over (uniform by weight order).
    variants: Sequence[str]
    #: Arrival process: "poisson", "bursty", or "pareto".
    arrivals: str = "poisson"
    #: Keyword arguments for the arrival process constructor.
    arrival_kwargs: Dict[str, float] = field(default_factory=dict)
    #: How many requests the trace holds.
    num_requests: int = 100
    #: Batch sizes to mix, with matching weights.
    batch_sizes: Sequence[int] = (1, 2, 4)
    batch_weights: Sequence[float] = (0.6, 0.25, 0.15)
    #: Priorities to mix (higher = more important), with matching weights.
    priorities: Sequence[int] = (0, 1)
    priority_weights: Sequence[float] = (0.8, 0.2)
    #: Fraction of requests carrying a deadline, and its range (seconds).
    deadline_fraction: float = 0.0
    deadline_range_s: Tuple[float, float] = (0.25, 2.0)

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("spec needs at least one variant name")
        if self.arrivals not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrivals!r} "
                f"(choose from {sorted(_ARRIVALS)})"
            )
        if self.num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {self.num_requests}")
        if len(self.batch_sizes) != len(self.batch_weights):
            raise ValueError("batch_sizes and batch_weights must align")
        if len(self.priorities) != len(self.priority_weights):
            raise ValueError("priorities and priority_weights must align")
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ValueError(
                f"deadline_fraction must be in [0, 1], got {self.deadline_fraction}"
            )


def generate_trace(spec: TrafficSpec, seed: int = 0) -> List[Dict[str, object]]:
    """Materialize ``spec`` into a replayable list of trace records."""
    rng = random.Random(seed)
    process = _ARRIVALS[spec.arrivals](**spec.arrival_kwargs)
    records: List[Dict[str, object]] = []
    now = 0.0
    for index in range(spec.num_requests):
        now += process.next_gap(rng)
        deadline_s: Optional[float] = None
        if spec.deadline_fraction > 0.0 and rng.random() < spec.deadline_fraction:
            low, high = spec.deadline_range_s
            deadline_s = rng.uniform(low, high)
        records.append(
            {
                "id": index,
                "t": round(now, 6),
                "variant": rng.choices(list(spec.variants))[0],
                "batch": int(rng.choices(list(spec.batch_sizes), spec.batch_weights)[0]),
                "priority": int(
                    rng.choices(list(spec.priorities), spec.priority_weights)[0]
                ),
                "deadline_s": deadline_s,
                "seed": rng.randrange(1 << 31),
            }
        )
    return records


def record_inputs(record: Dict[str, object], sample_shape: Sequence[int]) -> np.ndarray:
    """The record's input tensor, bitwise-reconstructible from its seed."""
    generator = np.random.default_rng(int(record["seed"]))
    shape = (int(record["batch"]), *sample_shape)
    return generator.standard_normal(shape).astype(np.float32)


# --------------------------------------------------------------------------- #
# trace execution against a live cluster/server
# --------------------------------------------------------------------------- #
@dataclass
class TraceOutcome:
    """What happened to one trace record when it was played."""

    record: Dict[str, object]
    #: "completed" | "expired" | "shed" | "rejected" | "crashed" |
    #: "closed" | "failed"
    status: str
    latency_s: Optional[float] = None
    error: Optional[str] = None
    #: Only set when a reference function was supplied: bitwise equality of
    #: the served logits against the offline reference.
    bitwise_ok: Optional[bool] = None
    #: The trace id run_trace attached at submit (``trace-<record id>``),
    #: matching the span the server recorded — the chaos bench's
    #: span-completeness check joins outcomes to spans on it.
    trace_id: Optional[str] = None


def _classify(error: BaseException) -> str:
    if isinstance(error, DeadlineExceeded):
        return "expired"
    if isinstance(error, ServerOverloaded):
        return "shed" if "shed" in str(error) else "rejected"
    if isinstance(error, ServerClosed):
        return "closed"
    if isinstance(error, WorkerCrashed):
        return "crashed"
    return "failed"


def run_trace(
    cluster,
    trace: List[Dict[str, object]],
    sample_shape: Sequence[int],
    *,
    time_scale: float = 1.0,
    result_timeout_s: float = 60.0,
    reference: Optional[Callable[[str, np.ndarray], np.ndarray]] = None,
) -> List[TraceOutcome]:
    """Play ``trace`` against ``cluster.submit`` in (scaled) real time.

    ``time_scale`` stretches (>1) or compresses (<1) the recorded arrival
    offsets.  Futures are collected as they resolve; every record gets a
    classified :class:`TraceOutcome` — nothing is silently dropped, which is
    the property the chaos bench's survivability contract is built on.
    ``reference(variant, inputs)`` (optional) computes the expected logits
    offline; completed outcomes then carry ``bitwise_ok``.
    """
    outcomes: List[Optional[TraceOutcome]] = [None] * len(trace)
    done = threading.Event()
    pending = [len(trace)]
    pending_lock = threading.Lock()
    start = time.monotonic()

    def finish(index: int, outcome: TraceOutcome) -> None:
        outcomes[index] = outcome
        with pending_lock:
            pending[0] -= 1
            if pending[0] == 0:
                done.set()

    def on_done(index: int, record: Dict[str, object], inputs: np.ndarray, submitted: float, trace_id: str, future) -> None:
        latency = time.monotonic() - submitted
        error = future.exception()
        if error is not None:
            finish(
                index,
                TraceOutcome(
                    record,
                    _classify(error),
                    latency_s=latency,
                    error=str(error),
                    trace_id=trace_id,
                ),
            )
            return
        bitwise_ok: Optional[bool] = None
        if reference is not None:
            expected = reference(str(record["variant"]), inputs)
            got = future.result()
            bitwise_ok = bool(
                expected.shape == got.shape and np.array_equal(expected, got)
            )
        finish(
            index,
            TraceOutcome(
                record,
                "completed",
                latency_s=latency,
                bitwise_ok=bitwise_ok,
                trace_id=trace_id,
            ),
        )

    for index, record in enumerate(trace):
        target = start + float(record["t"]) * time_scale
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        inputs = record_inputs(record, sample_shape)
        # A deterministic, record-derived trace id joins each outcome to the
        # server-side span it produced (the chaos bench's span-completeness
        # contract) — no guessing from timestamps.
        trace_id = f"trace-{record.get('id', index)}"
        submitted = time.monotonic()
        try:
            future = cluster.submit(
                str(record["variant"]),
                inputs,
                block=False,
                deadline_s=record.get("deadline_s"),
                priority=int(record.get("priority", 0)),
                trace_id=trace_id,
            )
        except Exception as error:  # noqa: BLE001 - classified, never dropped
            finish(
                index,
                TraceOutcome(record, _classify(error), error=str(error), trace_id=trace_id),
            )
            continue
        future.add_done_callback(
            lambda fut, i=index, r=record, x=inputs, s=submitted, t=trace_id: on_done(
                i, r, x, s, t, fut
            )
        )
    done.wait(timeout=result_timeout_s)
    for index, record in enumerate(trace):
        if outcomes[index] is None:
            outcomes[index] = TraceOutcome(
                record,
                "failed",
                error="no outcome within result_timeout_s",
                trace_id=f"trace-{record.get('id', index)}",
            )
    return [outcome for outcome in outcomes if outcome is not None]
