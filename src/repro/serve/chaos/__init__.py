"""Chaos harness: seeded traffic and injected faults.

The serving stack (:mod:`repro.serve.frontend`, :mod:`repro.serve.cluster`)
claims containment properties — a crashed worker fails only its in-flight
requests, queues survive restarts, deadlines never occupy batch slots, the
breaker darkens a flapping shard without dropping its queue.  This package
exists to *attack* those claims reproducibly:

* :mod:`.trafficgen` — seeded arrival processes (Poisson, ON-OFF bursty,
  Pareto heavy-tail) generating **replayable traces** of mixed batch sizes,
  priorities and deadlines, plus a trace runner that plays them against a
  live cluster and classifies every outcome.
* :mod:`.faults` — a seeded :class:`~repro.serve.chaos.faults.FaultPlan`
  composing kill storms, frame delay/drop at the transport seam, and
  artificial worker latency.  The default plan is a no-op; production code
  pays one ``None`` check per send/recv for the whole machinery.

``benchmarks/bench_cluster.py`` drives both in its chaos phase.  The offline
replay of traces through the pure policy cores lives with its tests
(``tests/serve/chaos_replay.py``).

Everything is seeded; a chaos failure is a seed, not an anecdote.
"""

from .faults import DispatchFaults, FaultPlan, FrameFaults, KillStormEvent
from .trafficgen import (
    BurstyArrivals,
    ParetoArrivals,
    PoissonArrivals,
    TraceOutcome,
    TrafficSpec,
    generate_trace,
    record_inputs,
    run_trace,
)

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "ParetoArrivals",
    "TrafficSpec",
    "TraceOutcome",
    "generate_trace",
    "record_inputs",
    "run_trace",
    "FaultPlan",
    "FrameFaults",
    "DispatchFaults",
    "KillStormEvent",
]
