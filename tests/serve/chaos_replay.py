"""Offline policy replay: recorded traces through the pure decision cores.

Test support for ``test_chaos.py``; nothing in the library imports it.

A chaos run is expensive (processes, sockets, seconds); its *policy*
behaviour should not be.  Everything the serving stack decides — when to
scale, when to darken a shard, what to shed — routes through pure,
clock-injectable cores precisely so this module can replay a recorded run
with **no process spawned and no wall-clock waited**:

* :func:`replay_autoscaler` — recorded ``variant_load`` samples through
  :func:`repro.serve.cluster.autoscaler.decide`, simulating the live-shard
  count forward so each decision feeds the next.
* :func:`replay_breaker` — a timestamped success/failure event log through
  a fresh :class:`~repro.serve.cluster.breaker.CircuitBreaker` with a fake
  clock; returns every allow/deny and every state transition.
* :func:`replay_shedding` — a generated traffic trace through a *real*
  :class:`~repro.serve.frontend.queuing.RequestQueue` in a discrete-event
  simulation of a fixed-rate server: deadline expiry and priority shedding
  come from the production code paths, only time is simulated.

Determinism is the point: same trace + same policy = same output, byte for
byte, in microseconds.  When a chaos bench flags a policy misbehaviour, the
replay is the debugger.  :func:`save_trace`/:func:`load_trace` keep a trace
as JSON so a failing run's request stream can be attached to a bug report.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.cluster.autoscaler import AutoscalerPolicy, decide
from repro.serve.cluster.breaker import BreakerPolicy, CircuitBreaker
from repro.serve.frontend.queuing import Request, RequestQueue, ServerOverloaded

__all__ = [
    "replay_autoscaler",
    "replay_breaker",
    "replay_shedding",
    "save_trace",
    "load_trace",
]


def save_trace(path: str, trace: List[Dict[str, object]]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return path


def load_trace(path: str) -> List[Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def replay_autoscaler(
    load_samples: Sequence[Dict[str, object]],
    policy: Optional[AutoscalerPolicy] = None,
    *,
    simulate: bool = True,
) -> List[Dict[str, object]]:
    """Feed recorded ``variant_load`` samples through the pure ``decide``.

    With ``simulate=True`` (default) each decision's target becomes the next
    sample's ``live_shards`` — the counterfactual "what would the fleet have
    done" trajectory.  With ``simulate=False`` every sample is judged as
    recorded (useful for comparing the decisions a live run actually took).
    """
    policy = policy if policy is not None else AutoscalerPolicy()
    decisions: List[Dict[str, object]] = []
    live: Optional[int] = None
    for index, sample in enumerate(load_samples):
        load = dict(sample)
        if simulate and live is not None:
            load["live_shards"] = live
        target = decide(load, policy)
        decisions.append(
            {
                "sample": index,
                "live_shards": int(load["live_shards"]),
                "target": target,
                "action": (
                    "scale_up"
                    if target > int(load["live_shards"])
                    else "scale_down"
                    if target < int(load["live_shards"])
                    else "hold"
                ),
            }
        )
        live = target
    return decisions


def replay_breaker(
    events: Sequence[Dict[str, object]],
    policy: Optional[BreakerPolicy] = None,
) -> Dict[str, object]:
    """Replay a timestamped event log through a fresh breaker.

    Each event is ``{"t": seconds, "op": "success" | "failure" | "allow"}``.
    Returns the per-event outcomes (state after each event; for ``allow``,
    the verdict) and the full transition history — enough to answer "why was
    this shard dark at t=3.2" from a recording alone.
    """
    clock = [0.0]
    breaker = CircuitBreaker(policy, clock=lambda: clock[0])
    outcomes: List[Dict[str, object]] = []
    for event in events:
        clock[0] = float(event["t"])
        op = str(event["op"])
        result: Dict[str, object] = {"t": clock[0], "op": op}
        if op == "success":
            breaker.record_success()
        elif op == "failure":
            result["opened"] = breaker.record_failure()
        elif op == "allow":
            result["allowed"] = breaker.allow()
        else:
            raise ValueError(f"unknown breaker op {op!r}")
        result["state"] = breaker.state
        outcomes.append(result)
    return {"outcomes": outcomes, "transitions": breaker.transitions}


def replay_shedding(
    trace: Sequence[Dict[str, object]],
    *,
    max_depth: int = 8,
    service_rate_hz: float = 50.0,
) -> Dict[str, object]:
    """Discrete-event replay of a traffic trace through a real RequestQueue.

    A single simulated server pops one request every ``1/service_rate_hz``
    seconds; arrivals follow the trace's ``t`` offsets.  Admission uses the
    production :meth:`RequestQueue.shed_lower_priority` path and expiry uses
    the production :meth:`Request.expired` check with the simulated clock,
    so what gets shed/expired here is exactly what the live queue policy
    would shed — only the wall clock is fake.
    """
    if service_rate_hz <= 0:
        raise ValueError(f"service_rate_hz must be positive, got {service_rate_hz}")
    queue = RequestQueue(max_depth=max_depth)
    service_gap = 1.0 / service_rate_hz
    placeholder = np.zeros((1, 1, 1, 1), dtype=np.float32)

    stats = {"completed": 0, "shed": 0, "rejected": 0, "expired": 0}
    latencies: List[float] = []
    next_service = 0.0

    def serve_until(now: float) -> None:
        nonlocal next_service
        while queue.depth > 0 and next_service <= now:
            request = queue.get(timeout=0.0)
            if request is None:
                break
            if request.expired(next_service):
                stats["expired"] += 1
                continue  # evicted: never occupies the service slot
            stats["completed"] += 1
            latencies.append(next_service - request.enqueue_time)
            next_service += service_gap

    for record in trace:
        now = float(record["t"])
        serve_until(now)
        next_service = max(next_service, now)
        deadline_s = record.get("deadline_s")
        request = Request(
            inputs=placeholder,
            future=Future(),
            squeeze=True,
            enqueue_time=now,
            request_id=int(record.get("id", 0)),
            deadline=None if deadline_s is None else now + float(deadline_s),
            priority=int(record.get("priority", 0)),
        )
        try:
            victim = queue.shed_lower_priority(request)
        except ServerOverloaded:
            stats["rejected"] += 1
            continue
        if victim is not None:
            stats["shed"] += 1

    # Drain the backlog after the last arrival.
    while queue.depth > 0:
        serve_until(next_service)
    stats["mean_latency_s"] = (
        float(sum(latencies) / len(latencies)) if latencies else 0.0
    )
    stats["max_latency_s"] = float(max(latencies)) if latencies else 0.0
    return stats
