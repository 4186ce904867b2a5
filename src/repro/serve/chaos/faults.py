"""Seeded fault injection: kill storms, frame loss/delay, dispatch latency.

Everything here drives the two seams the serving stack exposes for chaos:

* :attr:`FrameChannel.fault_injector <repro.serve.cluster.transport.FrameChannel.fault_injector>`
  — a process-wide hook on every frame send/recv.  :class:`FrameFaults`
  implements it with seeded drop probabilities and delays, restricted to
  *data* frames (REQUEST/RESPONSE/ERROR): dropping boot-time HELLO or
  SHUTDOWN frames would test the chaos harness, not the serving stack.
* ``ClusterServer.fault_injector`` — a per-cluster ``before_dispatch`` hook
  on the shard lanes' worker threads.  :class:`DispatchFaults` injects
  seeded pre-dispatch latency there (modelling a slow wire or a stalled
  scheduler) without touching the worker.

Kill storms are scheduled SIGKILLs against live shard worker processes —
the real fault the router's restart/retry machinery exists for.  A
:class:`FaultPlan` composes all three behind one context manager::

    plan = FaultPlan(
        seed=7,
        frame_faults=FrameFaults(drop_send_p=0.01),
        kill_storm=[KillStormEvent(at_s=0.5, variant="m", kills=2)],
    )
    with plan.apply(cluster):
        ...  # run traffic

``FaultPlan()`` — the default — injects nothing and installs nothing.
Every injected fault lands in :attr:`FaultPlan.events` with a timestamp,
so a bench report can say exactly what the run survived.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.protocol import FrameKind
from ..cluster.transport import FrameChannel

__all__ = ["FrameFaults", "DispatchFaults", "KillStormEvent", "FaultPlan"]

#: Frame kinds chaos may touch.  Control-plane frames (HELLO, SHUTDOWN,
#: PING/PONG, METRICS) stay exempt: losing them fails worker boot or
#: liveness probing, which is outside the containment claims under test.
_DATA_KINDS = frozenset({FrameKind.REQUEST, FrameKind.RESPONSE, FrameKind.ERROR})


class FrameFaults:
    """Seeded frame-level loss and delay for :class:`FrameChannel`.

    Installed process-wide (one injector covers every router-worker
    socketpair channel).  All randomness comes from one
    ``random.Random`` under a lock, so a seed reproduces the exact same
    drop/delay sequence given the same frame order.
    """

    def __init__(
        self,
        *,
        drop_send_p: float = 0.0,
        drop_recv_p: float = 0.0,
        delay_send_s: float = 0.0,
        delay_recv_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        for name, p in (("drop_send_p", drop_send_p), ("drop_recv_p", drop_recv_p)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if delay_send_s < 0 or delay_recv_s < 0:
            raise ValueError("delays must be >= 0")
        self.drop_send_p = drop_send_p
        self.drop_recv_p = drop_recv_p
        self.delay_send_s = delay_send_s
        self.delay_recv_s = delay_recv_s
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.dropped_send = 0
        self.dropped_recv = 0

    def _roll(self, p: float) -> bool:
        with self._lock:
            return p > 0.0 and self._rng.random() < p

    def _jittered(self, base: float) -> float:
        with self._lock:
            return base * (0.5 + self._rng.random())

    def on_send(self, channel: FrameChannel, kind: FrameKind, request_id: int) -> bool:
        if kind not in _DATA_KINDS:
            return True
        if self.delay_send_s > 0.0:
            time.sleep(self._jittered(self.delay_send_s))
        if self._roll(self.drop_send_p):
            self.dropped_send += 1
            return False
        return True

    def on_recv(self, channel: FrameChannel, frame) -> bool:
        if frame.kind not in _DATA_KINDS:
            return True
        if self.delay_recv_s > 0.0:
            time.sleep(self._jittered(self.delay_recv_s))
        if self._roll(self.drop_recv_p):
            self.dropped_recv += 1
            return False
        return True


class DispatchFaults:
    """Seeded latency injected right before a micro-batch hits the wire."""

    def __init__(self, *, delay_p: float = 0.0, delay_s: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= delay_p <= 1.0:
            raise ValueError(f"delay_p must be in [0, 1], got {delay_p}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.delay_p = delay_p
        self.delay_s = delay_s
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.delays_injected = 0

    def before_dispatch(self, cluster, variant_name: str, shard_name: str) -> None:
        if self.delay_s <= 0.0:
            return
        with self._lock:
            fire = self.delay_p > 0.0 and self._rng.random() < self.delay_p
            jitter = self._rng.random()
        if fire:
            self.delays_injected += 1
            time.sleep(self.delay_s * (0.5 + jitter))


@dataclass
class KillStormEvent:
    """One scheduled burst of worker kills."""

    #: Seconds from ``FaultPlan.apply`` at which the kills fire.
    at_s: float
    #: Variant whose shards are targeted.
    variant: str
    #: How many live workers to SIGKILL (capped at what is actually live).
    kills: int = 1


@dataclass
class FaultPlan:
    """A seeded, composable chaos schedule.  The default is a strict no-op."""

    seed: int = 0
    frame_faults: Optional[FrameFaults] = None
    dispatch_faults: Optional[DispatchFaults] = None
    kill_storm: List[KillStormEvent] = field(default_factory=list)
    #: Every injected fault, timestamped relative to ``apply()``.
    events: List[Dict[str, object]] = field(default_factory=list)

    def apply(self, cluster) -> "_AppliedPlan":
        """Install the plan against ``cluster`` (context manager)."""
        return _AppliedPlan(self, cluster)

    def record(self, kind: str, **details: object) -> None:
        self.events.append({"kind": kind, **details})


class _AppliedPlan:
    """The live half of a :class:`FaultPlan`: install, run storms, restore."""

    def __init__(self, plan: FaultPlan, cluster) -> None:
        self._plan = plan
        self._cluster = cluster
        self._stop = threading.Event()
        self._storm_thread: Optional[threading.Thread] = None
        self._rng = random.Random(plan.seed)
        self._start = 0.0

    def __enter__(self) -> "_AppliedPlan":
        plan = self._plan
        self._start = time.monotonic()
        if plan.frame_faults is not None:
            FrameChannel.fault_injector = plan.frame_faults
        if plan.dispatch_faults is not None and self._cluster is not None:
            self._cluster.fault_injector = plan.dispatch_faults
        if plan.kill_storm and self._cluster is not None:
            self._storm_thread = threading.Thread(
                target=self._run_storm, name="chaos/kill-storm", daemon=True
            )
            self._storm_thread.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._stop.set()
        if self._storm_thread is not None:
            self._storm_thread.join(timeout=10.0)
        if self._plan.frame_faults is not None:
            FrameChannel.fault_injector = None
        if self._plan.dispatch_faults is not None and self._cluster is not None:
            self._cluster.fault_injector = None

    # ------------------------------------------------------------------ #
    # the storm
    # ------------------------------------------------------------------ #
    def _run_storm(self) -> None:
        for event in sorted(self._plan.kill_storm, key=lambda e: e.at_s):
            delay = self._start + event.at_s - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                return
            self._fire(event)

    def _fire(self, event: KillStormEvent) -> None:
        try:
            variant = self._cluster._route(event.variant)
        except KeyError:
            self._plan.record("kill_skipped", variant=event.variant, reason="unknown")
            return
        live = variant.live_shards()
        victims = self._rng.sample(live, k=min(event.kills, len(live)))
        for lane in victims:
            handle = lane.executor.handle
            pid = handle.pid if handle is not None else None
            if handle is None or not handle.process.is_alive():
                self._plan.record("kill_skipped", shard=lane.name, reason="not alive")
                continue
            handle.process.kill()
            self._plan.record(
                "kill",
                shard=lane.name,
                pid=pid,
                at_s=round(time.monotonic() - self._start, 4),
            )
