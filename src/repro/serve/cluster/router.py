"""The cluster router: process-sharded serving over quantized checkpoints.

:class:`ClusterServer` serves each registered *variant* (a quantized
checkpoint + engine mode) from **N worker processes**.  A GIL-bound serving
path (the Python step dispatch and glue of a compiled plan) caps a single
process at roughly one core no matter how many threads it runs; processes
shard it across cores.

Topology, per variant::

    submit(name, x) ──> least-outstanding shard pick
                          ├── shard 0: Lane (queue -> batcher -> thread) ──_Worker══socketpair══ worker process 0
                          ├── shard 1: Lane (queue -> batcher -> thread) ──_Worker══socketpair══ worker process 1
                          └── ...

Every shard is a :class:`~repro.serve.frontend.lane.Lane`, the same serving
core :class:`~repro.serve.frontend.ModelServer` runs on; its executor is a
:class:`_Worker` that ships the stacked batch over the wire instead of
calling an engine in-process.  The cluster view of the metrics is
:meth:`ServerMetrics.merged` over the shards.

Failure containment:

* **Per-request failures** (bad shape, worker-side exception) come back as
  typed ERROR frames and fail only the affected futures.
* **A crashed worker** strands only the requests *in flight on its wire*:
  they are re-dispatched while they have retry budget and otherwise fail
  with :class:`~repro.serve.cluster.protocol.WorkerCrashed`.  Everything
  still in its queue survives, and the shard respawns the worker from the
  same checkpoint (bounded by ``max_restarts``) while the other shards keep
  serving.  A health monitor notices workers that die while idle, so
  restart does not wait for the next request to trip over the corpse.
* **Scale-down** retires a shard gracefully: it stops receiving new
  requests, drains its queue, then shuts the worker down.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...backend import get_backend
from ...obs.health import DriftDetector, ModelHealth, ShadowExecutor
from ..frontend.lane import Executor, ExecutorLost, Lane, ServingCore
from ..frontend.metrics import ServerMetrics
from ..frontend.queuing import Request, ServerClosed
from .breaker import BreakerPolicy, CircuitBreaker
from .protocol import (
    FrameKind,
    ProtocolError,
    WorkerCrashed,
    decode_response,
    encode_request,
    exception_from_error,
)
from .transport import ChannelClosed
from .worker import WorkerBootError, WorkerHandle, WorkerOptions, spawn_worker

__all__ = ["ClusterServer"]


class _Worker(Executor):
    """A shard's executor: one worker process spoken to over a FrameChannel.

    It owns what only a process executor has: the worker handle, the circuit
    breaker, the restart count and the shard state.  A transport failure
    (``ChannelClosed``, ``ProtocolError``, ``TimeoutError``) surfaces as
    :class:`ExecutorLost`; :meth:`lost` then re-dispatches or fails the
    stranded requests and respawns the worker.
    """

    LIVE = "live"
    RETIRING = "retiring"
    FAILED = "failed"

    def __init__(self, cluster: "ClusterServer", variant: "_Variant", index: int) -> None:
        self.cluster = cluster
        self.variant = variant
        self.index = index
        self.name = f"{variant.name}[{index}]"
        self.handle: Optional[WorkerHandle] = None
        self.breaker: Optional[CircuitBreaker] = None  # wired by ClusterServer._attach
        self.state = self.LIVE
        self.restarts = 0
        self.needs_restart = False
        # Wire frame ids are per channel; request ids are server-wide.
        self._frame_ids = itertools.count(1)

    @property
    def pid(self) -> Optional[int]:
        return self.handle.pid if self.handle is not None else None

    def spawn(self) -> WorkerHandle:
        cluster = self.cluster
        return spawn_worker(
            self.variant.options,
            start_method=cluster.start_method,
            boot_timeout=cluster.boot_timeout_s,
        )

    def __call__(
        self, batch: np.ndarray, trace_ids: Optional[List[str]]
    ) -> Tuple[np.ndarray, float]:
        injector = self.cluster.fault_injector
        if injector is not None:
            injector.before_dispatch(self.cluster, self.variant.name, self.name)
        try:
            logits, worker_trace = self._roundtrip(batch, trace_ids)
        except (ChannelClosed, ProtocolError, TimeoutError) as error:
            raise ExecutorLost(str(error)) from error
        self.breaker.record_success(time.monotonic())
        return logits, float(worker_trace.get("execute_s", 0.0)) if worker_trace else 0.0

    def _roundtrip(
        self, batch: np.ndarray, trace_ids: Optional[List[str]]
    ) -> "tuple[np.ndarray, Optional[dict]]":
        """One REQUEST/RESPONSE exchange; raises the typed worker error.

        Only the lane's thread ever touches the wire, so the exchange needs
        no locking — frame ids still correlate replies in case a stale frame
        (e.g. from a boot-time exchange) lingers.

        ``trace_ids`` (when tracing) ride in the version-2 trace block; the
        worker echoes them back with its measured ``execute_s``, returned
        here as the second element (``None`` for untraced exchanges).
        """
        frame_id = next(self._frame_ids)
        channel = self.handle.channel
        channel.send(
            FrameKind.REQUEST,
            frame_id,
            encode_request(
                self.variant.name,
                batch,
                trace={"trace_ids": trace_ids} if trace_ids else None,
            ),
        )
        frame = channel.wait_for(
            frame_id, (FrameKind.RESPONSE, FrameKind.ERROR), self.cluster.request_timeout_s
        )
        if frame.kind == FrameKind.ERROR:
            raise exception_from_error(frame.payload)
        return decode_response(frame.payload)

    # -- the lane's hooks --------------------------------------------------- #
    def ready(self, lane: Lane) -> bool:
        if self.needs_restart and not self.cluster._closed:
            self.needs_restart = False
            return self.restart(lane)
        return True

    def lost(self, lane: Lane, requests: List[Request], error: ExecutorLost) -> None:
        # The worker's wire is gone: every request popped for this batch is
        # in flight from the router's perspective.  Requests with retry
        # budget left are re-dispatched (inference is pure, so the retry is
        # idempotent); the rest fail with WorkerCrashed.  The queue survives.
        self.breaker.record_failure()
        crash = WorkerCrashed(
            f"shard {self.name} (pid={self.pid or '?'}) "
            f"died with this request in flight: {error}"
        )
        for request in requests:
            if request.trace is not None:
                # Attribute the doomed attempt (send -> crash detection) to
                # the wire, so a retried request's span still tiles its life.
                request.trace.advance("wire")
            if not self._redispatch(lane, request):
                lane.fail_request(request, crash)
        self.restart(lane)

    def finished(self, lane: Lane) -> None:
        # Drained by retirement: shut the worker down and deregister the
        # shard so it stops appearing in telemetry.
        if self.state == self.RETIRING:
            self.handle.shutdown(timeout=5.0)
            self.variant.remove(lane)

    # -- crash handling ----------------------------------------------------- #
    def restart(self, lane: Lane) -> bool:
        """Respawn a dead worker in place; False when the shard is failed."""
        cluster = self.cluster
        dead_pid = self.pid
        if self.handle is not None:
            self.handle.kill()
        if cluster._closed:
            return False
        self.restarts += 1
        if self.restarts > cluster.max_restarts:
            self._fail_shard(lane)
            return False
        try:
            self.handle = self.spawn()
        except (WorkerBootError, OSError) as error:
            self._fail_shard(lane, reason=str(error))
            return False
        cluster.events.emit(
            "worker_restart",
            variant=self.variant.name,
            shard=self.name,
            restarts=self.restarts,
            dead_pid=dead_pid,
            new_pid=self.handle.pid,
        )
        return True

    def _fail_shard(self, lane: Lane, reason: str = "") -> None:
        """Crash-loop bound hit: fail the shard and everything it still queues."""
        self.state = self.FAILED
        lane.queue.close()
        detail = f" ({reason})" if reason else ""
        self.cluster.events.emit(
            "shard_failed",
            variant=self.variant.name,
            shard=self.name,
            restarts=self.restarts,
            reason=reason,
        )
        lane.fail_queued(
            WorkerCrashed(f"shard {self.name} failed after {self.restarts - 1} restarts{detail}")
        )
        self.variant.remove(lane)

    def _redispatch(self, lane: Lane, request: Request) -> bool:
        """Requeue a crash-interrupted request; False when it must fail.

        The target is another live shard when one exists (the crashed
        shard's replacement worker is seconds away at best), else the same
        shard's surviving queue — its lane serves the queue again once the
        restart completes.  ``put_front`` preserves the request's place at
        the head of the line; it already waited once.
        """
        cluster = self.cluster
        if cluster._closed or request.attempts >= cluster.max_request_retries:
            return False
        if request.expired():
            lane.expire_request(request)
            return True  # handled: expired, not lost
        try:
            target = self.variant.pick(excluded={lane})
        except ServerClosed:
            target = lane if self.state == self.LIVE else None
        if target is None:
            return False
        request.attempts += 1
        target.note_admitted()
        lane.note_done()
        target.queue.put_front(request)  # exempt from depth/closed: already admitted
        target.metrics.record_retried()
        cluster.events.emit(
            "request_retried",
            variant=self.variant.name,
            from_shard=lane.name,
            to_shard=target.name,
            request_id=request.request_id,
            attempt=request.attempts,
        )
        return True


class _Variant:
    """One registered checkpoint/mode pair and its shard lanes."""

    def __init__(
        self,
        name: str,
        options: WorkerOptions,
        *,
        min_shards: int,
        max_shards: int,
        target_shards: int,
        description: str,
    ) -> None:
        self.name = name
        self.options = options
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.target_shards = target_shards
        self.description = description
        self.shards: List[Lane] = []
        self.lock = threading.Lock()
        self.next_index = 0
        # Optional repro.obs.health.ModelHealth shared by every shard of the
        # variant (the engines live in worker processes, so the lanes feed
        # it from served batches; telemetry rows all reference this one
        # object and the exporter dedups by identity).
        self.health: Optional[ModelHealth] = None

    def live_shards(self) -> List[Lane]:
        with self.lock:
            return [s for s in self.shards if s.executor.state == _Worker.LIVE]

    def all_shards(self) -> List[Lane]:
        with self.lock:
            return list(self.shards)

    def remove(self, lane: Lane) -> None:
        with self.lock:
            if lane in self.shards:
                self.shards.remove(lane)

    def pick(self, excluded: Optional[set] = None) -> Lane:
        """Least-outstanding routing over the variant's live shards.

        Shards whose circuit breaker is OPEN are skipped — their worker is
        flapping, and sending fresh traffic there only pays a timeout before
        a retry rescues it.  When *every* live shard is dark the router
        degrades to routing anyway (blackholing all traffic would turn a
        recoverable brownout into an outage).
        """
        live = self.live_shards()
        if excluded:
            live = [lane for lane in live if lane not in excluded]
        if not live:
            raise ServerClosed(
                f"variant {self.name!r} has no live shards "
                f"(crashed beyond max_restarts, or the cluster is not started)"
            )
        allowed = [lane for lane in live if lane.executor.breaker.allow()]
        return min(allowed or live, key=lambda lane: lane.pending)

    def admit(self, request: Request, block: bool, timeout: Optional[float]) -> None:
        """Admit on the least-loaded shard, moving on from shards that closed."""
        excluded: set = set()
        while True:
            lane = self.pick(excluded)
            try:
                return lane.admit(request, block, timeout)
            except ServerClosed:
                # Lost the race with this shard's retirement/failure; another
                # shard (if any is left) can still take the request.
                excluded.add(lane)


class ClusterServer(ServingCore):
    """Process-sharded, wire-connected serving over quantized checkpoints.

    ``max_batch_size``, ``max_delay_ms``, ``max_queue_depth``,
    ``latency_window``, ``on_batch``, ``trace`` and ``span_capacity`` are
    the serving core's (:class:`~repro.serve.frontend.lane.ServingCore`),
    applied per shard; ``on_batch`` sees the variant name.  A traced
    request's span also carries a *wire* stage: the worker reports its own
    execute time over the protocol's trace block, so the span separates
    transit from engine work.  The rest govern the process fleet.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method for workers.  ``"spawn"`` (default)
        boots each worker in a pristine interpreter; ``"fork"`` is faster
        but only safe from a single-threaded parent.
    boot_timeout_s:
        How long a worker may take from process start to HELLO.
    request_timeout_s:
        How long a shard waits for one micro-batch's reply before declaring
        the worker dead.
    max_restarts:
        Crash-loop bound per shard; beyond it the shard is failed and its
        queued requests are failed with :class:`WorkerCrashed`.
    max_request_retries:
        How many times a request caught in flight on a crashed worker's
        wire may be re-dispatched (to another live shard when one exists)
        before it fails with :class:`WorkerCrashed`.  Inference is pure, so
        the retry is idempotent; the default of 0 preserves the historical
        fail-fast contract.
    breaker_policy:
        Per-shard circuit-breaker thresholds (:class:`BreakerPolicy`).  A
        shard whose worker keeps crashing or timing out is skipped by the
        router until a cooldown probe succeeds; its queue is never dropped.
    """

    _MONITOR_SECONDS = 0.25
    _KIND = "cluster"
    _MODEL_LABEL = "variant"

    def __init__(
        self,
        *,
        start_method: str = "spawn",
        boot_timeout_s: float = 120.0,
        request_timeout_s: float = 60.0,
        max_restarts: int = 3,
        max_request_retries: int = 0,
        breaker_policy: Optional[BreakerPolicy] = None,
        span_capacity: int = 4096,
        **options,
    ) -> None:
        super().__init__(span_capacity=span_capacity, **options)
        if max_request_retries < 0:
            raise ValueError(
                f"max_request_retries must be >= 0, got {max_request_retries}"
            )
        self.start_method = start_method
        self.boot_timeout_s = float(boot_timeout_s)
        self.request_timeout_s = float(request_timeout_s)
        self.max_restarts = int(max_restarts)
        self.max_request_retries = int(max_request_retries)
        self.breaker_policy = breaker_policy
        #: Chaos seam (see :mod:`repro.serve.chaos.faults`): when set, its
        #: ``before_dispatch(cluster, variant_name, shard_name)`` hook runs
        #: right before each micro-batch hits the wire.  None in production.
        self.fault_injector = None
        self._variants: "OrderedDict[str, _Variant]" = OrderedDict()
        self._monitor: Optional[threading.Thread] = None
        self._scaling_events: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        checkpoint_path: str,
        *,
        mode: str = "float",
        shards: int = 1,
        min_shards: int = 1,
        max_shards: int = 8,
        backend: Optional[str] = None,
        description: str = "",
        chaos_latency_s: float = 0.0,
    ) -> None:
        """Host the checkpoint at ``checkpoint_path`` under ``name``.

        The checkpoint must be a versioned quantized checkpoint with a model
        factory spec (:func:`repro.utils.save_quantized_checkpoint`) — the
        workers rebuild the model from it in their own processes.  ``shards``
        is the initial shard count; the autoscaler (or :meth:`scale`) moves
        it inside ``[min_shards, max_shards]``.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"variant name must be a non-empty string, got {name!r}")
        if not 1 <= min_shards <= max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got [{min_shards}, {max_shards}]"
            )
        if not min_shards <= shards <= max_shards:
            raise ValueError(
                f"shards={shards} outside [{min_shards}, {max_shards}]"
            )
        options = WorkerOptions(
            checkpoint_path=checkpoint_path,
            variant=name,
            mode=mode,
            batch_size=max(64, self.max_batch_size),
            backend=backend if backend is not None else get_backend().name,
            chaos_latency_s=float(chaos_latency_s),
        )
        variant = _Variant(
            name,
            options,
            min_shards=min_shards,
            max_shards=max_shards,
            target_shards=shards,
            description=description,
        )
        with self._lock:
            if self._closed:
                raise ServerClosed("cannot register variants on a stopped cluster")
            if name in self._variants:
                raise ValueError(f"variant name {name!r} is already registered")
            self._variants[name] = variant
            started = self._started
        if started:
            self._reconcile(variant)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _launch(self) -> None:
        for variant in self._variant_list():
            self._reconcile(variant)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster/monitor", daemon=True
        )
        self._monitor.start()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the fleet. ``drain=True`` serves everything already admitted."""
        super().stop(drain, timeout)
        for lane in self._all_lanes():
            if lane.executor.handle is not None:
                lane.executor.handle.shutdown(timeout=5.0)
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    def _route(self, name: str) -> _Variant:
        with self._lock:
            variant = self._variants.get(name)
            if variant is None:
                known = ", ".join(sorted(self._variants)) or "<none>"
                raise KeyError(f"no variant registered under {name!r} (registered: {known})")
        return variant

    def _variant_list(self) -> List[_Variant]:
        with self._lock:
            return list(self._variants.values())

    def _all_lanes(self) -> List[Lane]:
        return [lane for variant in self._variant_list() for lane in variant.all_shards()]

    # ------------------------------------------------------------------ #
    # shard lifecycle
    # ------------------------------------------------------------------ #
    def _reconcile(self, variant: _Variant) -> None:
        """Bring the variant's live shard count up to its target."""
        while len(variant.live_shards()) < variant.target_shards:
            self._add_shard(variant)

    def _add_shard(self, variant: _Variant) -> Lane:
        with variant.lock:
            index = variant.next_index
            variant.next_index += 1
        worker = _Worker(self, variant, index)
        worker.handle = worker.spawn()
        return self._attach(worker)

    def _attach(self, worker: _Worker) -> Lane:
        """Give a booted ``worker`` its lane, list it as a live shard, start it."""
        variant = worker.variant
        lane = Lane(
            self,
            worker,
            variant.name,
            {"variant": variant.name, "shard": worker.index},
            name=worker.name,
        )
        lane.health = variant.health
        worker.breaker = CircuitBreaker(
            self.breaker_policy,
            on_open=lane.metrics.record_breaker_open,
            # OPEN/HALF_OPEN/CLOSED transitions become structured events (the
            # OPEN counter alone cannot say which shard darkened, or when it
            # recovered).
            on_transition=lambda old, new, now: self.events.emit(
                "breaker_transition",
                variant=variant.name,
                shard=worker.name,
                from_state=old,
                to_state=new,
            ),
        )
        with variant.lock:
            variant.shards.append(lane)
        lane.start()
        return lane

    def _retire_shard(self, lane: Lane) -> None:
        """Graceful scale-down: no new requests, drain, then shut down."""
        lane.executor.state = _Worker.RETIRING
        lane.queue.close()  # the lane drains to empty, then its executor shuts the worker down

    def scale(self, name: str, target_shards: int) -> int:
        """Move ``name`` to ``target_shards`` live shards (within bounds).

        Growing spawns and boots workers synchronously; shrinking retires
        the highest-indexed shards gracefully (their queued requests are
        served before the worker exits).  Returns the new live-shard count.
        """
        variant = self._route(name)
        target = max(variant.min_shards, min(variant.max_shards, int(target_shards)))
        with self._lock:
            started = self._started and not self._closed
        with variant.lock:
            variant.target_shards = target
        if not started:
            return target
        live = variant.live_shards()
        if len(live) < target:
            self._record_scaling(name, len(live), target, "scale_up")
            self._reconcile(variant)
        elif len(live) > target:
            self._record_scaling(name, len(live), target, "scale_down")
            for lane in sorted(live, key=lambda lane: lane.executor.index)[target:]:
                self._retire_shard(lane)
        return len(variant.live_shards())

    def num_shards(self, name: str) -> int:
        return len(self._route(name).live_shards())

    def variants(self) -> List[str]:
        with self._lock:
            return list(self._variants)

    def _record_scaling(self, name: str, current: int, target: int, kind: str) -> None:
        self._scaling_events.append(
            {
                "variant": name,
                "kind": kind,
                "from": current,
                "to": target,
                "time": time.time(),
            }
        )
        self.events.emit(kind, variant=name, from_shards=current, to_shards=target)

    @property
    def scaling_events(self) -> List[Dict[str, object]]:
        return list(self._scaling_events)

    # ------------------------------------------------------------------ #
    # health monitoring
    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        """Detect workers that died while idle; the shard lane owns restarts."""
        while not self._closed:
            time.sleep(self._MONITOR_SECONDS)
            for lane in self._all_lanes():
                worker = lane.executor
                if worker.state != _Worker.LIVE or worker.needs_restart:
                    continue
                if worker.handle is not None and not worker.handle.is_alive():
                    worker.needs_restart = True

    def healthy(self, name: Optional[str] = None) -> bool:
        """True when every (or the named) variant has all target shards live.

        Honest about permanent capacity loss: a shard that crash-looped past
        ``max_restarts`` leaves the live count under ``target_shards``, and
        this reports False until an operator (or the autoscaler) calls
        :meth:`scale` to rebuild it.
        """
        variants = [self._route(name)] if name is not None else self._variant_list()
        for variant in variants:
            live = variant.live_shards()
            if len(live) < variant.target_shards:
                return False
            for lane in live:
                handle = lane.executor.handle
                if handle is None or not handle.is_alive():
                    return False
        return True

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def enable_model_health(
        self,
        name: Optional[str] = None,
        *,
        reference: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        shadow_sample_every: int = 16,
        drift_reference_size: int = 256,
        drift_window: int = 512,
        seed: int = 0,
    ) -> "ModelHealth | Dict[str, ModelHealth]":
        """Attach drift detection (and optionally a float shadow) per variant.

        The cluster's engines live in worker processes, so per-layer
        quantization taps are out of reach from the router; what the router
        *does* see is every served batch, which is enough for the
        :class:`~repro.obs.health.DriftDetector` and — when the operator
        supplies a ``reference`` callable (typically
        ``InferenceEngine(model, mode="float").predict_logits`` over the same
        checkpoint loaded router-side) — the sampled
        :class:`~repro.obs.health.ShadowExecutor` comparing wire-served
        logits against the local float forward.

        Without a ``reference`` (or with ``shadow_sample_every=0``) no shadow
        runs.  Returns the health object (or a name-keyed dict); every
        shard's telemetry row shares the variant's object.
        """
        variants = [self._route(name)] if name is not None else self._variant_list()
        built: Dict[str, ModelHealth] = {}
        for variant in variants:
            shadow = None
            if reference is not None and shadow_sample_every > 0:
                shadow = ShadowExecutor(
                    reference, sample_every=shadow_sample_every, seed=seed
                )
            variant.health = ModelHealth(
                variant.name,
                shadow=shadow,
                drift=DriftDetector(
                    reference_size=drift_reference_size, window=drift_window
                ),
            )
            for lane in variant.all_shards():
                lane.health = variant.health
            built[variant.name] = variant.health
        if name is not None:
            return built[name]
        return built

    def metrics(self, name: Optional[str] = None) -> Dict[str, object]:
        """Aggregated cluster telemetry: per-shard, per-variant, and totals.

        Per variant: each shard's consistent :meth:`ServerMetrics.snapshot`
        plus a ``merged`` view (:meth:`ServerMetrics.merged` across shards).
        The cluster totals sum every shard's counters, read through the same
        torn-read-safe path a process-boundary poller would use.
        """
        if name is not None:
            return self._variant_metrics(self._route(name))
        return {
            "cluster": self._summary(
                {"breaker_open_total": "breaker_open"},
                start_method=self.start_method,
                variants_hosted={
                    v.name: {
                        "mode": v.options.mode,
                        "shards": len(v.live_shards()),
                        "target_shards": v.target_shards,
                        "bounds": [v.min_shards, v.max_shards],
                        "description": v.description,
                    }
                    for v in self._variant_list()
                },
                scaling_events=self.scaling_events,
            ),
            "variants": {v.name: self._variant_metrics(v) for v in self._variant_list()},
        }

    def variant_load(self, name: str) -> Dict[str, object]:
        """The load signals the autoscaler steers on — cheap reads only.

        Polled several times a second, so this avoids the full merged-
        snapshot path: counters come from each shard's locked
        :meth:`ServerMetrics.counters`, and the latency signal is the *worst*
        shard's p95 (the conservative trigger for scaling — one drowning
        shard is exactly what another shard would relieve).
        """
        variant = self._route(name)
        shards = variant.live_shards()
        counters = [shard.metrics.counters() for shard in shards]
        return {
            "live_shards": len(shards),
            "target_shards": variant.target_shards,
            "bounds": (variant.min_shards, variant.max_shards),
            "outstanding": sum(shard.pending for shard in shards),
            "queue_depth": sum(shard.queue.depth for shard in shards),
            "p95_latency_ms": max(
                (shard.metrics.latency_percentile_ms(95.0) for shard in shards),
                default=0.0,
            ),
            "completed": sum(c["completed"] for c in counters),
        }

    def _variant_metrics(self, variant: _Variant) -> Dict[str, object]:
        shards = variant.all_shards()
        merged = ServerMetrics.merged([shard.metrics for shard in shards])
        queue_depth = sum(shard.queue.depth for shard in shards)
        return {
            "shards": {
                shard.name: {
                    "state": shard.executor.state,
                    "breaker": shard.executor.breaker.state,
                    "pid": shard.executor.pid,
                    "restarts": shard.executor.restarts,
                    "outstanding": shard.pending,
                    "queue_depth": shard.queue.depth,
                    # Always False (every worker serves a compiled plan);
                    # kept because existing metrics readers index it.
                    "uses_fallback": False,
                    "metrics": shard.metrics.snapshot(queue_depth=shard.queue.depth),
                }
                for shard in shards
            },
            "merged": merged.snapshot(queue_depth=queue_depth),
            "live_shards": len([s for s in shards if s.executor.state == _Worker.LIVE]),
            "target_shards": variant.target_shards,
        }

    def __repr__(self) -> str:
        shards = {v.name: len(v.live_shards()) for v in self._variant_list()}
        return f"ClusterServer(variants={shards}, state={self._state})"
