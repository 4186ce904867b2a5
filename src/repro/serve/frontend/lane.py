"""The serving core both servers share: lanes, executors and the front door.

A :class:`Lane` is one serial path from callers to an engine: a bounded
:class:`~repro.serve.frontend.queuing.RequestQueue`, a
:class:`~repro.serve.frontend.batcher.DynamicBatcher`, its
:class:`~repro.serve.frontend.metrics.ServerMetrics`, in-flight accounting,
and one worker thread that stacks each micro-batch and hands it to an
:class:`Executor`.  The two servers differ only in the executor they give a
lane:

* :class:`~repro.serve.frontend.server.ModelServer` gives each hosted model a
  local executor that calls ``engine.predict_logits`` in-process;
* :class:`~repro.serve.cluster.ClusterServer` gives each shard a process
  executor that ships the batch to a worker process over a ``FrameChannel``.

:class:`ServingCore` is the front door both servers inherit: validation,
admission, lifecycle and the ``submit``/``predict`` surface.

Design invariants:

* **One worker per engine.**  Engines (and the autograd modules under them)
  are not thread-safe; each lane drives its executor from exactly one
  thread, which makes the stack safe without locking the hot path.
  Concurrency across lanes is real; concurrency within a lane comes from
  batching, which on BLAS-backed kernels is where the throughput lives.
* **Batched results are bitwise-identical to a direct engine call.**  The
  lane stacks request arrays in arrival order and runs the executor once
  per micro-batch, so each caller receives exactly the rows that a direct
  ``predict_logits`` call on the stacked batch would produce.
* **Failures are per-request.**  Requests are grouped by sample shape before
  stacking, so one malformed request can only fail its own future (and any
  request with the same bad shape), never the co-batched others.  Only an
  :class:`ExecutorLost` reaches past the batch: the executor itself decides
  what becomes of the requests it stranded.
* **Lifecycle is explicit.**  ``start`` spawns workers, ``stop(drain=True)``
  completes everything already admitted before returning,
  ``stop(drain=False)`` fails queued futures with
  :class:`~repro.serve.frontend.queuing.ServerClosed`, and the context
  manager maps to ``start``/``stop(drain=True)``.  Submitting before
  ``start`` is allowed: requests queue up and are served once workers run
  (tests use this for deterministic batch composition).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...obs import EventLog, SpanRecorder, TraceContext
from .batcher import DynamicBatcher
from .metrics import ServerMetrics
from .queuing import DeadlineExceeded, Request, RequestQueue, ServerClosed, ServerOverloaded

__all__ = ["Executor", "ExecutorLost", "Lane", "ServingCore"]

# Called after a micro-batch is served, with (model_name, requests_in_batch
# order).  A telemetry/testing hook: the parity tests reconstruct the exact
# stacked batch from it and compare against a direct engine call.
BatchObserver = Callable[[str, List[Request]], None]


class ExecutorLost(RuntimeError):
    """The executor itself failed (its worker or wire is gone), not the batch."""


class Executor:
    """What a :class:`Lane` runs each stacked micro-batch on.

    ``__call__(batch, trace_ids)`` returns ``(logits, execute_s)``: the
    logits rows for ``batch`` in order, and the seconds of engine work the
    executor measured on its own side of a wire, or ``None`` when the whole
    call was engine work.  A raised exception fails that batch's requests;
    :class:`ExecutorLost` instead hands every request not yet served to
    :meth:`lost`.  The hooks default to an executor that can never be lost.
    """

    def __call__(
        self, batch: np.ndarray, trace_ids: Optional[List[str]]
    ) -> Tuple[np.ndarray, Optional[float]]:
        raise NotImplementedError

    def ready(self, lane: "Lane") -> bool:
        """Checked before each batch; ``False`` ends the lane's worker."""
        return True

    def lost(self, lane: "Lane", requests: List[Request], error: ExecutorLost) -> None:
        """Resolve the requests stranded by an :class:`ExecutorLost`."""
        for request in requests:
            lane.fail_request(request, error)

    def finished(self, lane: "Lane") -> None:
        """Called on the lane's worker thread after its loop exits."""


class Lane:
    """One serial serving path: queue, batcher, metrics and one worker thread.

    ``labels`` tag every span and lane event (``{"model": name}`` in-process,
    ``{"variant": v, "shard": i}`` on the cluster); ``model`` is the name the
    ``on_batch`` observer sees and ``name`` the one error messages use.  The
    owning :class:`ServingCore` supplies the batching bounds, the span ring,
    the event log, the abort flag and the observer.
    """

    def __init__(
        self,
        owner: "ServingCore",
        executor: Executor,
        model: str,
        labels: Dict[str, object],
        name: Optional[str] = None,
    ) -> None:
        self.owner = owner
        self.executor = executor
        self.model = model
        self.labels = labels
        self.name = name if name is not None else model
        self.queue = RequestQueue(max_depth=owner.max_queue_depth)
        self.batcher = DynamicBatcher(
            self.queue,
            max_batch_size=owner.max_batch_size,
            max_delay=owner.max_delay_ms / 1e3,
            # Deadline-aware eviction: a request that expires while queued is
            # failed with the typed error and never wins a batch slot.
            on_expired=self.expire_request,
        )
        self.metrics = ServerMetrics(owner.latency_window)
        # Optional repro.obs.health.ModelHealth, fed after each served batch.
        self.health = None
        self.worker: Optional[threading.Thread] = None
        self._pending = 0
        self._idle = threading.Condition()

    # ------------------------------------------------------------------ #
    # in-flight accounting
    # ------------------------------------------------------------------ #
    def note_admitted(self) -> None:
        with self._idle:
            self._pending += 1

    def note_done(self) -> None:
        with self._idle:
            self._pending -= 1
            if self._pending <= 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    @property
    def pending(self) -> int:
        with self._idle:
            return self._pending

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def admit(self, request: Request, block: bool = True, timeout: Optional[float] = None) -> None:
        """Queue ``request``, shedding a lower-priority one when the queue is full.

        Raises :class:`ServerOverloaded` when nothing can be shed and
        :class:`ServerClosed` when the lane's queue is closed.
        """
        self.note_admitted()
        try:
            self.queue.put(request, block=block, timeout=timeout)
        except ServerOverloaded:
            try:
                victim = self.queue.shed_lower_priority(request)
            except ServerOverloaded:
                self.note_done()
                self.metrics.record_rejected()
                raise
            except ServerClosed:
                self.note_done()
                raise
            if victim is not None:
                self.shed_request(victim)
        except ServerClosed:
            self.note_done()
            raise
        self.metrics.record_admitted(self.queue.depth)

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the worker thread (idempotent under the owner's lock)."""
        if self.worker is None:
            self.worker = threading.Thread(
                target=self._run, name=f"{self.owner._KIND}/{self.name}", daemon=True
            )
            self.worker.start()

    def join(self, timeout: Optional[float] = None) -> None:
        if self.worker is not None:
            self.worker.join(timeout)

    def fail_queued(self, error: BaseException) -> None:
        for request in self.queue.drain_remaining():
            self.fail_request(request, error)

    def _run(self) -> None:
        owner = self.owner
        while self.executor.ready(self):
            batch = self.batcher.next_batch(timeout=owner._POLL_SECONDS)
            if batch:
                if owner._abort.is_set():
                    error = ServerClosed(
                        f"the {owner._KIND} stopped before this request was served"
                    )
                    for request in batch:
                        self.fail_request(request, error)
                else:
                    self._serve_batch(batch)
                continue
            if self.queue.closed:
                break
        self.executor.finished(self)

    def _serve_batch(self, batch: List[Request]) -> None:
        formed = time.monotonic()
        live: List[Request] = []
        for request in batch:
            # A re-dispatched request's future is already RUNNING.
            if request.attempts > 0 or request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                self.metrics.record_cancelled()
                self.note_done()
        if not live:
            return
        # Group by per-sample shape so a malformed request can only fail its
        # own group — never the well-formed co-batched requests.
        by_shape: "OrderedDict[tuple, List[Request]]" = OrderedDict()
        for request in live:
            by_shape.setdefault(request.sample_shape, []).append(request)
        groups = list(by_shape.values())
        for index, requests in enumerate(groups):
            stacked = (
                requests[0].inputs
                if len(requests) == 1
                else np.concatenate([r.inputs for r in requests], axis=0)
            )
            start = time.monotonic()
            traced = [r for r in requests if r.trace is not None]
            for request in traced:
                # queue_wait ends at the batcher's pop; everything from there
                # to the executor call is batch formation.
                request.trace.advance("queue_wait", request.dequeue_time or formed)
                request.trace.advance("batch", start)
            try:
                logits, execute_s = self.executor(
                    stacked, [r.trace.trace_id for r in traced] if traced else None
                )
            except ExecutorLost as error:
                self.executor.lost(self, [r for group in groups[index:] for r in group], error)
                return
            except Exception as error:  # noqa: BLE001 - forwarded to futures
                for request in requests:
                    self.fail_request(request, error)
                continue
            done = time.monotonic()
            if traced and execute_s is not None:
                # The executor timed its own engine work across a wire: the
                # rest of the round trip (serialization, transit, worker-side
                # queuing) is the wire stage.
                wire_end = done - min(max(execute_s, 0.0), done - start)
                for request in traced:
                    request.trace.advance("wire", wire_end)
            for request in traced:
                request.trace.advance("execute", done)
            self.metrics.record_batch(int(stacked.shape[0]), done - formed)
            offset = 0
            for request in requests:
                rows = logits[offset : offset + request.num_samples]
                offset += request.num_samples
                if request.expired(done):
                    # Expired mid-flight: the caller stopped waiting, so the
                    # answer is discarded and the typed error is returned.
                    self.expire_request(request)
                    continue
                result = rows[0] if request.squeeze else rows
                try:
                    request.future.set_result(np.ascontiguousarray(result))
                except InvalidStateError:
                    pass  # cancelled between set_running and completion: impossible, but harmless
                self.metrics.record_completion(
                    latency_seconds=done - request.enqueue_time,
                    wait_seconds=formed - request.enqueue_time,
                    samples=request.num_samples,
                )
                self._record_span(request, "completed", finished=done)
                self.note_done()
            # Observers run after every future is resolved, and a raising one
            # must neither delay a caller nor end this worker.
            if self.health is not None:
                try:
                    self.health.observe_batch(stacked, logits)
                except Exception:  # noqa: BLE001 - health must never break serving
                    pass
            on_batch = self.owner._on_batch
            if on_batch is not None:
                try:
                    on_batch(self.model, requests)
                except Exception as error:  # noqa: BLE001 - an observer must never break serving
                    self.owner.events.emit(
                        "batch_observer_failed", **self.labels, error=repr(error)
                    )

    # ------------------------------------------------------------------ #
    # outcomes
    # ------------------------------------------------------------------ #
    def _record_span(
        self, request: Request, status: str, finished: Optional[float] = None
    ) -> None:
        if request.trace is None:
            return
        request.trace.finish(finished)
        self.owner.spans.record(
            request.trace.to_span(
                status=status,
                **self.labels,
                request_id=request.request_id,
                samples=request.num_samples,
                priority=request.priority,
                attempts=request.attempts,
            )
        )

    def _resolve(
        self, request: Request, error: BaseException, status: str, event: Optional[str] = None
    ) -> None:
        if not request.future.cancelled():
            try:
                request.future.set_exception(error)
            except InvalidStateError:
                pass
        if event is not None:
            self.owner.events.emit(
                event,
                **self.labels,
                request_id=request.request_id,
                priority=request.priority,
            )
        self._record_span(request, status)
        self.note_done()

    def fail_request(self, request: Request, error: BaseException) -> None:
        self.metrics.record_failed()
        self._resolve(request, error, "failed")

    def expire_request(self, request: Request) -> None:
        """Fail a request whose deadline passed (queued or mid-flight)."""
        self.metrics.record_expired()
        late = time.monotonic() - (request.deadline or 0.0)
        self._resolve(
            request,
            DeadlineExceeded(
                f"request {request.request_id} on {self.name!r} missed its "
                f"deadline by {late:.3f}s"
            ),
            "expired",
            "request_expired",
        )

    def shed_request(self, request: Request) -> None:
        """Fail a shed victim: a higher-priority arrival took its queue slot."""
        self.metrics.record_shed()
        self._resolve(
            request,
            ServerOverloaded(
                f"request {request.request_id} on {self.name!r} was shed "
                f"for a higher-priority request"
            ),
            "shed",
            "request_shed",
        )


class ServingCore:
    """The front door both servers share: admission, lifecycle, ``submit``.

    A subclass routes a name to something with an ``admit(request, block,
    timeout)`` method (a :class:`Lane`, or a set of them) and lists its
    lanes; everything else about turning a call into a queued request, and
    about starting, stopping and draining the lanes, lives here.

    Parameters
    ----------
    max_batch_size:
        Hard bound on the samples coalesced into one micro-batch.
    max_delay_ms:
        Micro-batch deadline: how long the first request of a batch may wait
        for co-travellers before being served (the latency price of
        batching).
    max_queue_depth:
        Per-lane admission-control bound; :meth:`submit` beyond it raises
        :class:`ServerOverloaded` (``block=False``) or blocks
        (``block=True``).
    latency_window:
        Number of recent requests the latency percentiles cover.
    on_batch:
        Optional observer called after each served micro-batch with
        ``(model_name, requests)`` — a telemetry/testing hook.  An observer
        that raises is reported as a ``batch_observer_failed`` event.
    trace:
        When true (the default), every request carries a
        :class:`~repro.obs.TraceContext` and its finished span (queue-wait /
        batch / [wire] / execute stage durations) lands in :attr:`spans`, a
        bounded ring.  The per-request cost is one small object and a few
        ``time.monotonic()`` reads.
    span_capacity:
        How many finished spans the ring retains.
    """

    _POLL_SECONDS = 0.05
    #: What this front door calls itself in messages and thread names.
    _KIND = "server"
    #: The label naming a lane's model in spans, events and telemetry.
    _MODEL_LABEL = "model"
    #: Request totals every ``metrics()`` document carries: key -> counter.
    _TOTALS = {
        "requests_admitted": "admitted",
        "requests_completed": "completed",
        "requests_failed": "failed",
        "requests_rejected": "rejected",
        "requests_expired": "expired",
        "requests_shed": "shed",
        "requests_retried": "retried",
        "samples_completed": "samples",
        "batches_served": "batches",
    }

    def __init__(
        self,
        *,
        max_batch_size: int = 32,
        max_delay_ms: float = 2.0,
        max_queue_depth: int = 512,
        latency_window: int = 8192,
        on_batch: Optional[BatchObserver] = None,
        trace: bool = True,
        span_capacity: int = 2048,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.max_batch_size = int(max_batch_size)
        self.max_delay_ms = float(max_delay_ms)
        self.max_queue_depth = int(max_queue_depth)
        self.latency_window = int(latency_window)
        self._on_batch = on_batch
        self.trace_enabled = bool(trace)
        self.spans = SpanRecorder(span_capacity)
        self.events = EventLog()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._abort = threading.Event()
        # One id sequence for the whole server, so events and spans name
        # each request unambiguously whichever lane serves it.
        self._request_ids = itertools.count(1)

    # -- what a subclass provides ------------------------------------------ #
    def _route(self, name: str):
        """The admission target for ``name`` (raises ``KeyError`` if unknown)."""
        raise NotImplementedError

    def _all_lanes(self) -> Sequence[Lane]:
        raise NotImplementedError

    def _launch(self) -> None:
        """Start serving after :meth:`start` marked the front door started."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        with self._lock:
            if self._closed:
                raise ServerClosed(f"this {self._KIND} was stopped; build a new one")
            if self._started:
                raise RuntimeError(f"the {self._KIND} is already running")
            self._started = True
        self._launch()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests and shut the lanes down.

        ``drain=True`` serves everything already admitted before returning;
        ``drain=False`` fails still-queued futures with :class:`ServerClosed`
        (the in-flight micro-batch always completes — a BLAS call cannot be
        interrupted).  ``timeout`` bounds the per-lane join.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._abort.set()
            was_started = self._started
        lanes = self._all_lanes()
        for lane in lanes:
            lane.queue.close()
        if was_started:
            for lane in lanes:
                lane.join(timeout)
        error = ServerClosed(f"the {self._KIND} stopped before this request was served")
        for lane in lanes:
            lane.fail_queued(error)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has completed (lanes keep running)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for lane in self._all_lanes():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not lane.wait_idle(remaining):
                return False
        return True

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    @property
    def _state(self) -> str:
        return "running" if self.running else ("stopped" if self._closed else "idle")

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        name: str,
        inputs,
        block: bool = True,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
        trace_id: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        """Enqueue one request for ``name``; returns a future of its logits.

        ``inputs`` is a single sample ``(C, H, W)`` (the future resolves to
        one logits row) or a small batch ``(n, C, H, W)`` with ``n`` at most
        ``max_batch_size`` (the future resolves to ``n`` rows).  Larger
        offline batches belong on :meth:`InferenceEngine.predict_logits`
        directly.  ``block``/``timeout`` select backpressure (wait for queue
        space) versus admission control (:class:`ServerOverloaded` at once).

        ``deadline_s`` bounds how long the caller will wait for the answer:
        a request that expires while queued (or mid-flight) fails with the
        typed :class:`DeadlineExceeded` and never occupies a batch slot.
        ``priority`` feeds load shedding: when admission control trips on a
        full queue, a strictly lower-priority queued request is shed (failed
        with :class:`ServerOverloaded`) to make room, instead of rejecting
        the higher-priority newcomer.

        ``trace_id`` names the request's trace span (auto-generated when
        tracing is on and none is given); look the finished span up with
        ``spans.find(trace_id)``.
        """
        if self._closed:
            raise ServerClosed(f"the {self._KIND} is stopped")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        target = self._route(name)
        array = np.ascontiguousarray(np.asarray(inputs, dtype=np.float32))
        if array.ndim == 3:
            array = array[np.newaxis]
            squeeze = True
        elif array.ndim == 4:
            squeeze = False
        else:
            raise ValueError(
                f"expected a (C, H, W) sample or (n, C, H, W) small batch, "
                f"got shape {array.shape}"
            )
        if array.shape[0] == 0:
            raise ValueError("cannot submit an empty request")
        if array.shape[0] > self.max_batch_size:
            raise ValueError(
                f"request of {array.shape[0]} samples exceeds max_batch_size="
                f"{self.max_batch_size}; use InferenceEngine.predict_logits "
                f"for large offline batches"
            )
        now = time.monotonic()
        request = Request(
            inputs=array,
            future=Future(),
            squeeze=squeeze,
            enqueue_time=now,
            request_id=next(self._request_ids),
            deadline=None if deadline_s is None else now + deadline_s,
            priority=int(priority),
            trace=TraceContext(trace_id, started=now) if self.trace_enabled else None,
        )
        target.admit(request, block, timeout)
        return request.future

    def predict(
        self,
        name: str,
        inputs,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> np.ndarray:
        """Synchronous :meth:`submit`: blocks until the logits are ready."""
        return self.submit(name, inputs, trace_id=trace_id).result(timeout)

    def predict_classes(
        self, name: str, inputs, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Class predictions (argmax over the logits axis)."""
        return self.predict(name, inputs, timeout=timeout).argmax(axis=-1)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def telemetry_targets(self) -> List[Dict[str, object]]:
        """Label/metrics pairs for the Prometheus exporter: one per lane.

        Each target is ``{"labels": the lane's labels, "metrics": its live
        ServerMetrics, "queue_depth": current depth, "health": its
        ModelHealth or None, "health_labels": the model label}`` — the
        contract :func:`repro.obs.collect_families` consumes.  Per-lane (not
        merged) series keep counters monotonic across scrapes; lanes of one
        model share its health object, and the exporter's identity dedup
        emits those series once under the model-level labels.
        """
        return [
            {
                "labels": {key: str(value) for key, value in lane.labels.items()},
                "metrics": lane.metrics,
                "queue_depth": lane.queue.depth,
                "health": lane.health,
                "health_labels": {self._MODEL_LABEL: lane.model},
            }
            for lane in self._all_lanes()
        ]

    def _summary(self, totals: Dict[str, str], **fields: object) -> Dict[str, object]:
        """Configuration, ``fields`` and request totals over every lane.

        One locked ``counters()`` read per lane: each lane's contribution is
        internally consistent (no torn reads between the per-field sums while
        workers are recording).
        """
        counters = [lane.metrics.counters() for lane in self._all_lanes()]
        return {
            "running": self.running,
            "max_batch_size": self.max_batch_size,
            "max_delay_ms": self.max_delay_ms,
            "max_queue_depth": self.max_queue_depth,
            **fields,
            **{
                key: sum(c[field] for c in counters)
                for key, field in {**self._TOTALS, **totals}.items()
            },
        }

    def metrics_json(self, name: Optional[str] = None, indent: int = 2) -> str:
        return json.dumps(self.metrics(name), indent=indent)
