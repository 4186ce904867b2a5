"""The serving frontend: a concurrent, dynamically-batched model server.

:mod:`repro.serve` gave the repository a fast read path for one caller;
this package turns it into a *service*.  The pieces compose bottom-up:

* :class:`RequestQueue` (:mod:`.queuing`) — bounded per-model queue with
  admission control (:class:`ServerOverloaded`) and close/drain semantics;
* :class:`DynamicBatcher` (:mod:`.batcher`) — coalesces concurrent
  single-sample requests into micro-batches under a ``max_batch_size`` bound
  and a ``max_delay`` deadline;
* :class:`ModelRegistry` (:mod:`.registry`) — hosts many named model/bit-width
  variants, each pinned to its own worker thread and engine;
* :class:`ServerMetrics` (:mod:`.metrics`) — p50/p95/p99 latency, queue
  depth, batch-occupancy histogram and throughput, exportable as JSON;
* :class:`~.lane.Lane` (:mod:`.lane`) — the serving core shared with the
  cluster: one queue, batcher, metrics set and worker thread per lane,
  handing each stacked micro-batch to an executor;
* :class:`ModelServer` (:mod:`.server`) — the facade: lifecycle
  (``start``/``stop``/``drain``, context manager), a future-returning
  :meth:`~ModelServer.submit` and a synchronous
  :meth:`~ModelServer.predict`.

Quickstart::

    from repro.serve import ModelServer

    with ModelServer(max_batch_size=16, max_delay_ms=3.0) as server:
        server.register("vgg-mixed", model)                 # float engine
        server.register("vgg-mixed-int", model, mode="integer")
        future = server.submit("vgg-mixed", sample)         # (C, H, W)
        logits = future.result()
        print(server.metrics_json("vgg-mixed"))
"""

from .batcher import DynamicBatcher
from .metrics import ServerMetrics
from .queuing import (
    DeadlineExceeded,
    Request,
    RequestQueue,
    ServerClosed,
    ServerOverloaded,
)
from .registry import ModelEntry, ModelRegistry
from .server import ModelServer

__all__ = [
    "DeadlineExceeded",
    "DynamicBatcher",
    "ModelEntry",
    "ModelRegistry",
    "ModelServer",
    "Request",
    "RequestQueue",
    "ServerClosed",
    "ServerOverloaded",
    "ServerMetrics",
]
