"""Cluster serving: process-sharded workers behind a binary wire protocol.

This package is the scaling layer above :mod:`repro.serve.frontend`.  Where
:class:`~repro.serve.frontend.ModelServer` pins one worker *thread* per
engine (so a GIL-bound serving path caps a host at roughly one core),
:class:`ClusterServer` shards each model variant across N worker
*processes*, each booted from a versioned quantized checkpoint and spoken to
over a length-prefixed binary protocol (:mod:`.protocol`) that carries raw
ndarray payloads — no pickle on the hot path — over socketpair pipes
(:mod:`.transport`).  Callers reach the cluster in-process through
:meth:`ClusterServer.submit`/``predict``; there is no network listener.  A
per-shard :class:`CircuitBreaker` ejects failing shards, and an
:class:`Autoscaler` grows/shrinks per-variant shard counts from queue-depth
and p95-latency telemetry.

Quickstart::

    from repro.serve.cluster import Autoscaler, ClusterServer
    from repro.utils import save_quantized_checkpoint

    path = save_quantized_checkpoint(
        "deploy.npz", model,
        model_factory="repro.models.registry:build_model",
        factory_kwargs={"name": "resnet18", "num_classes": 10},
    )
    with ClusterServer(max_batch_size=16) as cluster:
        cluster.register("resnet-mixed", path, shards=2, max_shards=4)
        with Autoscaler(cluster):
            logits = cluster.predict("resnet-mixed", sample)  # (C, H, W)
            print(cluster.metrics_json("resnet-mixed"))
"""

from .autoscaler import Autoscaler, AutoscalerPolicy, decide
from .breaker import BreakerPolicy, CircuitBreaker
from .protocol import (
    FrameKind,
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteServingError,
    WorkerCrashed,
)
from .router import ClusterServer
from .transport import ChannelClosed, FrameChannel
from .worker import WorkerBootError, WorkerOptions, spawn_worker

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "decide",
    "BreakerPolicy",
    "CircuitBreaker",
    "FrameKind",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteServingError",
    "WorkerCrashed",
    "ClusterServer",
    "ChannelClosed",
    "FrameChannel",
    "WorkerBootError",
    "WorkerOptions",
    "spawn_worker",
]
