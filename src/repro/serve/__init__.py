"""Serving-grade inference for BMPQ models.

The training stack optimises for gradient fidelity; this package optimises
the *read path*.  :class:`InferencePlan` traces a model's leaf-layer DAG —
linear chains and residual joins (identity and downsample shortcuts) alike
— and compiles a fused, channel-major, allocation-light evaluation pipeline
(eval-mode BatchNorm folded into the convolution's per-channel scale/bias,
PACT clipping applied in-place on the GEMM accumulator, shortcut values
spilled/joined by save/residual-add steps, quantized weights served from a
version-keyed cache, and every intermediate routed through a preallocated
:class:`PlanWorkspace` arena so primed steady-state runs allocate nothing);
:class:`InferenceEngine` wraps it with lazy tracing, batched prediction and
a :meth:`~InferenceEngine.plan_report` describing what compiled; a model
whose glue the tracer cannot compile is refused with the
:class:`PlanTraceError` that names the blocking op.  ``mode="integer"``
serves the deployed integer-code domain through the same machinery.

On top of the engine sits the serving *frontend*
(:mod:`repro.serve.frontend`): :class:`ModelServer` hosts multiple named
model/bit-width variants (:class:`ModelRegistry`), coalesces concurrent
requests into micro-batches (:class:`DynamicBatcher` over a bounded
:class:`RequestQueue` with admission control) and reports serving telemetry
(:class:`ServerMetrics` — latency percentiles, batch occupancy,
throughput).

Above the frontend sits the *cluster* layer (:mod:`repro.serve.cluster`):
:class:`ClusterServer` shards each variant across worker **processes**
booted from versioned quantized checkpoints, speaks a length-prefixed
binary wire protocol to them over socketpairs, restarts crashed workers,
and lets an :class:`Autoscaler` move per-variant shard counts with load.
"""

from .cluster import (
    Autoscaler,
    AutoscalerPolicy,
    ClusterServer,
    WorkerCrashed,
)
from .engine import InferenceEngine
from .frontend import (
    DeadlineExceeded,
    DynamicBatcher,
    ModelEntry,
    ModelRegistry,
    ModelServer,
    Request,
    RequestQueue,
    ServerClosed,
    ServerMetrics,
    ServerOverloaded,
)
from .plan import InferencePlan, PlanTraceError, PlanVerifyError
from .workspace import PlanWorkspace

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "ClusterServer",
    "WorkerCrashed",
    "InferenceEngine",
    "InferencePlan",
    "PlanTraceError",
    "PlanVerifyError",
    "PlanWorkspace",
    "DeadlineExceeded",
    "DynamicBatcher",
    "ModelEntry",
    "ModelRegistry",
    "ModelServer",
    "Request",
    "RequestQueue",
    "ServerClosed",
    "ServerMetrics",
    "ServerOverloaded",
]
