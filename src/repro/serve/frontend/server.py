"""The in-process model server: one lane per hosted model, run on a thread.

:class:`ModelServer` is the deployment facade over a
:class:`~repro.serve.frontend.registry.ModelRegistry`.  Clients on any number
of threads call :meth:`~ModelServer.submit` (future-returning) or
:meth:`~ModelServer.predict` (synchronous); each hosted model gets one
:class:`~repro.serve.frontend.lane.Lane` (queue, batcher, metrics, one worker
thread) whose :class:`LocalExecutor` calls the model's
:class:`~repro.serve.InferenceEngine` on each micro-batch.  The lane's
invariants (one worker per engine, bitwise batched results, per-request
failures, explicit lifecycle) are stated in :mod:`.lane`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...nn.tensor import Tensor, no_grad
from ...obs.health import (
    DriftDetector,
    ModelHealth,
    QuantHealthTap,
    ShadowExecutor,
    primary_logits,
)
from .lane import Executor, Lane, ServingCore
from .queuing import ServerClosed
from .registry import ModelEntry, ModelRegistry

__all__ = ["ModelServer"]


class LocalExecutor(Executor):
    """Runs ``engine.predict_logits`` in-process under the model lock."""

    def __init__(self, engine, model_lock: threading.Lock) -> None:
        self.engine = engine
        # Shared between lanes hosting the same model object (float + integer
        # variants of one checkpoint): a trace and the health shadow's float
        # forward toggle the model's train/eval mode, and a plan refresh
        # writes the layers' quantized-weight caches, so two engines over one
        # model must never serve concurrently.  Lanes over distinct models
        # get distinct locks and never contend.
        self.model_lock = model_lock

    def __call__(self, batch: np.ndarray, trace_ids) -> Tuple[np.ndarray, None]:
        with self.model_lock:
            return self.engine.predict_logits(batch), None


class ModelServer(ServingCore):
    """Concurrent, dynamically-batched serving over a multi-model registry.

    Each hosted model gets one :class:`~repro.serve.frontend.lane.Lane` over a
    :class:`LocalExecutor`.

    ``registry`` is an existing :class:`ModelRegistry` to serve (one is
    created when omitted); :meth:`register` adds models either way.  The
    keyword options (``max_batch_size``, ``max_delay_ms``,
    ``max_queue_depth``, ``latency_window``, ``on_batch``, ``trace``,
    ``span_capacity``) are the serving core's, applied per lane.
    """

    def __init__(self, registry: Optional[ModelRegistry] = None, **options) -> None:
        super().__init__(**options)
        self.registry = registry if registry is not None else ModelRegistry()
        self._lanes: "Dict[str, Lane]" = {}
        self._model_locks: "Dict[int, threading.Lock]" = {}
        for entry in self.registry.entries():
            self._ensure_lane(entry)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        model=None,
        *,
        mode: str = "float",
        engine=None,
        description: str = "",
    ) -> ModelEntry:
        """Host ``model`` under ``name``; live-registration is supported.

        The engine's internal batch size must cover ``max_batch_size`` so a
        micro-batch is always served by a single backend call (which is what
        makes batched results bitwise-identical to a direct call on the
        stacked batch): engines built here are pinned accordingly, and a
        caller-supplied ``engine`` with a smaller batch size is refused.
        """
        if engine is not None and engine.batch_size < self.max_batch_size:
            raise ValueError(
                f"engine batch_size={engine.batch_size} cannot cover the "
                f"server's max_batch_size={self.max_batch_size}; a micro-batch "
                f"must be served by a single backend call"
            )
        entry = self.registry.register(
            name,
            model,
            mode=mode,
            batch_size=max(64, self.max_batch_size),
            engine=engine,
            description=description,
        )
        self._ensure_lane(entry)
        return entry

    def _ensure_lane(self, entry: ModelEntry) -> Lane:
        with self._lock:
            if self._closed:
                raise ServerClosed("cannot register models on a stopped server")
            lane = self._lanes.get(entry.name)
            if lane is None:
                model_lock = self._model_locks.setdefault(
                    id(entry.engine.model), threading.Lock()
                )
                lane = Lane(
                    self,
                    LocalExecutor(entry.engine, model_lock),
                    entry.name,
                    {"model": entry.name},
                )
                self._lanes[entry.name] = lane
                if self._started:
                    lane.start()
            return lane

    def _route(self, model_name: str) -> Lane:
        lane = self._lanes.get(model_name)
        if lane is None:
            # Registered directly on the registry after construction.
            entry = self.registry.get(model_name)  # raises a helpful KeyError
            lane = self._ensure_lane(entry)
        return lane

    def _all_lanes(self) -> List[Lane]:
        with self._lock:  # live registration mutates _lanes concurrently
            return list(self._lanes.values())

    def _launch(self) -> None:
        with self._lock:
            for lane in self._lanes.values():
                lane.start()

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def enable_model_health(
        self,
        model_name: Optional[str] = None,
        *,
        tap_sample_every: int = 16,
        shadow_sample_every: int = 16,
        drift_reference_size: int = 256,
        drift_window: int = 512,
        seed: int = 0,
    ) -> "ModelHealth | Dict[str, ModelHealth]":
        """Attach quantization taps, a float shadow and drift detection.

        Builds one :class:`~repro.obs.health.ModelHealth` per lane (every
        lane when ``model_name`` is ``None``): a
        :class:`~repro.obs.health.QuantHealthTap` installed on the lane's
        engine (sampling ~1/``tap_sample_every`` plan runs), a
        :class:`~repro.obs.health.ShadowExecutor` re-running
        ~1/``shadow_sample_every`` served batches through the float forward
        of the same model (under the lane's model lock, so it never
        races the engine), and a :class:`~repro.obs.health.DriftDetector`
        over served prediction entropy/class histograms.  Served logits stay
        bitwise-identical — everything here observes after the fact.

        ``shadow_sample_every=0`` disables the shadow entirely.  Returns the
        health object (or a name-keyed dict of them) — the exporter picks
        the same objects up through :meth:`telemetry_targets`.
        """
        lanes = [self._route(model_name)] if model_name is not None else self._all_lanes()
        built: Dict[str, ModelHealth] = {}
        for lane in lanes:
            executor = lane.executor
            tap = QuantHealthTap(sample_every=tap_sample_every, seed=seed)
            executor.engine.enable_health_tap(tap)
            shadow = None
            if shadow_sample_every > 0:
                shadow = ShadowExecutor(
                    self._shadow_reference(executor),
                    sample_every=shadow_sample_every,
                    seed=seed,
                )
            lane.health = ModelHealth(
                lane.name,
                quant=tap,
                shadow=shadow,
                drift=DriftDetector(
                    reference_size=drift_reference_size, window=drift_window
                ),
            )
            built[lane.name] = lane.health
        if model_name is not None:
            return built[model_name]
        return built

    @staticmethod
    def _shadow_reference(executor: LocalExecutor) -> Callable[[np.ndarray], np.ndarray]:
        """The lane model's own eval-mode float forward, made safe.

        Takes the lane's model lock (the engine worker holds it while
        serving, so the shadow forward can never interleave with a served
        batch) and restores the training flag afterwards.  A multi-output
        model is compared on its primary slot.
        """

        def reference(batch: np.ndarray) -> np.ndarray:
            model = executor.engine.model
            with executor.model_lock, no_grad():
                was_training = model.training
                model.eval()
                try:
                    out = model(Tensor(batch))
                finally:
                    model.train(was_training)
            if isinstance(out, (tuple, list)):
                out = out[0]
            return primary_logits(out).data

        return reference

    def metrics(self, model_name: Optional[str] = None) -> Dict[str, object]:
        """Telemetry snapshot: one model's, or every model's plus totals."""
        if model_name is not None:
            lane = self._route(model_name)
            return lane.metrics.snapshot(queue_depth=lane.queue.depth)
        return {
            "server": self._summary({}, models_hosted=self.registry.describe()),
            "models": {
                lane.name: lane.metrics.snapshot(queue_depth=lane.queue.depth)
                for lane in self._all_lanes()
            },
        }

    def __repr__(self) -> str:
        return (
            f"ModelServer(models={self.registry.names()}, state={self._state}, "
            f"max_batch_size={self.max_batch_size}, max_delay_ms={self.max_delay_ms})"
        )
