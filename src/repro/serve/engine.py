"""The batched prediction front-end over compiled inference plans.

:class:`InferenceEngine` is the serving entry point the rest of the
repository uses: :func:`repro.core.trainer.evaluate_model` rides it for every
evaluation pass, the experiments runner inherits it through the trainers, and
the deployment example serves requests with it.  It owns three concerns the
plan itself does not:

* **batching** — ``predict(inputs, batch_size=...)`` slices arbitrarily
  large request arrays into backend-friendly batches and concatenates the
  logits, so callers never hand-roll chunking;
* **lifecycle** — the plan is traced lazily on the first call (the input
  shape is only known then), then kept fresh by a *staleness check* instead
  of an unconditional per-call refresh: the engine fingerprints the model
  from counters alone (every parameter's ``Tensor.version``, the per-layer
  bit assignment, and every BatchNorm's ``stats_version``) and only
  re-resolves the plan's constants when that token changes.  The counters
  only ever grow, so two different states can never share a token.  A
  server calling ``predict`` thousands of times on frozen weights pays for
  the refresh once; optimizer steps, ``set_bits``/``apply_assignment``,
  training-mode forwards and checkpoint loads all change the token and are
  honoured automatically.  Weights or statistics mutated in place *without*
  bumping their counter are invisible to the check (as everywhere else in
  the stack) — pass ``refresh=True`` to force a re-resolve.  The engine
  never flips the model's train/eval mode: the trace does, and restores it
  even when a forward raises;
* **refusal** — a model the tracer cannot compile is refused, never
  served another way: ``predict``, ``predict_logits`` and :meth:`warmup`
  raise the :class:`~repro.serve.PlanTraceError` (or
  :class:`~repro.serve.PlanVerifyError`) that names the op that blocked the
  trace.  Nothing is cached about the failure, so a later call traces
  again.  :meth:`plan_report` says what compiled.

``mode="integer"`` serves the integer-code domain (what deployment hardware
executes) through the same plans; the scale is distributed out of the GEMM
accumulation exactly as in :class:`~repro.quant.IntegerInferenceSession`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend import get_backend
from ..nn.modules import BatchNorm2d
from ..nn.tensor import no_grad
from ..quant.qmodules import QuantizedLayer
from .plan import InferencePlan

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """Batched, compiled evaluation/serving for one model.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.Module`; quantized layers get fused/cached
        treatment, plain layers run as-is.
    mode:
        ``"float"`` (parity with ``model.eval()``) or ``"integer"``
        (integer-code GEMMs, parity with the integer inference session).
    batch_size:
        Default slice size for :meth:`predict` / :meth:`predict_logits`.
    """

    def __init__(self, model, mode: str = "float", batch_size: int = 256) -> None:
        if mode not in ("float", "integer"):
            raise ValueError(f"unknown engine mode {mode!r}; use 'float' or 'integer'")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.mode = mode
        self.batch_size = int(batch_size)
        self._plan: Optional[InferencePlan] = None
        self._refresh_token: Optional[Tuple] = None
        # Serialises plan execution: the plan's workspace arena is
        # single-writer, and two threads predicting through one engine must
        # not interleave buffer writes.  Distinct engines own distinct plans
        # (and arenas), so they never contend with each other.
        self._lock = threading.RLock()
        # The parameter/module walk behind the staleness token is cached —
        # the model's structure does not change between predicts (and the
        # explicit refresh paths invalidate it when in doubt).
        self._token_sources: Optional[Tuple[tuple, tuple, tuple]] = None
        # Per-plan-step profiling (enable_step_profiling) and the
        # quantization-health tap (repro.obs.health.QuantHealthTap, None =
        # off): both applied to the plan when it compiles.
        self._profile_steps = False
        self._health_tap = None

    # ------------------------------------------------------------------ #
    # plan lifecycle
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> Optional[InferencePlan]:
        """The compiled plan, or ``None`` before first use."""
        return self._plan

    def _ensure_plan(self, input_shape) -> None:
        """Trace on first use; a trace or verify error propagates as is."""
        if self._plan is not None:
            return
        plan = InferencePlan.trace(self.model, tuple(input_shape[1:]), mode=self.mode)
        if self._profile_steps:
            plan.enable_profiling()
        if self._health_tap is not None:
            plan.set_health_tap(self._health_tap)
        self._plan = plan

    def enable_step_profiling(self, enabled: bool = True) -> None:
        """Turn per-plan-step timing on/off for this engine.

        Takes effect immediately on an already-compiled plan, or when the
        first call compiles one (``_ensure_plan`` applies it).  While enabled,
        :meth:`plan_report` carries a ``step_timings`` list.
        """
        with self._lock:
            self._profile_steps = bool(enabled)
            if self._plan is not None:
                self._plan.enable_profiling(enabled)

    def enable_health_tap(self, tap) -> None:
        """Attach (or with ``None`` detach) a quantization-health tap.

        ``tap`` duck-types :class:`repro.obs.health.QuantHealthTap`.  Takes
        effect immediately on an already-compiled plan, or when the first
        call compiles one (``_ensure_plan`` applies it).  The tap and step
        profiling can be on together.  Served outputs are bitwise-identical
        with the tap on.
        """
        with self._lock:
            self._health_tap = tap
            if self._plan is not None:
                self._plan.set_health_tap(tap)

    def _state_token(self) -> Tuple:
        """Cheap staleness fingerprint of everything a plan bakes in.

        Parameter ``version`` counters catch optimizer steps and checkpoint
        loads; the per-layer bit tuple catches ``set_bits`` /
        ``apply_assignment``; BatchNorm ``stats_version`` counters catch
        running-statistic updates (training-mode forwards, checkpoint
        loads).  No array is read, and since every counter only grows, their
        sums change whenever any of them does.  In-place mutation that bumps
        no counter is invisible here by design — the same contract as the
        quantized-weight cache.
        """
        sources = self._token_sources
        if sources is None:
            params = tuple(self.model.parameters())
            qlayers = tuple(
                module for module in self.model.modules() if isinstance(module, QuantizedLayer)
            )
            bns = tuple(
                module for module in self.model.modules() if isinstance(module, BatchNorm2d)
            )
            sources = self._token_sources = (params, qlayers, bns)
        params, qlayers, bns = sources
        return (
            sum(param.version for param in params),
            tuple(module.bits for module in qlayers),
            sum(module.stats_version for module in bns),
        )

    def _refresh_plan(self, force: bool) -> None:
        """Re-resolve plan constants only when the model actually changed."""
        token = self._state_token()
        if force or token != self._refresh_token:
            self._plan.refresh()
            self._refresh_token = self._state_token() if force else token

    # ------------------------------------------------------------------ #
    # prediction API
    # ------------------------------------------------------------------ #
    def predict_logits(
        self,
        inputs,
        batch_size: Optional[int] = None,
        refresh: bool = False,
    ) -> np.ndarray:
        """Logits for ``inputs`` (any array-like of shape (N, C, H, W)).

        Plan constants (quantized weights, folded BatchNorm affines, PACT
        clipping levels) are re-resolved only when the staleness token says
        the model changed; ``refresh=True`` forces a re-resolve — the escape
        hatch for in-place mutations the version counters cannot see.
        """
        array = np.ascontiguousarray(np.asarray(inputs, dtype=np.float32))
        step = int(batch_size) if batch_size is not None else self.batch_size
        if step <= 0:
            raise ValueError(f"batch_size must be positive, got {step}")
        if array.shape[0] == 0:
            # A zero-row request must not push empty slices through the plan
            # (kernels and BN assume N >= 1).  Run a one-row probe to learn
            # the output geometry — the lock makes the recursive call safe —
            # and return its empty head, so the caller gets a
            # correctly-shaped ``(0, num_classes)`` result.  Probe values are
            # discarded, so numeric warnings from a zero input are noise.
            probe = np.zeros((1,) + array.shape[1:], dtype=np.float32)
            with np.errstate(all="ignore"):
                out = self.predict_logits(probe, batch_size=batch_size, refresh=refresh)
            if isinstance(out, dict):
                return {name: value[:0] for name, value in out.items()}
            return out[:0]
        # The lock serialises runs over the plan's single-writer workspace
        # arena.  Fused steps never dispatch through module forwards, so no
        # train/eval flip is needed once the plan exists.
        with self._lock, no_grad():
            if refresh:
                self._token_sources = None
            self._ensure_plan(array.shape)
            self._refresh_plan(force=refresh)
            plan = self._plan
            pieces: List[np.ndarray] = []
            for start in range(0, array.shape[0], step):
                pieces.append(plan.run(array[start : start + step]))
        return self._merge_pieces(pieces)

    @staticmethod
    def _merge_pieces(pieces):
        """Concatenate chunked results — per result slot for multi-output."""
        if len(pieces) == 1:
            return pieces[0]
        if isinstance(pieces[0], dict):
            return {
                name: np.concatenate([piece[name] for piece in pieces], axis=0)
                for name in pieces[0]
            }
        return np.concatenate(pieces, axis=0)

    def predict(
        self,
        inputs,
        batch_size: Optional[int] = None,
        refresh: bool = False,
    ) -> np.ndarray:
        """Class predictions (argmax over the last logits axis).

        Multi-output models classify over their primary slot: ``"logits"``
        when the model names one that way, the first result slot otherwise.
        """
        out = self.predict_logits(inputs, batch_size=batch_size, refresh=refresh)
        if isinstance(out, dict):
            primary = "logits" if "logits" in out else next(iter(out))
            out = out[primary]
        return out.argmax(axis=-1)

    # ------------------------------------------------------------------ #
    # introspection / eager tracing
    # ------------------------------------------------------------------ #
    def warmup(self, input_shape: Optional[Tuple[int, ...]] = None) -> "InferenceEngine":
        """Trace and refresh the plan before the first request arrives.

        ``input_shape`` is the per-sample shape ``(C, H, W)``; when omitted
        it is taken from the model's static hint
        (:meth:`~repro.models.base.QuantizableModel.example_input_shape`),
        so ``InferenceEngine(resnet18(...)).warmup()`` is enough to move the
        trace cost out of the first served request.  A model that cannot
        compile raises its :class:`~repro.serve.PlanTraceError` here, at
        deploy time, rather than at the first request.

        Warmup also does the per-machine tuning a served model wants done
        before the first request:

        * the backend's channel-major threshold is calibrated (see
          :meth:`~repro.backend.fast_numpy.FastNumpyBackend.calibrate_cm_max_positions`;
          a ``REPRO_CM_MAX_POSITIONS`` env pin skips measurement);
        * the plan is bound and its workspace arena sized with one run at
          ``min(batch_size, 64)``, so every batch up to that size starts at
          zero allocations from the very first request.  A later, larger
          run grows the arena's slabs once and binds every shape again.
        """
        if input_shape is None:
            hint = getattr(self.model, "example_input_shape", None)
            input_shape = hint() if callable(hint) else None
            if input_shape is None:
                raise ValueError(
                    "the model provides no input-shape hint; pass "
                    "input_shape=(C, H, W) explicitly"
                )
        with self._lock, no_grad():
            # Calibrate the backend's layout crossovers BEFORE tracing: the
            # plan compiler reads ``cm_kernel_max_positions`` to pick each
            # convolution's layout.
            calibrate = getattr(get_backend(), "calibrate_cm_max_positions", None)
            if callable(calibrate):
                calibrate()
            self._ensure_plan((1, *tuple(input_shape)))
            self._refresh_plan(force=False)
            probe = np.zeros((min(self.batch_size, 64), *tuple(input_shape)), dtype=np.float32)
            # Size the arena for every batch up to the probe's.
            self._plan.run(probe)
        return self

    def plan_report(self) -> Dict[str, object]:
        """What compiled, as a JSON-friendly dict.

        ``state`` is ``"untraced"`` (no predict yet) or ``"compiled"``; the
        ``plan`` entry is :meth:`InferencePlan.describe` (step kinds,
        residual joins, identity vs projection shortcuts, fusion counts).
        """
        plan_desc = self._plan.describe() if self._plan is not None else None
        return {
            "state": self._state(),
            "mode": self.mode,
            # Workspace misses during the most recent plan run: zero in
            # primed steady state — the CI-enforced no-allocation contract.
            "steady_state_allocations": (
                None if plan_desc is None else plan_desc.get("steady_state_allocations")
            ),
            "plan": plan_desc,
            # Per-step timings when profiling is on (None otherwise): one
            # entry per plan step with kind, backend kernel (route), calls,
            # total/mean milliseconds and share of profiled time.
            "step_timings": (
                self._plan.step_timings()
                if self._plan is not None and self._plan.profile
                else None
            ),
        }

    def _state(self) -> str:
        return "compiled" if self._plan is not None else "untraced"

    def __repr__(self) -> str:
        return (
            f"InferenceEngine(mode={self.mode!r}, batch_size={self.batch_size}, "
            f"state={self._state()})"
        )
