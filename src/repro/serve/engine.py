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
  (sum of every parameter's ``Tensor.version``, the per-layer bit
  assignment, and the BatchNorm running-statistic sums) and only re-resolves
  the plan's constants when that token changes.  A server calling
  ``predict`` thousands of times on frozen weights pays for the refresh
  once; optimizer steps, ``set_bits``/``apply_assignment`` and checkpoint
  loads all change the token and are honoured automatically.  Weights
  mutated in place *without* ``bump_version()`` are invisible to the check
  (as everywhere else in the stack) — pass ``refresh=True`` to force a
  re-resolve.  The model's train/eval mode is restored even when a forward
  raises;
* **fallback** — models the tracer genuinely cannot compile (glue beyond
  the supported joins: broadcasting multiplies, division joins, untraced
  arithmetic) degrade gracefully to the module forward path under
  ``no_grad``, which still benefits from the quantized-weight cache, instead
  of failing.  Residual additions, same-shape elementwise multiplies,
  channel concatenations and multi-output heads all compile to plans, so
  the fallback is reserved for the exotic cases — or for operators who
  *ask* for it: ``REPRO_FORCE_FALLBACK=1`` (or ``force_fallback=True``)
  pins an engine to the module path deliberately, without warnings and
  without tripping ``warmup(require_compiled=True)``, which is how the
  cluster bench keeps measuring the GIL-bound path on purpose.  The
  fallback is announced with a single structured
  ``engine_fallback`` log line per engine instance — never per ``predict``
  call — so a server hosting such a model does not spam its logs;
  :meth:`plan_report` says what compiled (or why not) without grepping them.  A ``predict(..., refresh=True)``
  call retries the trace, and a successful compile *upgrades* the engine off
  the fallback path (clearing the warning state so a later regression warns
  again).  In integer mode the fallback's
  :class:`~repro.quant.IntegerInferenceSession` (which freezes its exports
  at construction) is cached under the same staleness token, so frozen-weight
  serving does not rebuild it per call.

``mode="integer"`` serves the integer-code domain (what deployment hardware
executes) through the same plans; the scale is distributed out of the GEMM
accumulation exactly as in :class:`~repro.quant.IntegerInferenceSession`.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backend import get_backend
from ..nn.modules import BatchNorm2d
from ..nn.tensor import Tensor, no_grad
from ..obs.structlog import get_logger, log_event
from ..quant.qmodules import QuantizedLayer
from .plan import InferencePlan, PlanTraceError, PlanVerifyError

__all__ = ["InferenceEngine"]

_log = get_logger("serve.engine")


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

    def __init__(
        self,
        model,
        mode: str = "float",
        batch_size: int = 256,
        force_fallback: Optional[bool] = None,
    ) -> None:
        if mode not in ("float", "integer"):
            raise ValueError(f"unknown engine mode {mode!r}; use 'float' or 'integer'")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.mode = mode
        self.batch_size = int(batch_size)
        # Operator escape hatch: pin this engine to the module path even for
        # models that would compile — benchmarks measuring the GIL-bound
        # fallback path (bench_cluster's GilBoundNet workload) depend on it
        # now that mul/concat joins compile.  The env applies to every engine
        # in the process (it propagates to spawned cluster workers); the
        # constructor kwarg overrides the env either way.
        if force_fallback is None:
            force_fallback = os.environ.get(
                "REPRO_FORCE_FALLBACK", ""
            ).strip().lower() in ("1", "true", "yes", "on")
        self._force_fallback = bool(force_fallback)
        self._plan: Optional[InferencePlan] = None
        self._fallback = False
        self._fallback_warned = False
        self._fallback_reason: Optional[str] = None
        self._upgraded = False
        self._refresh_token: Optional[Tuple] = None
        self._fallback_run: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self._fallback_token: Optional[Tuple] = None
        # Serialises plan execution: the plan's workspace arena is
        # single-writer, and two threads predicting through one engine must
        # not interleave buffer writes.  Distinct engines own distinct plans
        # (and arenas), so they never contend with each other.
        self._lock = threading.RLock()
        # The parameter/module walk behind the staleness token is cached —
        # the model's structure does not change between predicts (and the
        # explicit refresh paths invalidate it when in doubt).
        self._token_sources: Optional[Tuple[tuple, tuple, tuple]] = None
        # Per-plan-step profiling: off unless the operator exports
        # REPRO_PLAN_PROFILE=1 (or calls enable_step_profiling).  Applied to
        # the plan when it compiles; plan_report() then carries step_timings.
        self._profile_steps = os.environ.get(
            "REPRO_PLAN_PROFILE", ""
        ).strip().lower() in ("1", "true", "yes", "on")
        # Quantization-health tap (repro.obs.health.QuantHealthTap): applied
        # to the plan when it compiles, like profiling.  None = off.
        self._health_tap = None

    # ------------------------------------------------------------------ #
    # plan lifecycle
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> Optional[InferencePlan]:
        """The compiled plan, or ``None`` before first use / in fallback mode."""
        return self._plan

    @property
    def uses_fallback(self) -> bool:
        """True when the model could not be compiled and runs the module path."""
        return self._fallback

    def _ensure_plan(self, input_shape) -> None:
        if self._plan is not None or self._fallback:
            return
        if self._force_fallback:
            # Deliberate operator choice — no warning, and warmup's
            # require_compiled contract does not apply.
            self._fallback = True
            self._fallback_reason = (
                "forced: REPRO_FORCE_FALLBACK pins this engine to the module path"
            )
            return
        try:
            self._plan = InferencePlan.trace(
                self.model, tuple(input_shape[1:]), mode=self.mode
            )
            if self._profile_steps:
                self._plan.enable_profiling()
            if self._health_tap is not None:
                self._plan.set_health_tap(self._health_tap)
        except PlanVerifyError as error:
            # The model traced fine but the compiled plan failed numerical
            # verification — that is a compiler problem, not an expected
            # topology limitation, so the fallback must not be silent.
            self._fallback_reason = f"verification failed: {error}"
            self._warn_fallback_once(
                f"compiled inference plan failed verification; falling back "
                f"to the module path ({error})",
                kind="verify_failed",
            )
            self._fallback = True
        except PlanTraceError as error:
            # Expected for genuinely unsupported glue (non-additive joins);
            # announced once per engine instance so servers are not spammed.
            self._fallback_reason = f"untraceable: {error}"
            self._warn_fallback_once(
                f"model cannot be compiled to an inference plan; "
                f"serving through the module path ({error})",
                kind="untraceable",
            )
            self._fallback = True

    def _retry_plan(self, input_shape) -> None:
        """``refresh=True`` on a fallen-back engine: try to compile again.

        A model that was untraceable at first predict may have been repaired
        since (glue rewritten, architecture flag flipped).  On success the
        engine *upgrades*: the fallback flag, the cached fallback session and
        the once-per-instance warning state are all cleared, so the upgrade
        is visible in :meth:`plan_report` and a later regression warns anew.
        """
        self._fallback = False
        self._token_sources = None
        self._ensure_plan(input_shape)
        if self._plan is not None:
            self._fallback_warned = False
            self._fallback_reason = None
            self._fallback_run = None
            self._fallback_token = None
            self._upgraded = True

    def enable_step_profiling(self, enabled: bool = True) -> None:
        """Turn per-plan-step timing on/off for this engine.

        Takes effect immediately on an already-compiled plan and persists
        across recompiles (``_ensure_plan`` re-applies it).  Equivalent to
        booting with ``REPRO_PLAN_PROFILE=1``.  While enabled,
        :meth:`plan_report` carries a ``step_timings`` list.
        """
        with self._lock:
            self._profile_steps = bool(enabled)
            if self._plan is not None:
                self._plan.enable_profiling(enabled)

    def enable_health_tap(self, tap) -> None:
        """Attach (or with ``None`` detach) a quantization-health tap.

        ``tap`` duck-types :class:`repro.obs.health.QuantHealthTap`.  Takes
        effect immediately on an already-compiled plan and persists across
        recompiles (``_ensure_plan`` re-applies it).  Fallback-path engines
        have no plan steps to tap; the tap simply never observes anything.
        The tap and step profiling can be on together.  Served outputs are
        bitwise-identical with the tap on.
        """
        with self._lock:
            self._health_tap = tap
            if self._plan is not None:
                self._plan.set_health_tap(tap)

    def _warn_fallback_once(self, message: str, kind: str) -> None:
        if self._fallback_warned:
            return
        self._fallback_warned = True
        log_event(
            _log,
            logging.WARNING,
            "engine_fallback",
            model=type(self.model).__name__,
            mode=self.mode,
            kind=kind,
            detail=message,
        )

    def _state_token(self) -> Tuple:
        """Cheap staleness fingerprint of everything a plan bakes in.

        Parameter ``version`` counters catch optimizer steps and checkpoint
        loads; the per-layer bit tuple catches ``set_bits`` /
        ``apply_assignment``; the BatchNorm running-statistic sums catch
        stat updates from training-mode forward passes (buffers have no
        version counter).  In-place weight mutation without
        ``bump_version()`` is invisible here by design — the same contract
        as the quantized-weight cache.
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
        versions = sum(param.version for param in params)
        bits = tuple(module.bits for module in qlayers)
        bn_stats = tuple(
            stat
            for module in bns
            for stat in (float(module.running_mean.sum()), float(module.running_var.sum()))
        )
        return (versions, bits, bn_stats)

    def _refresh_plan(self, force: bool) -> None:
        """Re-resolve plan constants only when the model actually changed."""
        token = self._state_token()
        if force or token != self._refresh_token:
            self._plan.refresh()
            self._refresh_token = self._state_token() if force else token

    def _fallback_runner(self, force: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The module-path executor, kept fresh by the same staleness token.

        The integer session freezes its exports at construction, so it is
        rebuilt whenever the staleness token changes (or on ``force``) and
        reused across calls while the model is frozen — a server on a
        residual model must not re-export every weight per request.  The
        float path reads live weights through the module forward, so it
        needs no caching at all.
        """
        if self.mode == "integer":
            from ..quant.integer_inference import IntegerInferenceSession

            token = self._state_token()
            if force or self._fallback_run is None or token != self._fallback_token:
                self._fallback_run = IntegerInferenceSession(self.model).run
                self._fallback_token = self._state_token() if force else token
            return self._fallback_run
        return self._module_forward

    def _module_forward(self, batch: np.ndarray):
        """One float module-path forward, multi-output normalised like a plan."""
        out = self.model(Tensor(batch))
        if isinstance(out, dict):
            return {str(key): value.data for key, value in out.items()}
        if isinstance(out, (tuple, list)):
            return {f"out{index}": value.data for index, value in enumerate(out)}
        return out.data

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
            # or the module path (kernels and BN assume N >= 1).  Run a
            # one-row probe to learn the output geometry — the lock makes
            # the recursive call safe — and return its empty head, so the
            # caller gets a correctly-shaped ``(0, num_classes)`` result.
            probe = np.zeros((1,) + array.shape[1:], dtype=np.float32)
            # Probe values are discarded (only shapes and slot names are
            # kept), so numeric warnings from a zero input — e.g. 0/0 in a
            # model with division glue — are noise.
            with np.errstate(all="ignore"):
                out = self.predict_logits(probe, batch_size=batch_size, refresh=refresh)
            if isinstance(out, dict):
                return {name: value[:0] for name, value in out.items()}
            return out[:0]
        plan = self._plan
        if plan is not None and plan.optimized and not refresh:
            # Steady-state fast path: fused steps never dispatch through
            # module forwards, so the train/eval flip (and its restore
            # bookkeeping) is dead weight here.  The lock serialises runs
            # over the plan's single-writer workspace arena.
            with self._lock, no_grad():
                self._refresh_plan(force=False)
                pieces: List[np.ndarray] = []
                for start in range(0, array.shape[0], step):
                    pieces.append(plan.run(array[start : start + step]))
            return self._merge_pieces(pieces)
        if refresh:
            self._token_sources = None
        was_training = self.model.training
        self.model.eval()
        try:
            with self._lock, no_grad():
                if refresh and self._fallback:
                    self._retry_plan(array.shape)
                else:
                    self._ensure_plan(array.shape)
                if self._plan is not None:
                    self._refresh_plan(force=refresh)
                    run = self._plan.run
                else:
                    run = self._fallback_runner(force=refresh)
                pieces = []
                for start in range(0, array.shape[0], step):
                    pieces.append(run(array[start : start + step]))
                return self._merge_pieces(pieces)
        finally:
            self.model.train(was_training)

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
    def warmup(
        self,
        input_shape: Optional[Tuple[int, ...]] = None,
        require_compiled: bool = True,
    ) -> "InferenceEngine":
        """Trace and refresh the plan before the first request arrives.

        ``input_shape`` is the per-sample shape ``(C, H, W)``; when omitted
        it is taken from the model's static hint
        (:meth:`~repro.models.base.QuantizableModel.example_input_shape`),
        so ``InferenceEngine(resnet18(...)).warmup()`` is enough to move the
        trace cost out of the first served request.

        A caller warming eagerly almost always wants compiled-plan serving
        guaranteed, so by default a trace failure raises
        :class:`~repro.serve.PlanTraceError` here — at deploy time — instead
        of letting every request silently pay module-path latency.  Pass
        ``require_compiled=False`` to accept the graceful fallback (the
        lazy-trace behaviour of a plain ``predict``).

        Warmup also does the per-machine tuning a served model wants done
        before the first request:

        * the backend's channel-major threshold is calibrated (see
          :meth:`~repro.backend.fast_numpy.FastNumpyBackend.calibrate_cm_max_positions`;
          a ``REPRO_CM_MAX_POSITIONS`` env pin skips measurement);
        * the plan's workspace arena is primed with one run at the engine's
          batch size, so steady-state ``predict`` starts at zero
          allocations from the very first request.
        """
        if input_shape is None:
            hint = getattr(self.model, "example_input_shape", None)
            input_shape = hint() if callable(hint) else None
            if input_shape is None:
                raise ValueError(
                    "the model provides no input-shape hint; pass "
                    "input_shape=(C, H, W) explicitly"
                )
        was_training = self.model.training
        self.model.eval()
        try:
            with self._lock, no_grad():
                # Calibrate the backend's layout crossovers BEFORE tracing:
                # the plan compiler reads ``cm_kernel_max_positions`` to pick
                # each convolution's layout.
                backend = get_backend()
                calibrate = getattr(backend, "calibrate_cm_max_positions", None)
                if callable(calibrate):
                    calibrate()
                self._ensure_plan((1, *tuple(input_shape)))
                if self._plan is not None:
                    self._refresh_plan(force=False)
                    probe = np.zeros(
                        (min(self.batch_size, 64), *tuple(input_shape)), dtype=np.float32
                    )
                    # Prime the arena for the serving batch shape.
                    self._plan.run(probe)
        finally:
            self.model.train(was_training)
        if require_compiled and self._fallback and not self._force_fallback:
            # A forced fallback is an explicit operator decision
            # (REPRO_FORCE_FALLBACK / force_fallback=True), not a trace
            # failure — warmup must not turn it into a deploy-time error.
            raise PlanTraceError(
                f"warmup could not compile a plan ({self._fallback_reason}); "
                "pass require_compiled=False to serve through the module-path "
                "fallback"
            )
        return self

    def plan_report(self) -> Dict[str, object]:
        """What compiled — or why not — as a JSON-friendly dict.

        ``state`` is ``"untraced"`` (no predict yet), ``"compiled"`` or
        ``"fallback"``; ``fallback_reason`` carries the trace/verify error
        text; ``upgraded_after_fallback`` records that a ``refresh=True``
        retry successfully compiled a plan after an earlier fallback; the
        ``plan`` entry is :meth:`InferencePlan.describe` (step kinds,
        residual joins, identity vs projection shortcuts, fusion counts).
        """
        if self._fallback:
            state = "fallback"
        elif self._plan is not None:
            state = "compiled"
        else:
            state = "untraced"
        plan_desc = self._plan.describe() if self._plan is not None else None
        return {
            "state": state,
            "mode": self.mode,
            "uses_fallback": self._fallback,
            "forced_fallback": self._force_fallback,
            "fallback_reason": self._fallback_reason,
            "upgraded_after_fallback": self._upgraded,
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

    def __repr__(self) -> str:
        state = "fallback" if self._fallback else ("compiled" if self._plan else "untraced")
        return (
            f"InferenceEngine(mode={self.mode!r}, batch_size={self.batch_size}, "
            f"state={state})"
        )
