"""Model-health instrumentation: quantization taps, shadow runs, drift.

Request-level observability (spans, counters) says whether the *serving*
is healthy; this module watches whether the *model* is — the numeric health
of mixed-precision PACT-quantized inference that the paper's whole premise
rests on.  Three independent probes, composable through :class:`ModelHealth`:

* :class:`QuantHealthTap` — per-layer activation statistics read inside the
  plan's observed loop (see :meth:`InferencePlan.set_health_tap`):
  PACT clip/saturation ratio against each layer's learned alpha, zero
  fraction, activation-range occupancy, and the integer-accumulator headroom
  a 32-bit deployment accumulator would have left.  The tap only *reads*
  step outputs — served logits stay bitwise-identical — and samples 1/N runs
  on a deterministic counter so steady-state overhead is a knob, not a tax.
* :class:`ShadowExecutor` — reruns ~1/N requests through a float reference
  path (the module forward for an in-process engine, a locally-loaded
  reference engine for a cluster) and records int-vs-float logit divergence
  and top-1 agreement.  Sampling is a deterministic counter with a seeded
  phase, so replays of one trace shadow the same requests.
* :class:`DriftDetector` — a rolling live window of prediction class
  histogram + entropy compared against a frozen reference window with a
  PSI-style score.  Fully deterministic: same request stream, same score.

Everything is stdlib + numpy; nothing here imports ``repro.serve`` (the
serving layer calls in, never the reverse).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

__all__ = [
    "QuantHealthTap",
    "ShadowExecutor",
    "DriftDetector",
    "ModelHealth",
]

#: Deployment accumulator the headroom estimate is measured against: a
#: signed 32-bit integer MAC unit, the common denominator of edge NPUs.
_ACC_BITS = 31


def primary_logits(output) -> np.ndarray:
    """The classification slot of a plan/engine result (multi-output aware)."""
    if isinstance(output, dict):
        return output["logits"] if "logits" in output else next(iter(output.values()))
    return output


class _LayerStats:
    """Cumulative per-layer activation aggregates (one quantized layer)."""

    __slots__ = (
        "layer", "kind", "alpha", "elements", "clipped", "zeros",
        "value_sum", "headroom_bits",
    )

    def __init__(self, layer: str, kind: str, alpha: float) -> None:
        self.layer = layer
        self.kind = kind
        self.alpha = alpha
        self.elements = 0
        self.clipped = 0
        self.zeros = 0
        self.value_sum = 0.0
        self.headroom_bits: Optional[float] = None


class QuantHealthTap:
    """Per-layer quantization health read from a plan's observed loop.

    Attach with :meth:`InferenceEngine.enable_health_tap` (or directly via
    :meth:`InferencePlan.set_health_tap`).  The plan calls :meth:`begin_run`
    once per run — a deterministic ``1/sample_every`` counter decides whether
    this run is observed — and, on sampled runs, :meth:`observe` after every
    step, next to the plan's step profiler when that is on.  Only steps
    carrying a fused PACT activation (``_alpha``) are recorded; for
    integer-mode GEMM steps the accumulator-headroom estimate is also
    updated from the static weight-code row sums times the observed input
    magnitude.

    The tap never writes to step outputs, so tapped serving is
    bitwise-identical to untapped serving by construction.
    """

    def __init__(self, sample_every: int = 1, seed: int = 0) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = int(sample_every)
        self._phase = int(seed) % self.sample_every
        self._lock = threading.Lock()
        self._runs = 0
        self._sampled_runs = 0
        self._layers: "OrderedDict[str, _LayerStats]" = OrderedDict()
        # Static per-step max |accumulator| bound, keyed by step key; the
        # weight codes are frozen between plan refreshes, so computing the
        # row sums once per tap lifetime is the right cost.
        self._acc_bounds: Dict[str, float] = {}

    # -- called from the plan's observed loop (engine-serialised) -------- #
    def begin_run(self) -> bool:
        """Advance the run counter; True when this run should be observed."""
        with self._lock:
            sampled = self._runs % self.sample_every == self._phase
            self._runs += 1
            if sampled:
                self._sampled_runs += 1
        return sampled

    def observe(self, step, inputs, out, seconds: float = 0.0) -> None:
        """Record one step's output stats (sampled runs only; read-only).

        ``seconds`` is the step's run time, which the tap does not use.
        """
        alpha = getattr(step, "_alpha", None)
        if alpha is None or not isinstance(out, np.ndarray) or out.size == 0:
            return
        quant_step = getattr(step, "_step", None)
        # Post-activation values live in [0, alpha]; under the rounding
        # staircase the top level sits at alpha itself, so "at or above the
        # last rounding boundary" is the saturation test.
        boundary = alpha - 0.5 * quant_step if quant_step else alpha * (1.0 - 1e-6)
        clipped = int(np.count_nonzero(out >= boundary))
        zeros = int(np.count_nonzero(out == 0.0))
        value_sum = float(out.sum())
        headroom = self._headroom_bits(step, inputs)
        with self._lock:
            stats = self._layers.get(step.key)
            if stats is None:
                stats = self._layers[step.key] = _LayerStats(
                    step.key, type(step).__name__.lstrip("_"), float(alpha)
                )
            stats.alpha = float(alpha)
            stats.elements += out.size
            stats.clipped += clipped
            stats.zeros += zeros
            stats.value_sum += value_sum
            if headroom is not None:
                stats.headroom_bits = (
                    headroom
                    if stats.headroom_bits is None
                    else min(stats.headroom_bits, headroom)
                )

    def _headroom_bits(self, step, inputs) -> Optional[float]:
        """Bits of 32-bit accumulator headroom an integer GEMM has left.

        Estimated as the static worst case of this step's integer weight
        codes (max absolute row sum of the unrolled weight matrix) times the
        observed input magnitude of this run — the bound an int32 MAC array
        would actually face for these inputs.  ``None`` for float-mode steps.
        """
        if getattr(step, "_scale", None) is None or not isinstance(inputs, np.ndarray):
            return None
        bound = self._acc_bounds.get(step.key)
        if bound is None:
            w = getattr(step, "_w_mat", None)
            if w is None:
                w = getattr(step, "_w", None)
            if w is None:
                return None
            bound = float(np.abs(w).sum(axis=-1).max())
            with self._lock:
                self._acc_bounds[step.key] = bound
        if inputs.size == 0:
            return None
        peak = bound * float(np.abs(inputs).max())
        return _ACC_BITS - math.log2(max(peak, 1.0))

    # -- read side ------------------------------------------------------- #
    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            layers: List[Dict[str, object]] = []
            for stats in self._layers.values():
                elements = stats.elements
                layers.append(
                    {
                        "layer": stats.layer,
                        "kind": stats.kind,
                        "alpha": stats.alpha,
                        "elements": elements,
                        "clip_ratio": stats.clipped / elements if elements else 0.0,
                        "zero_ratio": stats.zeros / elements if elements else 0.0,
                        "occupancy": (
                            stats.value_sum / (elements * stats.alpha)
                            if elements and stats.alpha
                            else 0.0
                        ),
                        "headroom_bits": (
                            None
                            if stats.headroom_bits is None
                            else round(stats.headroom_bits, 3)
                        ),
                    }
                )
            return {
                "runs": self._runs,
                "sampled_runs": self._sampled_runs,
                "sample_every": self.sample_every,
                "layers": layers,
            }

    def reset(self) -> None:
        with self._lock:
            self._runs = 0
            self._sampled_runs = 0
            self._layers.clear()
            self._acc_bounds.clear()


class ShadowExecutor:
    """Sampled float-shadow comparison of served logits.

    ``reference`` is any ``(batch) -> logits`` callable computing the float
    ground truth for the same model — the module forward for an in-process
    engine, or a locally-loaded reference engine's ``predict_logits`` for a
    process-sharded cluster.  Every ``sample_every``-th observed request
    batch (deterministic counter, seeded phase) is rerun through it and the
    int-vs-float divergence recorded; served results are never touched.
    """

    def __init__(
        self,
        reference: Callable[[np.ndarray], np.ndarray],
        sample_every: int = 16,
        seed: int = 0,
    ) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.reference = reference
        self.sample_every = int(sample_every)
        self._phase = int(seed) % self.sample_every
        self._lock = threading.Lock()
        self._seen = 0
        self._shadowed = 0
        self._samples = 0
        self._top1_agree = 0
        self._divergence_sum = 0.0
        self._divergence_max = 0.0

    def maybe_shadow(self, batch: np.ndarray, served) -> bool:
        """Shadow this batch when its turn is up; True when it ran."""
        with self._lock:
            due = self._seen % self.sample_every == self._phase
            self._seen += 1
        if not due:
            return False
        served_logits = np.asarray(primary_logits(served), dtype=np.float64)
        reference_logits = np.asarray(
            primary_logits(self.reference(batch)), dtype=np.float64
        )
        diff = np.abs(served_logits - reference_logits)
        per_sample_max = diff.reshape(diff.shape[0], -1).max(axis=1)
        agree = int(
            np.count_nonzero(
                served_logits.argmax(axis=-1) == reference_logits.argmax(axis=-1)
            )
        )
        with self._lock:
            self._shadowed += 1
            self._samples += int(served_logits.shape[0])
            self._top1_agree += agree
            self._divergence_sum += float(per_sample_max.sum())
            self._divergence_max = max(self._divergence_max, float(per_sample_max.max()))
        return True

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            samples = self._samples
            return {
                "sample_every": self.sample_every,
                "batches_seen": self._seen,
                "batches_shadowed": self._shadowed,
                "samples_compared": samples,
                "top1_agreement": self._top1_agree / samples if samples else 1.0,
                "divergence_mean": self._divergence_sum / samples if samples else 0.0,
                "divergence_max": self._divergence_max,
            }


class DriftDetector:
    """Rolling prediction-drift score: live window vs frozen reference.

    The first ``reference_size`` observed samples freeze the *reference*
    window (class histogram + mean prediction entropy); after that a bounded
    deque holds the most recent ``window`` samples as the *live* window.
    :meth:`score` is a PSI (population stability index) over the class
    histograms — 0 for identical distributions, conventionally >0.2 for
    actionable shift — plus the entropy delta as a secondary signal.
    Everything is a deterministic function of the observation stream.
    """

    def __init__(
        self,
        reference_size: int = 256,
        window: int = 512,
        epsilon: float = 1e-4,
    ) -> None:
        if reference_size <= 0 or window <= 0:
            raise ValueError("reference_size and window must be positive")
        self.reference_size = int(reference_size)
        self.window = int(window)
        self.epsilon = float(epsilon)
        self._lock = threading.Lock()
        self._num_classes: Optional[int] = None
        self._reference_counts: Optional[np.ndarray] = None
        self._reference_entropy_sum = 0.0
        self._reference_n = 0
        self._live: Deque[int] = deque(maxlen=window)
        self._live_entropy: Deque[float] = deque(maxlen=window)
        self._observations = 0

    @staticmethod
    def _entropies(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return -(probs * np.log(np.clip(probs, 1e-12, None))).sum(axis=-1)

    def observe(self, logits) -> None:
        array = np.asarray(primary_logits(logits), dtype=np.float64)
        if array.ndim == 1:
            array = array[np.newaxis]
        classes = array.argmax(axis=-1)
        entropies = self._entropies(array)
        with self._lock:
            if self._num_classes is None:
                self._num_classes = int(array.shape[-1])
                self._reference_counts = np.zeros(self._num_classes, dtype=np.int64)
            for cls, entropy in zip(classes, entropies):
                self._observations += 1
                if self._reference_n < self.reference_size:
                    self._reference_counts[int(cls)] += 1
                    self._reference_entropy_sum += float(entropy)
                    self._reference_n += 1
                else:
                    self._live.append(int(cls))
                    self._live_entropy.append(float(entropy))

    def score(self) -> float:
        """PSI of the live class histogram against the reference histogram."""
        with self._lock:
            if (
                self._reference_counts is None
                or self._reference_n == 0
                or not self._live
            ):
                return 0.0
            live_counts = np.bincount(
                np.asarray(self._live, dtype=np.int64), minlength=self._num_classes
            ).astype(np.float64)
            ref = self._reference_counts.astype(np.float64)
        p_ref = (ref + self.epsilon) / (ref.sum() + self.epsilon * ref.size)
        p_live = (live_counts + self.epsilon) / (
            live_counts.sum() + self.epsilon * live_counts.size
        )
        return float(((p_live - p_ref) * np.log(p_live / p_ref)).sum())

    def snapshot(self) -> Dict[str, object]:
        score = self.score()
        with self._lock:
            live_n = len(self._live)
            live_entropy = (
                sum(self._live_entropy) / live_n if live_n else 0.0
            )
            reference_entropy = (
                self._reference_entropy_sum / self._reference_n
                if self._reference_n
                else 0.0
            )
            return {
                "observations": self._observations,
                "reference_size": self._reference_n,
                "live_size": live_n,
                "score": round(score, 6),
                "reference_entropy": round(reference_entropy, 6),
                "live_entropy": round(live_entropy, 6),
            }


class ModelHealth:
    """One served model's health bundle: tap + shadow + drift, any subset.

    The serving layer feeds it once per served micro-batch
    (:meth:`observe_batch`); the exporter reads :meth:`snapshot`.  Parts are
    optional — a cluster without a local reference engine runs drift-only,
    an in-process server typically runs all three.
    """

    def __init__(
        self,
        name: str,
        *,
        quant: Optional[QuantHealthTap] = None,
        shadow: Optional[ShadowExecutor] = None,
        drift: Optional[DriftDetector] = None,
    ) -> None:
        self.name = name
        self.quant = quant
        self.shadow = shadow
        self.drift = drift
        # Batches may arrive from several shard dispatcher threads; the
        # parts have their own locks, but the shadow's reference engine is
        # typically single-writer, so serialise the feed path as a whole.
        self._lock = threading.Lock()

    def observe_batch(self, inputs: np.ndarray, outputs) -> None:
        """Record one served micro-batch (inputs + the logits it produced)."""
        with self._lock:
            if self.drift is not None:
                self.drift.observe(outputs)
            if self.shadow is not None:
                self.shadow.maybe_shadow(inputs, outputs)

    def divergence_max(self) -> float:
        if self.shadow is None:
            return 0.0
        return float(self.shadow.snapshot()["divergence_max"])

    def drift_score(self) -> float:
        return 0.0 if self.drift is None else float(self.drift.score())

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "quant": None if self.quant is None else self.quant.snapshot(),
            "shadow": None if self.shadow is None else self.shadow.snapshot(),
            "drift": None if self.drift is None else self.drift.snapshot(),
        }
