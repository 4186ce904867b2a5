"""The BMPQ training loop (Section III-D of the paper).

The trainer wires together every piece of the method:

1. **Warm-up** — for ``warmup_epochs`` all free layers are quantized to
   ``max(Sq)`` bits.
2. **Quantized training** — standard SGD with momentum / weight decay and a
   multi-step LR schedule; weights are kept in FP-32 shadow form and
   quantized on the forward pass (uniform for 4+ bits, ternary for 2 bits),
   and activations go through PACT with the layer's weight bit width.
3. **Sensitivity collection** — after every backward pass the per-layer NBG is
   computed from the bit gradients and accumulated by a
   :class:`~repro.core.sensitivity.SensitivityTracker`.
4. **ILP re-assignment** — at the end of every epoch interval the tracker's
   ENBG feeds the :class:`~repro.core.policy.BitWidthPolicy`, whose ILP
   solution becomes the new per-layer bit assignment for the next interval.

The trainer records a full history (assignments, accuracy, loss, ENBG
snapshots, compression ratio) so the benchmark harness can regenerate the
paper's tables and figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.compression import compression_summary
from ..backend import use_backend
from ..nn import CrossEntropyLoss, MultiStepLR, SGD, Tensor, no_grad
from ..nn.loss import accuracy
from ..quant.qmodules import QuantizedLayer
from .bit_gradients import layer_nbg_from_grad
from .policy import BitWidthPolicy, LayerSpec
from .schedule import EpochIntervalSchedule
from .sensitivity import EnbgSnapshot, SensitivityTracker

__all__ = ["BMPQConfig", "EpochRecord", "BMPQResult", "BMPQTrainer", "evaluate_model"]


@dataclass
class BMPQConfig:
    """Hyper-parameters of a BMPQ training run.

    Defaults follow the paper's CIFAR recipe scaled to the reproduction
    environment; the benchmark harness overrides ``epochs``, ``epoch_interval``
    and the budget per experiment.  ``backend`` names the array backend
    (see :func:`repro.backend.available_backends`) every forward/backward of
    the run executes on: ``"fast"`` (vectorized) or ``"numpy"`` (loop-level
    reference).  ``None`` (the default) inherits whatever backend is active,
    so a global :func:`repro.set_backend` choice is respected.
    """

    epochs: int = 200
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_milestones: Tuple[int, ...] = (80, 140)
    lr_gamma: float = 0.1
    support_bits: Tuple[int, ...] = (4, 2)
    epoch_interval: int = 20
    aperiodic_intervals: Optional[Tuple[int, ...]] = None
    warmup_epochs: int = 0
    target_compression_ratio: Optional[float] = None
    target_average_bits: Optional[float] = None
    budget_bits: Optional[float] = None
    ilp_method: str = "auto"
    label_smoothing: float = 0.0
    backend: Optional[str] = None
    evaluate_every_epoch: bool = True
    log_fn: Optional[callable] = None

    def qmax(self) -> int:
        """Maximum support bit width, used to size the bit-gradient matrix."""
        return max(self.support_bits)


@dataclass
class EpochRecord:
    """Metrics and state captured at the end of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: Optional[float]
    learning_rate: float
    bits_by_layer: Dict[str, int]
    reassigned: bool
    seconds: float


@dataclass
class BMPQResult:
    """Outcome of a full BMPQ training run."""

    final_bits_by_layer: Dict[str, int]
    final_bit_vector: List[int]
    best_test_accuracy: float
    final_test_accuracy: float
    compression_ratio_fp32: float
    compression_ratio_fp16: float
    model_size_mb: float
    fp32_size_mb: float
    history: List[EpochRecord] = field(default_factory=list)
    snapshots: List[EnbgSnapshot] = field(default_factory=list)
    assignments_over_time: List[Tuple[int, Dict[str, int]]] = field(default_factory=list)

    def accuracy_at_epoch(self, epoch: int) -> Optional[float]:
        """Test accuracy recorded at a given 0-based epoch (Table II uses this)."""
        for record in self.history:
            if record.epoch == epoch:
                return record.test_accuracy
        return None


def evaluate_model(model, loader, engine=None) -> Tuple[float, float]:
    """Return (mean loss, accuracy) of ``model`` over an evaluation loader.

    Evaluation rides the serving engine (:mod:`repro.serve`): the layer
    sequence is compiled once per call, eval-mode BatchNorm and PACT clipping
    are fused into the conv/linear kernels, and quantized weights come from
    the version-keyed cache instead of being re-quantized per batch.  A model
    the tracer cannot compile raises the engine's
    :class:`~repro.serve.PlanTraceError`.  Pass a pre-built ``engine`` to
    reuse its compiled plan across calls.
    """
    from ..serve import InferenceEngine

    criterion = CrossEntropyLoss()
    if engine is None:
        engine = InferenceEngine(model)
    was_training = model.training
    model.eval()
    losses: List[float] = []
    correct = 0
    total = 0
    with no_grad():
        for inputs, targets in loader:
            logits = Tensor(engine.predict_logits(inputs))
            losses.append(float(criterion(logits, targets).item()))
            predictions = logits.data.argmax(axis=-1)
            correct += int((predictions == targets).sum())
            total += len(targets)
    model.train(was_training)
    if total == 0:
        return 0.0, 0.0
    return float(np.mean(losses)), correct / total


class BMPQTrainer:
    """Trains a quantizable model with bit-gradient-driven MPQ from scratch."""

    def __init__(
        self,
        model,
        train_loader,
        test_loader,
        config: Optional[BMPQConfig] = None,
    ) -> None:
        self.model = model
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.config = config if config is not None else BMPQConfig()

        self.layers: Dict[str, QuantizedLayer] = dict(model.quantizable_layers())
        if not self.layers:
            raise ValueError("model exposes no quantizable layers")
        self.layer_specs: List[LayerSpec] = list(model.layer_specs())

        self.policy = BitWidthPolicy(
            layers=self.layer_specs,
            support_bits=self.config.support_bits,
            budget_bits=self.config.budget_bits,
            target_compression_ratio=self.config.target_compression_ratio,
            target_average_bits=self.config.target_average_bits,
            ilp_method=self.config.ilp_method,
        )
        self.schedule = EpochIntervalSchedule(
            total_epochs=self.config.epochs,
            interval=self.config.epoch_interval,
            intervals=self.config.aperiodic_intervals,
            warmup_epochs=self.config.warmup_epochs,
        )
        self.tracker = SensitivityTracker(list(self.layers.keys()))
        self.criterion = CrossEntropyLoss(label_smoothing=self.config.label_smoothing)
        self.optimizer = SGD(
            self.model.parameters(),
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self.lr_schedule = MultiStepLR(
            self.optimizer, milestones=list(self.config.lr_milestones), gamma=self.config.lr_gamma
        )

    # ------------------------------------------------------------------ #
    # bit-width management
    # ------------------------------------------------------------------ #
    def current_assignment(self) -> Dict[str, int]:
        return {name: layer.bits for name, layer in self.layers.items()}

    def apply_assignment(self, bits_by_layer: Mapping[str, int]) -> None:
        """Set every non-pinned layer to its assigned bit width."""
        for name, bits in bits_by_layer.items():
            layer = self.layers[name]
            if layer.pinned:
                continue
            if layer.bits != bits:
                layer.set_bits(bits)

    def warmup_assignment(self) -> Dict[str, int]:
        """All free layers at max(Sq); pinned layers keep 16 bits."""
        return self.policy.uniform_assignment(max(self.config.support_bits))

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        if self.config.log_fn is not None:
            self.config.log_fn(message)

    def _collect_step_nbg(self) -> Dict[str, float]:
        qmax = self.config.qmax()
        nbg: Dict[str, float] = {}
        for name, layer in self.layers.items():
            grad_wq, _codes, scale = layer.weight_bit_gradient_inputs()
            nbg[name] = layer_nbg_from_grad(grad_wq, scale, qmax)
        return nbg

    def train_one_epoch(self, epoch: int) -> Tuple[float, float]:
        """Run one epoch of quantized training, collecting NBG per step."""
        with use_backend(self.config.backend):
            return self._train_one_epoch_impl(epoch)

    def _train_one_epoch_impl(self, epoch: int) -> Tuple[float, float]:
        self.model.train()
        losses: List[float] = []
        correct = 0
        total = 0
        for inputs, targets in self.train_loader:
            self.optimizer.zero_grad()
            logits = self.model(Tensor(inputs))
            loss = self.criterion(logits, targets)
            loss.backward()
            self.tracker.record_step(self._collect_step_nbg())
            self.optimizer.step()

            losses.append(float(loss.item()))
            predictions = logits.data.argmax(axis=-1)
            # Nothing of this step is read again; do not carry it into the
            # next step's forward.
            del logits, loss
            correct += int((predictions == targets).sum())
            total += len(targets)
        train_loss = float(np.mean(losses)) if losses else 0.0
        train_acc = correct / total if total else 0.0
        return train_loss, train_acc

    def train(self) -> BMPQResult:
        """Execute the full BMPQ schedule and return the run summary.

        The whole run — training epochs, per-epoch evaluation and the final
        compression accounting — executes on ``config.backend``.
        """
        with use_backend(self.config.backend):
            return self._train_impl()

    def _train_impl(self) -> BMPQResult:
        config = self.config
        self.apply_assignment(self.warmup_assignment())
        self._log(f"starting BMPQ: {self.policy.describe()}")
        self._log(self.schedule.describe())

        history: List[EpochRecord] = []
        assignments: List[Tuple[int, Dict[str, int]]] = [(0, self.current_assignment())]
        best_accuracy = 0.0
        final_accuracy = 0.0
        # One serving engine reused for every per-epoch evaluation: the plan
        # is traced once and only its constants refresh as weights change.
        # It lives as long as this run, so its plan arena goes with it.
        eval_engine = None

        for epoch in range(config.epochs):
            start = time.perf_counter()
            lr = self.lr_schedule.step(epoch)
            train_loss, train_acc = self.train_one_epoch(epoch)
            self.tracker.end_epoch(epoch)

            reassigned = False
            if not self.schedule.is_warmup_epoch(epoch) and self.schedule.is_reassignment_epoch(epoch):
                snapshot = self.tracker.finalize_interval(epoch)
                bits_by_layer, result = self.policy.assign(snapshot.enbg)
                self.apply_assignment(bits_by_layer)
                assignments.append((epoch + 1, self.current_assignment()))
                reassigned = True
                self._log(
                    f"epoch {epoch}: ILP re-assignment ({result.method}, optimal={result.optimal}) "
                    f"-> {list(self.current_assignment().values())}"
                )

            test_acc: Optional[float] = None
            if config.evaluate_every_epoch or epoch == config.epochs - 1:
                if eval_engine is None:
                    from ..serve import InferenceEngine

                    eval_engine = InferenceEngine(self.model)
                _, test_acc = evaluate_model(self.model, self.test_loader, engine=eval_engine)
                best_accuracy = max(best_accuracy, test_acc)
                final_accuracy = test_acc

            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    train_accuracy=train_acc,
                    test_accuracy=test_acc,
                    learning_rate=lr,
                    bits_by_layer=self.current_assignment(),
                    reassigned=reassigned,
                    seconds=time.perf_counter() - start,
                )
            )
            self._log(
                f"epoch {epoch}: loss={train_loss:.4f} train_acc={train_acc:.4f} "
                f"test_acc={test_acc if test_acc is not None else float('nan'):.4f} lr={lr:.4f}"
            )

        # If sensitivity data is pending after the last epoch, snapshot it so the
        # Fig. 2 analysis can include the final interval.
        if self.tracker.has_observations():
            self.tracker.finalize_interval(config.epochs - 1)

        final_bits = self.current_assignment()
        summary = compression_summary(self.layer_specs, final_bits)
        return BMPQResult(
            final_bits_by_layer=final_bits,
            final_bit_vector=[final_bits[spec.name] for spec in self.layer_specs],
            best_test_accuracy=best_accuracy,
            final_test_accuracy=final_accuracy,
            compression_ratio_fp32=summary.compression_ratio_fp32,
            compression_ratio_fp16=summary.compression_ratio_fp16,
            model_size_mb=summary.quantized_megabytes,
            fp32_size_mb=summary.fp32_megabytes,
            history=history,
            snapshots=list(self.tracker.snapshots),
            assignments_over_time=assignments,
        )
