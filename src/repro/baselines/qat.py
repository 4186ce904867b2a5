"""Quantization-aware training with a *fixed* bit-width assignment.

This trainer is the workhorse behind the non-BMPQ baselines:

* homogeneous-precision quantization (HPQ) — every free layer at the same
  bit width;
* the activation-density (AD) single-shot method — bits assigned once from a
  calibration pass and never revisited;
* the FP-32 "full precision" rows of Table I — all layers at 32 bits.

It shares the optimizer/schedule/evaluation plumbing with the BMPQ trainer
but never re-assigns bit widths during training, which is exactly the
distinction the paper draws between "single-shot" and "during training" MPQ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..analysis.compression import CompressionSummary, compression_summary
from ..core.trainer import EpochRecord, evaluate_model
from ..nn import CrossEntropyLoss, MultiStepLR, SGD, Tensor

__all__ = ["QATConfig", "QATResult", "FixedAssignmentTrainer"]


@dataclass
class QATConfig:
    """Hyper-parameters shared by the fixed-assignment baselines."""

    epochs: int = 200
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_milestones: Tuple[int, ...] = (80, 140)
    lr_gamma: float = 0.1
    label_smoothing: float = 0.0
    evaluate_every_epoch: bool = True
    log_fn: Optional[callable] = None


@dataclass
class QATResult:
    """Outcome of a fixed-assignment QAT run."""

    bits_by_layer: Dict[str, int]
    best_test_accuracy: float
    final_test_accuracy: float
    compression: CompressionSummary
    history: List[EpochRecord] = field(default_factory=list)

    def accuracy_at_epoch(self, epoch: int) -> Optional[float]:
        for record in self.history:
            if record.epoch == epoch:
                return record.test_accuracy
        return None


class FixedAssignmentTrainer:
    """Train a quantizable model under a fixed per-layer bit assignment."""

    def __init__(
        self,
        model,
        train_loader,
        test_loader,
        bits_by_layer: Mapping[str, int],
        config: Optional[QATConfig] = None,
    ) -> None:
        self.model = model
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.config = config if config is not None else QATConfig()

        self.layers = dict(model.quantizable_layers())
        missing = set(self.layers) - set(bits_by_layer)
        if missing:
            raise ValueError(f"bit assignment missing layers: {sorted(missing)}")
        self.bits_by_layer = {name: int(bits_by_layer[name]) for name in self.layers}
        self._apply_assignment()

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

    def _apply_assignment(self) -> None:
        for name, layer in self.layers.items():
            bits = self.bits_by_layer[name]
            if layer.pinned:
                # Pinned layers may exceed their default width only for the
                # FP-32 baseline; force is intentional there.
                if bits != layer.bits:
                    layer.set_bits(bits, force=True)
            elif layer.bits != bits:
                layer.set_bits(bits)

    def _log(self, message: str) -> None:
        if self.config.log_fn is not None:
            self.config.log_fn(message)

    def train_one_epoch(self) -> Tuple[float, float]:
        self.model.train()
        losses: List[float] = []
        correct = 0
        total = 0
        for inputs, targets in self.train_loader:
            self.optimizer.zero_grad()
            logits = self.model(Tensor(inputs))
            loss = self.criterion(logits, targets)
            loss.backward()
            self.optimizer.step()
            losses.append(float(loss.item()))
            predictions = logits.data.argmax(axis=-1)
            # Nothing of this step is read again; do not carry it into the
            # next step's forward.
            del logits, loss
            correct += int((predictions == targets).sum())
            total += len(targets)
        return (float(np.mean(losses)) if losses else 0.0), (correct / total if total else 0.0)

    def train(self) -> QATResult:
        config = self.config
        history: List[EpochRecord] = []
        best_accuracy = 0.0
        final_accuracy = 0.0
        eval_engine = None
        for epoch in range(config.epochs):
            start = time.perf_counter()
            lr = self.lr_schedule.step(epoch)
            train_loss, train_acc = self.train_one_epoch()
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
                    bits_by_layer=dict(self.bits_by_layer),
                    reassigned=False,
                    seconds=time.perf_counter() - start,
                )
            )
            self._log(
                f"epoch {epoch}: loss={train_loss:.4f} train_acc={train_acc:.4f} "
                f"test_acc={test_acc if test_acc is not None else float('nan'):.4f}"
            )

        summary = compression_summary(self.model.layer_specs(), self.bits_by_layer)
        return QATResult(
            bits_by_layer=dict(self.bits_by_layer),
            best_test_accuracy=best_accuracy,
            final_test_accuracy=final_accuracy,
            compression=summary,
            history=history,
        )
