"""Loss functions and classification metrics.

A thin class wrapper around :func:`repro.nn.functional.cross_entropy` so
training code can hold a configured criterion object, plus the top-1 accuracy
reported in the paper's tables.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor

__all__ = ["CrossEntropyLoss", "accuracy"]


class CrossEntropyLoss:
    """Cross-entropy over logits with optional label smoothing."""

    def __init__(self, label_smoothing: float = 0.0, reduction: str = "mean") -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.label_smoothing = label_smoothing
        self.reduction = reduction

    def __call__(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(
            logits,
            targets,
            label_smoothing=self.label_smoothing,
            reduction=self.reduction,
        )


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    predictions = logits.data.argmax(axis=-1)
    targets = np.asarray(targets)
    return float((predictions == targets).mean())
