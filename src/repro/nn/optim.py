"""Optimizer and learning-rate schedule for the NumPy DNN substrate.

The BMPQ paper trains with SGD + momentum and a multi-step learning-rate decay
(0.1 at epochs 80/140 for CIFAR, 40/70 for Tiny-ImageNet); this module
provides exactly those two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["SGD", "MultiStepLR"]


class SGD:
    """Stochastic gradient descent with momentum, weight decay and Nesterov.

    Matches the update rule used by PyTorch, which is what the paper's
    training recipe (lr=0.1, momentum=0.9, weight decay 5e-4) assumes.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        self.params: List[Tensor] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if momentum < 0.0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.lr = float(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = grad.copy()
                else:
                    self._velocity[index] = self.momentum * self._velocity[index] + grad
                if self.nesterov:
                    grad = grad + self.momentum * self._velocity[index]
                else:
                    grad = self._velocity[index]
            param.data = param.data - self.lr * grad
            param.bump_version()

    def state_dict(self) -> Dict[str, object]:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "velocity": [None if v is None else v.copy() for v in self._velocity],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        velocity = state.get("velocity")
        if velocity is not None:
            self._velocity = [None if v is None else np.asarray(v).copy() for v in velocity]


class MultiStepLR:
    """Decay the learning rate by ``gamma`` at each milestone epoch.

    This is the schedule used in the paper: milestones (80, 140) for CIFAR and
    (40, 70) for Tiny-ImageNet with ``gamma = 0.1``.
    """

    def __init__(self, optimizer: SGD, milestones: Sequence[int], gamma: float = 0.1) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = -1
        self.milestones = sorted(int(m) for m in milestones)
        self.gamma = gamma

    def get_lr(self, epoch: int) -> float:
        passed = sum(1 for milestone in self.milestones if epoch >= milestone)
        return self.base_lr * self.gamma ** passed

    def step(self, epoch: Optional[int] = None) -> float:
        """Advance to ``epoch`` (or the next epoch) and update the optimizer."""
        self.last_epoch = self.last_epoch + 1 if epoch is None else epoch
        lr = self.get_lr(self.last_epoch)
        self.optimizer.lr = lr
        return lr
