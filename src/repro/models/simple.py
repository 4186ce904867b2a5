"""Small quantizable CNN used by the quickstart example and the test suite.

The paper's contribution does not depend on model scale, so the unit and
integration tests exercise the full BMPQ machinery on this compact network,
which keeps CPU runtimes in the milliseconds while retaining the structural
properties the method relies on (pinned first/last layers, PACT activations,
multiple free layers of different sizes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.modules import BatchNorm2d, GlobalAvgPool2d, MaxPool2d, ReLU
from ..nn.tensor import Tensor
from ..quant.pact import PACT, bn_pact
from ..quant.qmodules import QConv2d, QLinear
from .base import QuantizableModel

__all__ = ["SimpleQuantCNN", "simple_cnn"]


class SimpleQuantCNN(QuantizableModel):
    """A 5-weight-layer quantizable CNN (conv-conv-conv-fc-fc).

    Layer roles mirror the paper's conventions: the first convolution and the
    classifier are pinned to 16 bits, the three middle layers are free and use
    PACT activations tied to their weight bit width.
    """

    def __init__(
        self,
        num_classes: int = 10,
        input_channels: int = 3,
        input_size: int = 16,
        channels: int = 8,
        default_bits: int = 4,
        pinned_bits: int = 16,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.input_size = input_size

        self.conv0 = QConv2d(
            input_channels, channels, 3, padding=1, bias=False,
            bits=pinned_bits, pinned=True, rng=rng,
        )
        self.conv0.input_hw = (input_size, input_size)
        self.register_qlayer("conv0", self.conv0, pinned=True, pinned_bits=pinned_bits)
        self.bn0 = BatchNorm2d(channels)
        self.act0 = ReLU()
        self.pool0 = MaxPool2d(2)

        self.conv1 = QConv2d(channels, channels * 2, 3, padding=1, bias=False, bits=default_bits, rng=rng)
        self.conv1.input_hw = (input_size // 2, input_size // 2)
        self.register_qlayer("conv1", self.conv1)
        self.bn1 = BatchNorm2d(channels * 2)
        self.act1 = self.conv1.attach_activation(PACT(bits=self.conv1.bits))
        self.pool1 = MaxPool2d(2)

        self.conv2 = QConv2d(channels * 2, channels * 4, 3, padding=1, bias=False, bits=default_bits, rng=rng)
        self.conv2.input_hw = (input_size // 4, input_size // 4)
        self.register_qlayer("conv2", self.conv2)
        self.bn2 = BatchNorm2d(channels * 4)
        self.act2 = self.conv2.attach_activation(PACT(bits=self.conv2.bits))

        self.pool = GlobalAvgPool2d()
        self.fc1 = QLinear(channels * 4, channels * 4, bits=default_bits, rng=rng)
        self.register_qlayer("fc1", self.fc1)
        self.fc1_act = ReLU()
        self.classifier = QLinear(channels * 4, num_classes, bits=pinned_bits, pinned=True, rng=rng)
        self.register_qlayer("classifier", self.classifier, pinned=True, pinned_bits=pinned_bits)

    def forward(self, x: Tensor) -> Tensor:
        x = self.pool0(self.act0(self.bn0(self.conv0(x))))
        x = self.pool1(bn_pact(self.bn1, self.act1, self.conv1(x)))
        x = bn_pact(self.bn2, self.act2, self.conv2(x))
        x = self.pool(x)
        x = self.fc1_act(self.fc1(x))
        return self.classifier(x)


def simple_cnn(**kwargs) -> SimpleQuantCNN:
    """Factory matching the signature style of the VGG/ResNet builders."""
    return SimpleQuantCNN(**kwargs)
