"""Quantizable VGG models (Simonyan & Zisserman, 2014).

The paper evaluates VGG16, whose 16 weight layers (13 convolutions + 3 fully
connected layers) match the 16-entry bit-width vectors of Table I.  The first
convolution and the final classifier are pinned to 16 bits; every other layer
uses PACT activations tied to its weight bit width.

``width_multiplier`` and ``input_size`` scale the architecture so the CPU-only
benchmarks can run reduced-width instances; the default configuration is the
full-width CIFAR variant used by the paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.modules import BatchNorm2d, Dropout, MaxPool2d, Module, ReLU
from ..nn.tensor import Tensor
from ..quant.pact import PACT, bn_pact
from ..quant.qmodules import QConv2d, QLinear
from .base import QuantizableModel

__all__ = ["VGG", "vgg11", "vgg13", "vgg16", "vgg19", "VGG_PLANS"]

# Convolution plans: integers are output channel counts, "M" is a 2x2 max pool.
VGG_PLANS = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"],
    "vgg19": [
        64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
        512, 512, 512, 512, "M", 512, 512, 512, 512, "M",
    ],
}


class VGG(QuantizableModel):
    """Quantizable VGG with batch norm and PACT activations.

    Parameters
    ----------
    plan:
        Convolution plan (see :data:`VGG_PLANS`).
    num_classes:
        Output classes (10 / 100 / 200 in the paper's datasets).
    input_size:
        Spatial input resolution (32 for CIFAR, 64 for Tiny-ImageNet).
    width_multiplier:
        Scales every channel count; 1.0 reproduces the paper's architecture,
        smaller values produce CPU-friendly instances with the same depth.
    default_bits:
        Initial bit width of the free layers (max(Sq) during warm-up).
    classifier_hidden:
        Width of the two hidden fully connected layers (512 in CIFAR VGG).
    """

    def __init__(
        self,
        plan: Sequence,
        num_classes: int = 10,
        input_channels: int = 3,
        input_size: int = 32,
        width_multiplier: float = 1.0,
        default_bits: int = 4,
        pinned_bits: int = 16,
        classifier_hidden: int = 512,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if width_multiplier <= 0:
            raise ValueError(f"width_multiplier must be positive, got {width_multiplier}")
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.input_size = input_size

        def scaled(channels: int) -> int:
            return max(1, int(round(channels * width_multiplier)))

        self.blocks: List[Module] = []
        conv_index = 0
        in_channels = input_channels
        spatial = input_size
        for entry in plan:
            if entry == "M":
                # Skip the pool when the feature map can no longer be halved
                # (small benchmark inputs); the layer structure is unchanged.
                if spatial >= 2:
                    self.blocks.append(MaxPool2d(2, 2))
                    spatial //= 2
                continue
            out_channels = scaled(int(entry))
            pinned = conv_index == 0
            conv = QConv2d(
                in_channels,
                out_channels,
                kernel_size=3,
                stride=1,
                padding=1,
                bias=False,
                bits=pinned_bits if pinned else default_bits,
                pinned=pinned,
                rng=rng,
            )
            conv.input_hw = (spatial, spatial)
            name = f"conv{conv_index}"
            self.register_qlayer(name, conv, pinned=pinned, pinned_bits=pinned_bits)
            bn = BatchNorm2d(out_channels)
            act: Module
            if pinned:
                act = ReLU()
            else:
                act = conv.attach_activation(PACT(bits=conv.bits))
            self.blocks.append(conv)
            self.blocks.append(bn)
            self.blocks.append(act)
            in_channels = out_channels
            conv_index += 1

        self.feature_channels = in_channels
        self.feature_spatial = max(spatial, 1)
        flat_features = self.feature_channels * self.feature_spatial * self.feature_spatial

        hidden = max(1, int(round(classifier_hidden * width_multiplier)))
        self.dropout1 = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.fc1 = QLinear(flat_features, hidden, bits=default_bits, rng=rng)
        self.register_qlayer("fc1", self.fc1)
        self.fc1_act = self.fc1.attach_activation(PACT(bits=self.fc1.bits))
        self.fc2 = QLinear(hidden, hidden, bits=default_bits, rng=rng)
        self.register_qlayer("fc2", self.fc2)
        # The paper uses ReLU (not PACT) for the layer feeding the classifier.
        self.fc2_act = ReLU()
        self.dropout2 = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.classifier = QLinear(hidden, num_classes, bits=pinned_bits, pinned=True, rng=rng)
        self.register_qlayer("classifier", self.classifier, pinned=True, pinned_bits=pinned_bits)

    def forward(self, x: Tensor) -> Tensor:
        blocks = self.blocks
        index = 0
        while index < len(blocks):
            block = blocks[index]
            if isinstance(block, BatchNorm2d) and isinstance(blocks[index + 1], PACT):
                x = bn_pact(block, blocks[index + 1], x)
                index += 2
            else:
                x = block(x)
                index += 1
        x = x.flatten(1)
        if self.dropout1 is not None:
            x = self.dropout1(x)
        x = self.fc1_act(self.fc1(x))
        x = self.fc2_act(self.fc2(x))
        if self.dropout2 is not None:
            x = self.dropout2(x)
        return self.classifier(x)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(layers={self.num_quantizable_layers()}, "
            f"classes={self.num_classes}, params={self.num_parameters()})"
        )


def _build(plan_name: str, **kwargs) -> VGG:
    return VGG(VGG_PLANS[plan_name], **kwargs)


def vgg11(**kwargs) -> VGG:
    """VGG11 variant (used in scaling tests)."""
    return _build("vgg11", **kwargs)


def vgg13(**kwargs) -> VGG:
    """VGG13 variant."""
    return _build("vgg13", **kwargs)


def vgg16(**kwargs) -> VGG:
    """VGG16 — the architecture evaluated in the paper (16 weight layers)."""
    return _build("vgg16", **kwargs)


def vgg19(**kwargs) -> VGG:
    """VGG19 variant (used by the AD baseline's original paper)."""
    return _build("vgg19", **kwargs)
