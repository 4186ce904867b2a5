"""Quantizable ResNet models (He et al., 2016) in the CIFAR configuration.

ResNet18 has 18 *main* weight layers — the 3×3 stem convolution, sixteen
3×3 convolutions in eight basic blocks, and the final classifier — matching
the 18-entry bit-width vectors of Table I.  The 1×1 downsampling convolutions
of the stride-2 blocks are additional quantized layers whose bit width is
*tied* to the first convolution of their block, following the paper's rule
that "downsampling layers have the same bit-width assignment as its input
layer"; they contribute to the memory budget but do not appear as separate
entries in the printed bit vector.

The first (stem) and last (classifier) layers are pinned to 16 bits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.modules import BatchNorm2d, GlobalAvgPool2d, Module, ReLU
from ..nn.tensor import Tensor
from ..quant.pact import PACT, bn_pact
from ..quant.qmodules import QConv2d, QLinear
from .base import QuantizableModel

__all__ = ["BasicBlock", "ResNet", "resnet18", "resnet20", "resnet34"]


class BasicBlock(Module):
    """Two 3×3 convolutions with a residual connection.

    The block's quantized layers are created here but registered with the
    owning :class:`ResNet`, which controls naming, pinning and bit-width ties.
    """

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        default_bits: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.conv1 = QConv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False,
            bits=default_bits, rng=rng,
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.act1 = self.conv1.attach_activation(PACT(bits=self.conv1.bits))
        self.conv2 = QConv2d(
            out_channels, out_channels, 3, stride=1, padding=1, bias=False,
            bits=default_bits, rng=rng,
        )
        self.bn2 = BatchNorm2d(out_channels)
        self.act_out = self.conv2.attach_activation(PACT(bits=self.conv2.bits))

        self.downsample: Optional[QConv2d] = None
        self.downsample_bn: Optional[BatchNorm2d] = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = QConv2d(
                in_channels, out_channels, 1, stride=stride, padding=0, bias=False,
                bits=default_bits, rng=rng,
            )
            self.downsample_bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        out = bn_pact(self.bn1, self.act1, self.conv1(x))
        out = self.conv2(out)
        if self.downsample is None:
            return bn_pact(self.bn2, self.act_out, out, x)
        # The shortcut is built after bn2, in module order.
        return bn_pact(
            self.bn2, self.act_out, out, lambda: self.downsample_bn(self.downsample(x))
        )


class ResNet(QuantizableModel):
    """Quantizable ResNet with basic blocks and PACT activations.

    Parameters
    ----------
    blocks_per_stage:
        Number of basic blocks in each of the four stages, e.g. (2, 2, 2, 2)
        for ResNet18.
    base_channels:
        Channel count of the first stage (64 in the paper, scaled by
        ``width_multiplier``).
    """

    def __init__(
        self,
        blocks_per_stage: Sequence[int] = (2, 2, 2, 2),
        num_classes: int = 10,
        input_channels: int = 3,
        base_channels: int = 64,
        width_multiplier: float = 1.0,
        default_bits: int = 4,
        pinned_bits: int = 16,
        input_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if width_multiplier <= 0:
            raise ValueError(f"width_multiplier must be positive, got {width_multiplier}")
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.input_size = input_size
        # Static probe-shape hint: lets InferenceEngine.warmup() trace the
        # residual graph eagerly, before the first request reveals the shape.
        self.input_channels = input_channels

        def scaled(channels: int) -> int:
            return max(1, int(round(channels * width_multiplier)))

        stem_channels = scaled(base_channels)
        self.stem = QConv2d(
            input_channels, stem_channels, 3, stride=1, padding=1, bias=False,
            bits=pinned_bits, pinned=True, rng=rng,
        )
        self.stem.input_hw = (input_size, input_size)
        self.register_qlayer("stem", self.stem, pinned=True, pinned_bits=pinned_bits)
        self.stem_bn = BatchNorm2d(stem_channels)
        self.stem_act = ReLU()

        self.stages: List[BasicBlock] = []
        in_channels = stem_channels
        conv_counter = 0
        spatial = input_size
        for stage_index, num_blocks in enumerate(blocks_per_stage):
            out_channels = scaled(base_channels * (2 ** stage_index))
            for block_index in range(num_blocks):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                block = BasicBlock(in_channels, out_channels, stride, default_bits, rng)
                block.conv1.input_hw = (spatial, spatial)
                # conv1's own geometry is the single source of truth for the
                # block's output spatial size.
                block_out_spatial = block.conv1.output_hw()[0]
                block.conv2.input_hw = (block_out_spatial, block_out_spatial)
                if block.downsample is not None:
                    block.downsample.input_hw = (spatial, spatial)
                spatial = block_out_spatial
                prefix = f"layer{stage_index + 1}.{block_index}"
                conv1_name = f"{prefix}.conv1"
                self.register_qlayer(conv1_name, block.conv1)
                self.register_qlayer(f"{prefix}.conv2", block.conv2)
                if block.downsample is not None:
                    # Tied to the block's first convolution: same bit width,
                    # counted in the budget, absent from the printed vector.
                    self.register_qlayer(
                        f"{prefix}.downsample",
                        block.downsample,
                        tie_to=conv1_name,
                        main=False,
                    )
                self.stages.append(block)
                in_channels = out_channels
                conv_counter += 2

        self.pool = GlobalAvgPool2d()
        self.classifier = QLinear(in_channels, num_classes, bits=pinned_bits, pinned=True, rng=rng)
        self.register_qlayer("classifier", self.classifier, pinned=True, pinned_bits=pinned_bits)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem_act(self.stem_bn(self.stem(x)))
        for block in self.stages:
            x = block(x)
        x = self.pool(x)
        return self.classifier(x)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(layers={self.num_quantizable_layers()}, "
            f"classes={self.num_classes}, params={self.num_parameters()})"
        )


def resnet18(**kwargs) -> ResNet:
    """ResNet18 — the architecture evaluated in the paper (18 main layers)."""
    return ResNet(blocks_per_stage=(2, 2, 2, 2), **kwargs)


def resnet20(**kwargs) -> ResNet:
    """CIFAR ResNet20-style model (three stages of three blocks)."""
    kwargs.setdefault("base_channels", 16)
    return ResNet(blocks_per_stage=(3, 3, 3), **kwargs)


def resnet34(**kwargs) -> ResNet:
    """ResNet34 variant for scaling studies."""
    return ResNet(blocks_per_stage=(3, 4, 6, 3), **kwargs)
