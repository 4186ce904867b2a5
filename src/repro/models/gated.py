"""Gated-attention and grouped-convolution building blocks, and a zoo model.

These are the DAG shapes beyond residual addition that the plan compiler
supports: :class:`GatedAttentionBlock` joins a value branch and a sigmoid
gate branch with an elementwise *multiplication* (the PixelCNN/highway-style
gating that attention blocks reduce to for convolutional backbones), and
:class:`GroupedConv2d` splits its input channels into groups, convolves each
group independently and re-joins the group outputs with a channel
*concatenation* — ``groups == in_channels`` gives a depthwise convolution.
:class:`GatedAttentionNet` assembles both into a registered quantizable
model with per-layer bit assignments, optionally with a second named output
head (``aux_head=True``) for exercising multi-output plans.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn.modules import BatchNorm2d, ChannelSlice, GlobalAvgPool2d, Module, ReLU, Sigmoid
from ..nn.tensor import Tensor
from ..quant.pact import PACT, bn_pact
from ..quant.qmodules import QConv2d, QLinear
from .base import QuantizableModel

__all__ = [
    "GroupedConv2d",
    "GatedAttentionBlock",
    "GatedAttentionNet",
    "gated_attention_net",
]


class GroupedConv2d(Module):
    """Grouped convolution: per-group channel slice -> conv -> channel concat.

    Each of the ``groups`` convolutions sees ``in_channels // groups`` input
    channels and produces ``out_channels // groups`` output channels; the
    group outputs concatenate along the channel axis, exactly the grouped
    convolution of ResNeXt/MobileNet lineage (``groups == in_channels`` is a
    depthwise convolution).  Built from :class:`ChannelSlice` + ``Tensor.cat``
    so the plan tracer sees every edge and compiles the whole thing — slices
    as zero-copy views, the join as a layout-aware gather.

    The per-group :class:`QConv2d` layers live in :attr:`convs`; the owning
    model registers them (typically tied to the first group, mirroring how
    downsample convolutions tie to their block).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        groups: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = False,
        bits: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if groups <= 0:
            raise ValueError(f"groups must be positive, got {groups}")
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels must divide evenly into groups "
                f"({in_channels}/{out_channels} into {groups})"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.groups = groups
        in_per, out_per = in_channels // groups, out_channels // groups
        self.slices: List[ChannelSlice] = [
            ChannelSlice(g * in_per, (g + 1) * in_per) for g in range(groups)
        ]
        self.convs: List[QConv2d] = [
            QConv2d(
                in_per, out_per, kernel_size, stride=stride, padding=padding,
                bias=bias, bits=bits, rng=rng,
            )
            for _ in range(groups)
        ]

    def forward(self, x: Tensor) -> Tensor:
        if self.groups == 1:
            return self.convs[0](x)
        return Tensor.cat(
            [conv(sl(x)) for sl, conv in zip(self.slices, self.convs)], axis=1
        )

    def __repr__(self) -> str:
        return (
            f"GroupedConv2d({self.in_channels}, {self.out_channels}, "
            f"groups={self.groups})"
        )


class GatedAttentionBlock(Module):
    """Convolutional gated attention: ``value * sigmoid(gate)``, then residual.

    A 3x3 value branch and a 1x1 gate branch are joined by an elementwise
    multiplication (the gate, squashed to (0, 1), attends over the value
    map), projected back by a 1x1 convolution and added to the block input —
    the compact convolutional form of an attention/transformer mixing block.
    The plan compiler serves the multiply as a :class:`_ResidualMulStep` and
    the residual as the usual add join.

    Quantized layers are created here and registered by the owning model.
    """

    def __init__(
        self,
        channels: int,
        default_bits: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.value = QConv2d(
            channels, channels, 3, padding=1, bias=False, bits=default_bits, rng=rng
        )
        self.value_bn = BatchNorm2d(channels)
        self.gate = QConv2d(
            channels, channels, 1, padding=0, bias=True, bits=default_bits, rng=rng
        )
        self.gate_act = Sigmoid()
        self.proj = QConv2d(
            channels, channels, 1, padding=0, bias=False, bits=default_bits, rng=rng
        )
        self.proj_bn = BatchNorm2d(channels)
        self.act_out = self.proj.attach_activation(PACT(bits=self.proj.bits))

    def forward(self, x: Tensor) -> Tensor:
        attended = self.value_bn(self.value(x)) * self.gate_act(self.gate(x))
        return bn_pact(self.proj_bn, self.act_out, self.proj(attended), x)


class GatedAttentionNet(QuantizableModel):
    """A small attention CNN: stem -> gated blocks -> grouped conv -> head(s).

    ``aux_head=True`` adds a second classifier over the pooled features and
    makes the model return ``{"logits": ..., "aux": ...}`` — the multi-output
    shape served through a plan's named result slots.
    """

    def __init__(
        self,
        num_classes: int = 10,
        input_channels: int = 3,
        base_channels: int = 16,
        num_blocks: int = 2,
        groups: int = 4,
        default_bits: int = 4,
        pinned_bits: int = 8,
        input_size: int = 32,
        seed: int = 0,
        aux_head: bool = False,
        width_multiplier: float = 1.0,
    ) -> None:
        super().__init__()
        if width_multiplier != 1.0:
            # Snap the scaled width up to a multiple of ``groups`` so the
            # grouped conv stays constructible at any multiplier.
            scaled = max(1, int(round(base_channels * width_multiplier)))
            base_channels = ((scaled + groups - 1) // groups) * groups
        if base_channels % groups:
            raise ValueError(
                f"base_channels ({base_channels}) must divide into groups ({groups})"
            )
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.input_size = input_size
        self.input_channels = input_channels
        self.aux_head = aux_head

        self.stem = QConv2d(
            input_channels, base_channels, 3, padding=1, bias=False,
            bits=pinned_bits, pinned=True, rng=rng,
        )
        self.register_qlayer("stem", self.stem, pinned=True, pinned_bits=pinned_bits)
        self.stem_bn = BatchNorm2d(base_channels)
        self.stem_act = self.stem.attach_activation(PACT(bits=self.stem.bits))

        self.blocks: List[GatedAttentionBlock] = []
        for index in range(num_blocks):
            block = GatedAttentionBlock(base_channels, default_bits, rng)
            lead = f"block{index}.value"
            self.register_qlayer(lead, block.value)
            self.register_qlayer(f"block{index}.gate", block.gate, tie_to=lead, main=False)
            self.register_qlayer(f"block{index}.proj", block.proj, tie_to=lead, main=False)
            self.blocks.append(block)

        self.grouped = GroupedConv2d(
            base_channels, base_channels * 2, groups, bits=default_bits, rng=rng
        )
        lead = "grouped.conv0"
        for index, conv in enumerate(self.grouped.convs):
            self.register_qlayer(
                f"grouped.conv{index}", conv,
                tie_to=None if index == 0 else lead, main=index == 0,
            )
        self.grouped_bn = BatchNorm2d(base_channels * 2)
        self.grouped_act = ReLU()

        self.pool = GlobalAvgPool2d()
        self.classifier = QLinear(
            base_channels * 2, num_classes, bits=pinned_bits, pinned=True, rng=rng
        )
        self.register_qlayer(
            "classifier", self.classifier, pinned=True, pinned_bits=pinned_bits
        )
        self.aux: Optional[QLinear] = None
        if aux_head:
            self.aux = QLinear(base_channels * 2, num_classes, bits=default_bits, rng=rng)
            self.register_qlayer("aux", self.aux)

    def forward(self, x: Tensor):
        x = bn_pact(self.stem_bn, self.stem_act, self.stem(x))
        for block in self.blocks:
            x = block(x)
        x = self.grouped_act(self.grouped_bn(self.grouped(x)))
        x = self.pool(x)
        logits = self.classifier(x)
        if self.aux is None:
            return logits
        return {"logits": logits, "aux": self.aux(x)}


def gated_attention_net(**kwargs) -> GatedAttentionNet:
    """Factory for :class:`GatedAttentionNet` (registry name ``gated_attention_net``)."""
    return GatedAttentionNet(**kwargs)
