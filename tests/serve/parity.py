"""Randomized serving-parity harness: the mechanical proof of plan parity.

This module is the importable core of ``test_plan_parity.py`` and is meant
to be reused by any suite (or future backend) that needs to certify the
serving read path:

* :func:`random_quantized_model` — a seeded generator of small quantizable
  CNNs mixing plain conv/BN/PACT/pool segments with ResNet-style
  :class:`~repro.models.resnet.BasicBlock` residual joins (identity and
  downsample shortcuts), gated-attention segments (sigmoid gate joined by
  an elementwise multiply), grouped/depthwise convolutions (channel slices
  re-joined by ``Tensor.cat``), random per-layer bit assignments, optional
  bias convs, dropout glue, both flatten-vs-global-pool heads and an
  occasional second named output head.  Every shape the generator can emit
  **compiles**; the module path exists only as the parity oracle.
* :func:`assert_serving_parity` — the parity contract for one model:

  - the **reference plan** (``optimize=False``) must be **bitwise
    identical** to the module path (float mode) and to
    :class:`~repro.quant.IntegerInferenceSession` (integer mode).  The
    reference plan replays the exact functional ops of those paths through
    the compiled DAG, so any bit of difference is a graph-compilation bug
    (mis-ordered join, wrong shortcut, dropped save);
  - the **fused plan** (the serving default) must agree to tolerance, with
    the documented allowance for rare one-step PACT staircase flips caused
    by float re-association in the fused kernels;
  - the **engine** must compile and serve the fused plan's exact numbers.

  Multi-output models are checked slot by slot: the plan's named result
  dict must carry exactly the module's keys and every slot obeys the same
  bitwise/tolerance contract.

* :class:`UntraceableNet` / :class:`MendableNet` — models for the refusal
  boundary: glue the compiler genuinely cannot serve (a *division* join —
  additions, elementwise multiplies and channel concats all compile), and
  repairable variants that compile, once mended, into each supported join
  kind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import use_backend
from repro.models.base import QuantizableModel
from repro.models.gated import GatedAttentionBlock, GroupedConv2d
from repro.models.resnet import BasicBlock
from repro.nn import Tensor
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
)
from repro.nn.tensor import no_grad
from repro.quant import IntegerInferenceSession
from repro.quant.pact import PACT
from repro.quant.qmodules import QConv2d, QLinear
from repro.serve import InferenceEngine, InferencePlan

__all__ = [
    "random_quantized_model",
    "assert_serving_parity",
    "UntraceableNet",
    "MendableNet",
]

_BIT_CHOICES = (2, 3, 4, 8)


class _RandomNet(QuantizableModel):
    """A generated quantizable CNN; structure fully determined by ``seed``."""

    def __init__(self, seed: int, image_size: int = 8, num_classes: int = 4) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.input_size = image_size
        self.input_channels = 3
        self.num_classes = num_classes
        self.features: List = []
        self.head: List = []

        channels = int(rng.integers(4, 9))
        spatial = image_size
        index = 0

        # Stem: lift the input channels (pinned, like the paper's first layer).
        stem = QConv2d(3, channels, 3, padding=1, bias=False, bits=8, pinned=True, rng=rng)
        self.register_qlayer(f"conv{index}", stem, pinned=True, pinned_bits=8)
        self.features.append(stem)
        self.features.append(BatchNorm2d(channels))
        self.features.append(stem.attach_activation(PACT(bits=stem.bits)))
        index += 1

        for _ in range(int(rng.integers(1, 4))):
            segment = rng.random()
            if segment < 0.30:
                # Residual segment: identity shortcut, or a downsample
                # projection when the stage strides/widens.
                if rng.random() < 0.5 and spatial >= 4:
                    stride, out_channels = 2, int(rng.integers(4, 9))
                else:
                    stride, out_channels = 1, channels
                block = BasicBlock(channels, out_channels, stride, 4, rng)
                conv1_name = f"conv{index}"
                self.register_qlayer(conv1_name, block.conv1)
                self.register_qlayer(f"conv{index + 1}", block.conv2)
                if block.downsample is not None:
                    self.register_qlayer(
                        f"conv{index}.down", block.downsample, tie_to=conv1_name, main=False
                    )
                index += 2
                self.features.append(block)
                channels = out_channels
                spatial = (spatial + 1) // 2 if stride == 2 else spatial
            elif segment < 0.50:
                # Gated-attention segment: value * sigmoid(gate), projected
                # and residually added — a multiplicative join plus an add.
                block = GatedAttentionBlock(channels, 4, rng)
                lead = f"conv{index}"
                self.register_qlayer(lead, block.value)
                self.register_qlayer(f"{lead}.gate", block.gate, tie_to=lead, main=False)
                self.register_qlayer(f"{lead}.proj", block.proj, tie_to=lead, main=False)
                index += 1
                self.features.append(block)
            elif segment < 0.70:
                # Grouped (sometimes depthwise) convolution: channel slices
                # convolved independently, re-joined by a channel concat.
                divisors = [g for g in (2, 4, channels) if channels % g == 0 and g <= channels]
                groups = int(rng.choice(divisors)) if divisors else 1
                out_channels = groups * int(rng.integers(1, 3))
                grouped = GroupedConv2d(
                    channels, out_channels, groups, bits=4, rng=rng,
                )
                lead = f"conv{index}"
                for g, conv in enumerate(grouped.convs):
                    self.register_qlayer(
                        f"{lead}.g{g}" if g else lead, conv,
                        tie_to=None if g == 0 else lead, main=g == 0,
                    )
                index += 1
                self.features.append(grouped)
                channels = out_channels
                if rng.random() < 0.7:
                    self.features.append(BatchNorm2d(channels))
                self.features.append(ReLU())
            else:
                # Plain segment: conv [+BN] [+act] [+pool] [+dropout glue].
                kernel, padding = (3, 1) if rng.random() < 0.7 else (1, 0)
                out_channels = int(rng.integers(4, 9))
                conv = QConv2d(
                    channels, out_channels, kernel, padding=padding,
                    bias=bool(rng.random() < 0.3), bits=4, rng=rng,
                )
                self.register_qlayer(f"conv{index}", conv)
                index += 1
                self.features.append(conv)
                channels = out_channels
                if rng.random() < 0.7:
                    self.features.append(BatchNorm2d(channels))
                act_choice = rng.random()
                if act_choice < 0.5:
                    self.features.append(conv.attach_activation(PACT(bits=conv.bits)))
                elif act_choice < 0.8:
                    self.features.append(ReLU())
                if spatial >= 4 and rng.random() < 0.4:
                    pool = MaxPool2d(2) if rng.random() < 0.5 else AvgPool2d(2)
                    self.features.append(pool)
                    spatial //= 2
                if rng.random() < 0.2:
                    self.features.append(Dropout(0.3, rng=rng))

        # Head: flatten glue (``x.flatten(1)``) or global average pooling.
        self.use_flatten = bool(rng.random() < 0.5)
        in_features = channels * spatial * spatial if self.use_flatten else channels
        pooled_width = in_features
        if rng.random() < 0.4:
            hidden = int(rng.integers(6, 13))
            fc = QLinear(in_features, hidden, bits=4, rng=rng)
            self.register_qlayer(f"fc{index}", fc)
            self.head.append(fc)
            self.head.append(ReLU())
            in_features = hidden
            index += 1
        classifier = QLinear(in_features, num_classes, bits=8, pinned=True, rng=rng)
        self.register_qlayer("classifier", classifier, pinned=True, pinned_bits=8)
        self.head.append(classifier)
        self.pool_head = None if self.use_flatten else GlobalAvgPool2d()

        # Occasionally grow a second named head: the plan must then serve a
        # {"logits", "aux"} result dict through named output slots.
        self.aux: Optional[QLinear] = None
        if rng.random() < 0.25:
            self.aux = QLinear(pooled_width, num_classes, bits=4, rng=rng)
            self.register_qlayer("aux", self.aux)

        # Random bit assignment over the free layers (ties follow set_bits).
        for layer in self.quantizable_layers().values():
            if not layer.pinned:
                layer.set_bits(int(rng.choice(_BIT_CHOICES)))

    @property
    def multi_output(self) -> bool:
        return self.aux is not None

    def forward(self, x: Tensor):
        for layer in self.features:
            x = layer(x)
        x = x.flatten(1) if self.use_flatten else self.pool_head(x)
        pooled = x
        for layer in self.head:
            x = layer(x)
        if self.aux is None:
            return x
        return {"logits": x, "aux": self.aux(pooled)}


def random_quantized_model(
    seed: int, image_size: int = 8, num_classes: int = 4, warm_batches: int = 2
) -> Tuple[QuantizableModel, Tuple[int, int, int]]:
    """Build a seeded random model with warmed BatchNorm statistics.

    Returns ``(model, input_shape)`` with the model left in eval mode; the
    same seed always produces the identical architecture, weights, bit
    assignment and BN statistics.
    """
    model = _RandomNet(seed, image_size=image_size, num_classes=num_classes)
    rng = np.random.default_rng(seed + 10_000)
    shape = (3, image_size, image_size)
    model.train()
    for _ in range(warm_batches):
        model(Tensor(rng.standard_normal((8, *shape)).astype(np.float32)))
    model.eval()
    return model, shape


Arrays = Union[np.ndarray, Dict[str, np.ndarray]]


def _named(value) -> Dict[str, np.ndarray]:
    """Normalize a module/plan/session output into a ``{slot: array}`` dict.

    Single anonymous outputs get the slot name ``""`` so every comparison
    below is a dict comparison with identical keys on both sides.
    """
    if isinstance(value, dict):
        return {
            str(key): (part.data if isinstance(part, Tensor) else np.asarray(part))
            for key, part in value.items()
        }
    if isinstance(value, Tensor):
        return {"": value.data}
    return {"": np.asarray(value)}


def _paired(got: Arrays, want: Arrays, label: str):
    """Match outputs slot by slot; a keyset mismatch is itself a failure."""
    got_named, want_named = _named(got), _named(want)
    assert set(got_named) == set(want_named), (
        f"{label}: output slots {sorted(got_named)} != expected {sorted(want_named)}"
    )
    return [
        (f"{label}[{name}]" if name else label, got_named[name], want_named[name])
        for name in sorted(want_named)
    ]


def _assert_bitwise(got: Arrays, want: Arrays, label: str) -> None:
    for slot, got_part, want_part in _paired(got, want, label):
        assert np.array_equal(got_part, want_part), (
            f"{slot} is not bitwise-identical "
            f"(max diff {np.abs(got_part - want_part).max():.3e})"
        )


def _assert_fused_close(got: Arrays, want: Arrays, label: str) -> None:
    """Fused-plan tolerance: allow rare one-step PACT staircase flips.

    A flip at a rounding boundary shifts every downstream logit of that one
    sample, so the criterion is per-batch: the overwhelming majority of
    logits must agree to tolerance.  Structural mis-compiles corrupt every
    sample of every batch and fail this by a mile (and are *also* caught
    bitwise by the reference-plan check, which is the real gate).
    """
    for slot, got_part, want_part in _paired(got, want, label):
        within = np.abs(got_part - want_part) <= 1e-3 + 1e-3 * np.abs(want_part)
        assert within.mean() >= 0.9, (
            f"{slot}: only {within.mean():.3f} of logits within tolerance "
            f"(max diff {np.abs(got_part - want_part).max():.3e})"
        )


def _assert_equal(got: Arrays, want: Arrays, label: str) -> None:
    for slot, got_part, want_part in _paired(got, want, label):
        np.testing.assert_array_equal(got_part, want_part, err_msg=slot)


def assert_serving_parity(
    model,
    input_shape: Sequence[int],
    batch: int = 3,
    backends: Sequence[str] = ("fast",),
    check_integer: bool = True,
    seed: int = 0,
) -> None:
    """Assert the full serving-parity contract for one model.

    Per backend: the reference plans are bitwise-identical to the module
    path (float) and the integer session (integer); the fused plans agree to
    tolerance; the engine compiles and serves the fused plan's
    exact numbers.  Multi-output models are compared slot by slot.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, *input_shape)).astype(np.float32)
    model.eval()
    for backend in backends:
        with use_backend(backend):
            with no_grad():
                want = model(Tensor(x))

            reference = InferencePlan.trace(model, input_shape, optimize=False)
            _assert_bitwise(
                reference.run(x), want, f"float reference plan [{backend}]"
            )

            fused = InferencePlan.trace(model, input_shape)
            fused_logits = fused.run(x)
            _assert_fused_close(fused_logits, want, f"fused float plan [{backend}]")

            engine_logits = InferenceEngine(model).predict_logits(x)
            _assert_equal(engine_logits, fused_logits, f"engine [{backend}]")

            if check_integer:
                want_int = IntegerInferenceSession(model).run(x)
                int_reference = InferencePlan.trace(
                    model, input_shape, mode="integer", optimize=False
                )
                _assert_bitwise(
                    int_reference.run(x), want_int,
                    f"integer reference plan [{backend}]",
                )
                int_fused = InferencePlan.trace(model, input_shape, mode="integer")
                _assert_fused_close(
                    int_fused.run(x), want_int, f"fused integer plan [{backend}]"
                )


# --------------------------------------------------------------------------- #
# the refusal boundary
# --------------------------------------------------------------------------- #
class UntraceableNet(QuantizableModel):
    """Two conv branches joined by a *division* — genuinely uncompilable.

    The tracer records additions, elementwise multiplies and channel concats;
    a quotient's output tensor is unknown to the value table, so the
    following leaf raises :class:`~repro.serve.PlanTraceError`, naming the
    division, and the engine refuses the model.  (This model used a
    multiplicative join before ``*`` learned to compile.)
    """

    def __init__(self, channels: int = 4, image_size: int = 8, num_classes: int = 3) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.input_size = image_size
        self.input_channels = 3
        self.branch_a = QConv2d(3, channels, 3, padding=1, bias=False, bits=4, rng=rng)
        self.branch_b = QConv2d(3, channels, 3, padding=1, bias=False, bits=4, rng=rng)
        self.register_qlayer("branch_a", self.branch_a)
        self.register_qlayer("branch_b", self.branch_b)
        self.pool = GlobalAvgPool2d()
        self.classifier = QLinear(channels, num_classes, bits=8, pinned=True, rng=rng)
        self.register_qlayer("classifier", self.classifier, pinned=True, pinned_bits=8)

    def forward(self, x: Tensor) -> Tensor:
        ratio = self.branch_a(x) / self.branch_b(x)  # division join
        return self.classifier(self.pool(ratio))


class FlattenAfterDivisionNet(QuantizableModel):
    """``fc((conv(x) / 2.0).flatten(1))``: a division between a traced value
    and the flatten the compiler infers.

    The flattened tensor is unknown to the value table, and the only glue the
    compiler infers is a flatten of the last traced value; skipping the
    division would compile a plan that disagrees with the model, so the
    trace must be refused, naming the division.
    """

    def __init__(self, channels: int = 4, image_size: int = 4, num_classes: int = 3) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.input_size = image_size
        self.input_channels = 3
        self.conv = QConv2d(3, channels, 3, padding=1, bias=False, bits=4, rng=rng)
        self.register_qlayer("conv", self.conv)
        self.classifier = QLinear(
            channels * image_size * image_size, num_classes, bits=8, pinned=True, rng=rng
        )
        self.register_qlayer("classifier", self.classifier, pinned=True, pinned_bits=8)

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier((self.conv(x) / 2.0).flatten(1))


class FlattenAfterScaleNet(FlattenAfterDivisionNet):
    """``fc((conv(x) * 0.5).flatten(1))``: scalar-multiply glue before the
    inferred flatten."""

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier((self.conv(x) * 0.5).flatten(1))


class FlattenAfterShiftNet(FlattenAfterDivisionNet):
    """``fc((conv(x) + 0.5).flatten(1))``: scalar-add glue before the
    inferred flatten."""

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier((self.conv(x) + 0.5).flatten(1))


class MendableNet(UntraceableNet):
    """Starts with the division join; flip ``mended`` to use a supported one.

    Models a model whose glue was rewritten into compilable form after the
    engine first refused it: the engine caches no refusal, so the next
    predict must compile.  ``mend_to`` picks which supported join the repair
    lands on (``"add"``, ``"mul"`` or ``"cat"``), so every join kind the
    compiler serves is exercised.
    """

    def __init__(self, mend_to: str = "add", **kwargs) -> None:
        if mend_to not in ("add", "mul", "cat"):
            raise ValueError(f"mend_to must be add/mul/cat, got {mend_to!r}")
        super().__init__(**kwargs)
        self.mend_to = mend_to
        self.mended = False
        if mend_to == "cat":
            # The concat repair doubles the channel count into the head.
            rng = np.random.default_rng(1)
            channels = self.branch_a.out_channels
            self.classifier = QLinear(
                channels * 2, self.classifier.out_features, bits=8, pinned=True, rng=rng
            )
            self._qlayers["classifier"] = self.classifier

    def forward(self, x: Tensor) -> Tensor:
        a = self.branch_a(x)
        b = self.branch_b(x)
        if not self.mended:
            quotient = a / b  # division join: always untraced
            joined = (
                Tensor.cat([quotient, b], axis=1) if self.mend_to == "cat" else quotient
            )
        elif self.mend_to == "add":
            joined = a + b
        elif self.mend_to == "mul":
            joined = a * b
        else:
            joined = Tensor.cat([a, b], axis=1)
        return self.classifier(self.pool(joined))
