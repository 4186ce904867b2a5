"""Quantized layers: convolution and linear layers with mutable bit widths.

These modules hold FP-32 *shadow* weights (updated by the optimizer) and
quantize them on the forward pass to the layer's current bit width.  The
bit width is mutable state: BMPQ's ILP re-assigns it at each epoch-interval
boundary via :meth:`QuantizedLayer.set_bits`, and any attached PACT activation
follows the weight bit width as required by the paper (Section III-D).

Evaluation and export calls (``no_grad``) are served from a quantized-weight
cache keyed by the shadow weight's version counter and the current bit width:
optimizer steps and checkpoint loads bump the version, ``set_bits`` clears the
entry, and a content fingerprint makes unannounced in-place weight mutation
fail loudly instead of silently serving stale weights.  Training-mode forward
passes always re-quantize, since their STE tensor belongs to the live graph.

The last quantization result (integer codes, scale, and the autograd tensor of
the quantized weights) is retained after each forward pass so that the
bit-gradient analysis in :mod:`repro.core.bit_gradients` can compute
``∂L/∂w_q`` and decompose it over bit positions without re-running the layer.

All array math flows through the active :class:`~repro.backend.ArrayBackend`:
the quantizers (:mod:`repro.quant.quantizers`) round/clip on it and the
conv/linear products (:mod:`repro.nn.functional`) dispatch per forward call,
so a quantized model can be trained or evaluated under either backend — or
one per phase — without touching these modules.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple, Union

import numpy as np

from ..backend.base import conv_output_size
from ..nn import functional as F
from ..nn import init
from ..nn.modules import Module, Parameter
from ..nn.tensor import Tensor, is_grad_enabled
from .pact import PACT
from .quantizers import QuantizerOutput, quantize_tensor_for_bits

__all__ = ["QuantizedLayer", "QConv2d", "QLinear", "weight_cache_disabled"]

IntPair = Union[int, Tuple[int, int]]

# Process-wide switch for the quantized-weight cache.  Only exists so the
# inference benchmarks can measure the uncached (pre-cache) evaluation path;
# leave it on everywhere else.
_WEIGHT_CACHE_ENABLED = True


@contextmanager
def weight_cache_disabled():
    """Scope in which :meth:`QuantizedLayer.quantized_weight` never caches."""
    global _WEIGHT_CACHE_ENABLED
    previous = _WEIGHT_CACHE_ENABLED
    _WEIGHT_CACHE_ENABLED = False
    try:
        yield
    finally:
        _WEIGHT_CACHE_ENABLED = previous


def _weight_fingerprint(data: np.ndarray) -> Tuple:
    """Cheap content fingerprint used to detect in-place weight mutation.

    Samples a strided subset of the array (O(1)-ish regardless of size), so
    it catches wholesale mutation — the realistic failure mode — without
    re-reading every element.  It is deliberately best-effort: code that
    mutates shadow weights must call ``weight.bump_version()``; the
    fingerprint exists so forgetting to do so fails loudly instead of
    silently serving stale quantized weights.
    """
    flat = data.reshape(-1)
    step = max(1, flat.size // 64)
    return (data.shape, flat[::step].tobytes())


class QuantizedLayer(Module):
    """Common state and interface of weight-quantized layers.

    Attributes
    ----------
    bits:
        Current weight bit width of the layer.
    pinned:
        When ``True`` the bit width may not be changed by the assignment
        policy (used for the 16-bit first and last layers).
    """

    def __init__(self, bits: int, pinned: bool = False) -> None:
        super().__init__()
        self._bits = int(bits)
        self.pinned = bool(pinned)
        self.activation: Optional[PACT] = None
        self.last_quant_info: Optional[QuantizerOutput] = None
        self.last_quantized_weight: Optional[Tensor] = None
        self.weight: Parameter  # set by subclasses
        # Quantized-weight cache: one entry keyed by (weight version, bits),
        # consulted only when no autograd graph is being recorded so eval /
        # export never re-run the round/clip staircase on unchanged weights.
        self._qcache_key: Optional[Tuple[int, int]] = None
        self._qcache_value: Optional[Tuple[Tensor, QuantizerOutput]] = None
        self._qcache_fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------------ #
    # bit-width management
    # ------------------------------------------------------------------ #
    @property
    def bits(self) -> int:
        return self._bits

    def set_bits(self, bits: int, force: bool = False) -> None:
        """Change the weight (and tied activation) bit width.

        Pinned layers refuse the change unless ``force`` is given, protecting
        the paper's convention of 16-bit first/last layers.
        """
        bits = int(bits)
        if bits < 2:
            raise ValueError(f"bit width must be >= 2, got {bits}")
        if self.pinned and not force:
            raise ValueError(
                f"layer is pinned to {self._bits} bits; pass force=True to override"
            )
        self._bits = bits
        self.invalidate_weight_cache()
        if self.activation is not None:
            self.activation.set_bits(bits)

    def attach_activation(self, activation: PACT) -> PACT:
        """Tie a PACT activation's bit width to this layer's weight bits."""
        self.activation = activation
        activation.set_bits(self._bits)
        return activation

    # ------------------------------------------------------------------ #
    # introspection used by the assignment policy and compression model
    # ------------------------------------------------------------------ #
    @property
    def num_weight_params(self) -> int:
        """Number of quantized weight scalars (bias excluded, as in Eq. 11)."""
        return int(self.weight.data.size)

    def invalidate_weight_cache(self) -> None:
        """Drop the cached quantized weights (bit-width or weight surgery)."""
        self._qcache_key = None
        self._qcache_value = None
        self._qcache_fingerprint = None

    def quantized_weight(self) -> Tuple[Tensor, QuantizerOutput]:
        """Quantize the shadow weights at the current bit width.

        Under ``no_grad`` the result is cached keyed by
        ``(weight.version, bits)``: optimizer steps and checkpoint loads bump
        the version, :meth:`set_bits` clears the entry, so steady-state
        evaluation and export reuse the staircase output instead of
        recomputing it per batch.  A cache hit re-checks a content
        fingerprint of the shadow weights; if they were mutated without
        ``weight.bump_version()`` the stale entry is a programming error and
        the lookup raises instead of serving wrong numbers.  Training-mode
        calls (autograd enabled) always recompute, because the STE tensor
        they return is wired into the current graph.
        """
        if is_grad_enabled() or not _WEIGHT_CACHE_ENABLED:
            qweight, info = quantize_tensor_for_bits(self.weight, self._bits)
            # NBG reads this non-leaf's gradient after backward() released
            # the graph (see weight_bit_gradient_inputs).
            qweight.retain_grad()
            self.last_quant_info = info
            self.last_quantized_weight = qweight
            return qweight, info

        key = (self.weight.version, self._bits)
        if self._qcache_key == key and self._qcache_value is not None:
            if _weight_fingerprint(self.weight.data) != self._qcache_fingerprint:
                raise RuntimeError(
                    "stale quantized-weight cache: the shadow weights changed "
                    "without a version bump; call weight.bump_version() (or "
                    "layer.invalidate_weight_cache()) after mutating weights "
                    "in place"
                )
            qweight, info = self._qcache_value
        else:
            qweight, info = quantize_tensor_for_bits(self.weight, self._bits)
            self._qcache_key = key
            self._qcache_value = (qweight, info)
            self._qcache_fingerprint = _weight_fingerprint(self.weight.data)
        self.last_quant_info = info
        self.last_quantized_weight = qweight
        return qweight, info

    def weight_bit_gradient_inputs(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Return ``(grad_wq, codes, scale)`` from the last backward pass.

        ``grad_wq`` is the gradient of the loss with respect to the quantized
        weights; it is read off the quantized-weight tensor produced by the
        most recent forward pass, which that pass marked with
        ``retain_grad()`` so backward keeps its gradient.
        """
        if self.last_quantized_weight is None or self.last_quant_info is None:
            raise RuntimeError("no forward pass has been recorded for this layer yet")
        if self.last_quantized_weight.grad is None:
            raise RuntimeError(
                "no gradient available on the quantized weights; run backward() "
                "before collecting bit gradients"
            )
        return (
            self.last_quantized_weight.grad,
            self.last_quant_info.codes,
            self.last_quant_info.scale,
        )


class QConv2d(QuantizedLayer):
    """2-D convolution with quantized weights and mutable precision."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = False,
        bits: int = 4,
        pinned: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(bits=bits, pinned=pinned)
        gen = rng if rng is not None else np.random.default_rng()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_normal((out_channels, in_channels, kh, kw), gen), name="weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None
        # Spatial size of the input feature map, when known statically.  The
        # model constructors set this while building the network so cost-model
        # queries (MACs, bit-ops) work on freshly built models without a
        # probe forward pass.
        self.input_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: Tensor) -> Tensor:
        qweight, _ = self.quantized_weight()
        out = F.conv2d(x, qweight, self.bias, stride=self.stride, padding=self.padding)
        self.last_output_shape = out.shape
        return out

    def output_hw(self, input_hw: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
        """Output spatial size for ``input_hw`` (defaults to the static hint)."""
        hw = input_hw if input_hw is not None else self.input_hw
        if hw is None:
            raise RuntimeError(
                "input spatial size unknown: run a forward pass or set input_hw"
            )
        kh, kw = self.kernel_size
        sh, sw = (self.stride, self.stride) if isinstance(self.stride, int) else self.stride
        ph, pw = (self.padding, self.padding) if isinstance(self.padding, int) else self.padding
        return (
            conv_output_size(hw[0], kh, sh, ph),
            conv_output_size(hw[1], kw, sw, pw),
        )

    def macs_for_output_hw(self, oh: int, ow: int) -> float:
        """MAC count for one sample given the output spatial size."""
        kh, kw = self.kernel_size
        return float(oh * ow * self.out_channels * self.in_channels * kh * kw)

    def macs_per_sample(self) -> float:
        """Multiply-accumulate count for one input sample.

        Uses the output size recorded by the most recent forward pass when one
        exists, and otherwise computes it statically from the constructor's
        ``input_hw`` hint and the stride/padding geometry — so cost-model
        queries work on freshly built models.
        """
        if getattr(self, "last_output_shape", None) is not None:
            _n, _oc, oh, ow = self.last_output_shape
        else:
            oh, ow = self.output_hw()
        return self.macs_for_output_hw(oh, ow)

    def __repr__(self) -> str:
        pin = ", pinned" if self.pinned else ""
        return (
            f"QConv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bits={self.bits}{pin})"
        )


class QLinear(QuantizedLayer):
    """Fully connected layer with quantized weights and mutable precision."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        bits: int = 4,
        pinned: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(bits=bits, pinned=pinned)
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), gen), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        qweight, _ = self.quantized_weight()
        out = F.linear(x, qweight, self.bias)
        self.last_output_shape = out.shape
        return out

    def macs_per_sample(self) -> float:
        """Multiply-accumulate count for one input sample."""
        return float(self.in_features * self.out_features)

    def __repr__(self) -> str:
        pin = ", pinned" if self.pinned else ""
        return f"QLinear({self.in_features}, {self.out_features}, bits={self.bits}{pin})"
