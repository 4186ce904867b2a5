"""Weight quantizers used by BMPQ (activations are quantized by :mod:`.pact`).

Implements the symmetric uniform quantizer of Eq. (3)-(4) of the paper, the
ternary quantizer used for 2-bit layers (Li et al., "Ternary weight
networks"), and a pass-through high-precision quantizer for the pinned
first/last layers.  All quantizers use the straight-through estimator (STE):
the forward pass produces the staircase-quantized value while the backward
pass copies the gradient to the full-precision shadow weights unchanged.

The round/clip staircase math runs on the active
:class:`~repro.backend.ArrayBackend`, so quantization follows the same
backend selection as the rest of the training stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..backend import get_backend
from ..nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "QuantizerOutput",
    "symmetric_scale",
    "quantize_symmetric_array",
    "quantize_weights_ste",
    "ternary_quantize_array",
    "ternary_threshold_and_scale",
    "quantize_ternary_ste",
    "quantize_tensor_for_bits",
    "integer_levels",
]


@dataclass(frozen=True)
class QuantizerOutput:
    """Raw (non-autograd) quantization result.

    Attributes
    ----------
    quantized:
        Fixed-point values mapped back to the real axis (``codes * scale``).
    codes:
        Signed integer codes in ``[-2^{q-1}+1, 2^{q-1}-1]`` (or ternary codes).
    scale:
        The per-tensor scaling factor ``S_w``.
    """

    quantized: np.ndarray
    codes: np.ndarray
    scale: float


def integer_levels(bits: int) -> Tuple[int, int]:
    """Return the (min, max) signed integer code for a ``bits``-wide weight.

    The paper uses the symmetric range ``[-(2^{q-1}-1), 2^{q-1}-1]`` produced
    by Eq. (3)'s scale; the most negative two's-complement code is unused.
    """
    if bits < 2:
        raise ValueError(f"weight quantization requires at least 2 bits, got {bits}")
    qmax = 2 ** (bits - 1) - 1
    return -qmax, qmax


def symmetric_scale(weights: np.ndarray, bits: int) -> float:
    """Scaling factor ``S_w = max(|W|) / (2^{q-1} - 1)`` from Eq. (3)."""
    _, qmax = integer_levels(bits)
    max_abs = float(np.max(get_backend().abs(weights))) if weights.size else 0.0
    if max_abs == 0.0:
        return 1.0 / qmax
    scale = max_abs / qmax
    # Subnormal weights can produce a scale that underflows to zero in
    # float32, turning ``weights / scale`` into inf/nan codes; treat such
    # tensors as effectively zero instead.
    if np.float32(scale) == np.float32(0.0):
        return 1.0 / qmax
    return scale


def quantize_symmetric_array(weights: np.ndarray, bits: int) -> QuantizerOutput:
    """Symmetric uniform quantization of Eq. (3)-(4) without autograd."""
    backend = get_backend()
    scale = symmetric_scale(weights, bits)
    qmin, qmax = integer_levels(bits)
    codes = backend.clip(backend.round(weights / scale), qmin, qmax).astype(np.float32)
    return QuantizerOutput(quantized=codes * scale, codes=codes, scale=scale)


def ternary_threshold_and_scale(weights: np.ndarray) -> Tuple[float, float]:
    """Threshold Δ and scale α for ternary weight networks.

    Uses the closed-form approximation of Li et al.: ``Δ = 0.7 * mean(|W|)``
    and ``α = mean(|W_i|)`` over the weights with ``|W_i| > Δ``, which
    minimizes the Euclidean distance between the FP-32 and ternary weights.
    """
    abs_w = get_backend().abs(weights)
    delta = 0.7 * float(abs_w.mean()) if weights.size else 0.0
    mask = abs_w > delta
    if mask.any():
        alpha = float(abs_w[mask].mean())
    else:
        alpha = float(abs_w.mean()) if weights.size else 1.0
    if alpha == 0.0:
        alpha = 1.0
    return delta, alpha


def ternary_quantize_array(weights: np.ndarray) -> QuantizerOutput:
    """Ternary {−α, 0, +α} quantization used for 2-bit layers."""
    delta, alpha = ternary_threshold_and_scale(weights)
    codes = np.zeros_like(weights, dtype=np.float32)
    codes[weights > delta] = 1.0
    codes[weights < -delta] = -1.0
    return QuantizerOutput(quantized=codes * alpha, codes=codes, scale=alpha)


def _ste_result(shadow: Tensor, quantized: np.ndarray) -> Tensor:
    """Wrap a quantized array so gradients pass straight through to ``shadow``."""

    def backward(grad: np.ndarray) -> None:
        shadow._accumulate(grad)

    requires = is_grad_enabled() and shadow.requires_grad
    out = Tensor(quantized, requires_grad=requires)
    if requires:
        out._parents = (shadow,)
        out._backward = backward
    return out


def quantize_weights_ste(shadow: Tensor, bits: int) -> Tuple[Tensor, QuantizerOutput]:
    """Symmetric uniform quantization with an STE backward pass.

    Parameters
    ----------
    shadow:
        The FP-32 shadow weights (a learnable :class:`Parameter`).
    bits:
        Target weight bit width (>= 3 for uniform; use
        :func:`quantize_ternary_ste` for 2 bits).

    Returns
    -------
    (tensor, info):
        ``tensor`` participates in autograd with the quantized forward value;
        ``info`` carries the integer codes and scale for storage analysis.
    """
    info = quantize_symmetric_array(shadow.data, bits)
    return _ste_result(shadow, info.quantized), info


def quantize_ternary_ste(shadow: Tensor) -> Tuple[Tensor, QuantizerOutput]:
    """Ternary quantization with an STE backward pass (2-bit layers)."""
    info = ternary_quantize_array(shadow.data)
    return _ste_result(shadow, info.quantized), info


def quantize_tensor_for_bits(shadow: Tensor, bits: int) -> Tuple[Tensor, QuantizerOutput]:
    """Dispatch on the bit width the way BMPQ training does.

    * ``bits >= 32`` — true full-precision pass-through (used by the FP-32
      baseline trainer); no quantization error at all.
    * ``bits >= 16`` — treated as effectively full precision for the pinned
      first/last layers: values pass through unchanged but the storage cost is
      still accounted at 16 bits by the compression model.
    * ``bits == 2`` — ternary quantization (paper Section III-D).
    * otherwise — symmetric uniform quantization (Eq. 3-4).
    """
    if bits >= 32:
        info = QuantizerOutput(
            quantized=shadow.data.copy(),
            codes=shadow.data.copy(),
            scale=1.0,
        )
        return _ste_result(shadow, info.quantized), info
    if bits >= 16:
        info = quantize_symmetric_array(shadow.data, bits)
        # 16-bit quantization error is negligible; keep the quantized forward
        # value so the code path is identical for every layer.
        return _ste_result(shadow, info.quantized), info
    if bits == 2:
        return quantize_ternary_ste(shadow)
    return quantize_weights_ste(shadow, bits)
