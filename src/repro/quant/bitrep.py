"""Two's-complement bit-plane representation of quantized weights.

BMPQ's sensitivity metric differentiates the loss with respect to individual
*bit positions* of the fixed-point weight codes.  Equation (5) of the paper
writes a signed code as

    w_q / S_w = -2^{q-1} * b_{q-1} + sum_{i=0}^{q-2} 2^i * b_i

with ``b_i`` in {0, 1}.  This module exposes the per-bit positional weights
``[∂(w_q)/∂b_i]`` of that representation, needed by
:mod:`repro.core.bit_gradients`, and the representable code range.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "bit_position_weights",
    "code_range",
]


def code_range(bits: int) -> Tuple[int, int]:
    """Full two's-complement representable range ``[-2^{q-1}, 2^{q-1}-1]``."""
    if bits < 1:
        raise ValueError(f"bit width must be >= 1, got {bits}")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


def bit_position_weights(bits: int, scale: float = 1.0) -> np.ndarray:
    """Positional weights ``∂ w_q / ∂ b_i`` for a ``bits``-wide code.

    The returned vector is ordered from the most significant (sign) bit to the
    least significant bit, matching Eq. (6) of the paper:
    ``[-2^{q-1}, 2^{q-2}, ..., 2, 1] * scale``.
    """
    if bits < 1:
        raise ValueError(f"bit width must be >= 1, got {bits}")
    positions = np.array(
        [-(2 ** (bits - 1))] + [2 ** i for i in range(bits - 2, -1, -1)],
        dtype=np.float64,
    )
    return positions * float(scale)
