"""Reference NumPy backend: textbook semantics, zero cleverness.

Every structured kernel here is written the way the operation is defined on
paper — explicit Python loops over output positions, one patch at a time —
so the implementation doubles as executable documentation and as the ground
truth the parity suite checks :class:`~repro.backend.fast_numpy.FastNumpyBackend`
against.  It is deliberately slow; select it with ``backend="numpy"`` when
debugging numerics, never for real training runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import ArrayBackend, IntPair, conv_output_size

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Bit-exact reference implementation of the backend interface."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # convolution kernels
    # ------------------------------------------------------------------ #
    def im2col(
        self,
        x: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
        reuse: bool = False,
    ) -> Tuple[np.ndarray, IntPair]:
        n, c, h, w = x.shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        oh = conv_output_size(h, kh, sh, ph)
        ow = conv_output_size(w, kw, sw, pw)
        x = self.pad2d(x, ph, pw)
        cols = np.empty((n, c * kh * kw, oh * ow), dtype=x.dtype)
        # One window at a time, exactly as the convolution is defined.
        for i in range(oh):
            for j in range(ow):
                patch = x[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                cols[:, :, i * ow + j] = patch.reshape(n, -1)
        return cols, (oh, ow)

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        n, c, h, w = input_shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        oh = conv_output_size(h, kh, sh, ph)
        ow = conv_output_size(w, kw, sw, pw)
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
        cols6 = cols.reshape(n, c, kh, kw, oh, ow)
        for i in range(oh):
            for j in range(ow):
                padded[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw] += cols6[:, :, :, :, i, j]
        if ph or pw:
            return padded[:, :, ph : ph + h, pw : pw + w]
        return padded

    def conv2d_cols(self, w_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.einsum("of,nfp->nop", w_mat, cols)

    def conv2d_grad_weight(self, grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.einsum("nop,nfp->of", grad_mat, cols)

    def conv2d_grad_cols(self, w_mat: np.ndarray, grad_mat: np.ndarray) -> np.ndarray:
        return np.einsum("of,nop->nfp", w_mat, grad_mat)

    # ------------------------------------------------------------------ #
    # integer kernels
    # ------------------------------------------------------------------ #
    # Deliberately inherited from ArrayBackend: ``int_conv2d`` /
    # ``int_conv2d_cm`` / ``int_linear`` accumulate in float64 (exact for
    # codes up to 16 bits).  These ARE the reference semantics the
    # serving-parity harness certifies the fast backend's float32 GEMM
    # kernels against — keeping them here, unoverridden, is the point.

    # ------------------------------------------------------------------ #
    # pooling kernels
    # ------------------------------------------------------------------ #
    def pool_windows(self, x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
        n, c, h, w = x.shape
        kh, kw = kernel
        sh, sw = stride
        oh = conv_output_size(h, kh, sh, 0)
        ow = conv_output_size(w, kw, sw, 0)
        windows = np.empty((n, c, oh, ow, kh, kw), dtype=x.dtype)
        for i in range(oh):
            for j in range(ow):
                windows[:, :, i, j] = x[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
        return windows

    def avg_pool_backward(
        self,
        grad: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
    ) -> np.ndarray:
        n, c, h, w = input_shape
        kh, kw = kernel
        sh, sw = stride
        oh = conv_output_size(h, kh, sh, 0)
        ow = conv_output_size(w, kw, sw, 0)
        grad_input = np.zeros(input_shape, dtype=grad.dtype)
        scale = grad.dtype.type(1.0 / (kh * kw))
        for i in range(oh):
            for j in range(ow):
                grad_input[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw] += (
                    grad[:, :, i : i + 1, j : j + 1] * scale
                )
        return grad_input
