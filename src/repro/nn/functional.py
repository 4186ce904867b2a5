"""Differentiable neural-network operators built on :class:`repro.nn.Tensor`.

The operators here implement the forward/backward math needed by quantized
CNN training: im2col-based 2-D convolution, max/average pooling, linear
layers, batch normalization, softmax/log-softmax and cross-entropy.  Each
function returns a new :class:`Tensor` whose backward closure scatters the
incoming gradient to its inputs, so they compose freely with the elementwise
primitives defined in :mod:`repro.nn.tensor`.

All structured array work (patch extraction, conv products, pooling windows,
gradient scatters) is obtained from the active
:class:`~repro.backend.ArrayBackend`, so the same autograd graph runs on the
reference or the vectorized numerics unchanged.  Each op captures the backend
that executed its forward pass and uses it again in the backward closure,
keeping a single graph internally consistent even if the active backend is
swapped between forward and backward.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..backend import get_backend
from ..backend.base import conv_output_size
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "dropout",
    "conv_output_size",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


def _result(data: np.ndarray, parents: Tuple[Tensor, ...], backward) -> Tensor:
    """Create an output tensor wired into the autograd graph."""
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    return out


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, oh*ow).

    Returns the column matrix together with the output spatial size.
    Delegates to the active backend; the caller owns the result.
    """
    return get_backend().im2col(x, kernel, stride, padding, reuse=False)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Fold columns produced by :func:`im2col` back into an image gradient."""
    return get_backend().col2im(cols, input_shape, kernel, stride, padding)


# --------------------------------------------------------------------------- #
# convolution and linear
# --------------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution over an (N, C, H, W) input.

    ``weight`` has shape (out_channels, in_channels, kh, kw).
    """
    backend = get_backend()
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.data.shape
    oc, ic, kh, kw = weight.data.shape
    if ic != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")

    # The graph keeps the input, not its kh*kw times larger columns: the
    # weight gradient re-derives them, off the input-gradient critical path.
    x_data = x.data
    w_shape = weight.data.shape
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(w, kw, stride[1], padding[1])
    w_mat = weight.data.reshape(oc, -1)
    out = backend.conv2d_forward(x_data, w_mat, (kh, kw), stride, padding)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1)
    out = out.reshape(n, oc, oh, ow)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, oc, oh * ow)
        if weight.requires_grad:
            weight._accumulate_deferred(
                lambda: backend.conv2d_grad_weight_from_input(
                    x_data, grad_mat, (kh, kw), stride, padding
                ).reshape(w_shape)
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if x.requires_grad:
            x._accumulate(
                backend.conv2d_grad_input(w_mat, grad_mat, x.data.shape, (kh, kw), stride, padding),
                handover=True,
            )

    return _result(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for (N, in_features) inputs."""
    backend = get_backend()
    out = backend.matmul(x.data, weight.data.T)
    if bias is not None:
        out = out + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(backend.matmul(grad, weight.data), handover=True)
        if weight.requires_grad:
            weight._accumulate(backend.matmul(grad.T, x.data), handover=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0), handover=True)

    return _result(out, parents, backward)


# --------------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over non-overlapping or strided windows."""
    backend = get_backend()
    kernel = _pair(kernel_size)
    strides = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.data.shape
    oh = conv_output_size(h, kernel[0], strides[0], 0)
    ow = conv_output_size(w, kernel[1], strides[1], 0)

    windows = backend.pool_windows(x.data, kernel, strides)
    flat = windows.reshape(n, c, oh, ow, kernel[0] * kernel[1])
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(
            backend.max_pool_backward(grad, argmax, x.data.shape, kernel, strides), handover=True
        )

    return _result(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over strided windows."""
    backend = get_backend()
    kernel = _pair(kernel_size)
    strides = _pair(stride if stride is not None else kernel_size)

    windows = backend.pool_windows(x.data, kernel, strides)
    out = windows.mean(axis=(-1, -2))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(backend.avg_pool_backward(grad, x.data.shape, kernel, strides), handover=True)

    return _result(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, producing (N, C) output."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------------- #
# normalization
# --------------------------------------------------------------------------- #
def _bn_layout(x: np.ndarray) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Reduction axes and per-channel broadcast shape of a BatchNorm input."""
    if x.ndim == 4:
        return (0, 2, 3), (1, -1, 1, 1)
    if x.ndim == 2:
        return (0,), (1, -1)
    raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")


def _bn_normalize(
    x: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(x_hat, inv_std)``; in training, update the running stats.

    ``x_hat`` is a fresh array.  The BatchNorm forward of :func:`batch_norm`
    and of the fused ``quant.pact.bn_pact`` node, so both give the same bits.
    """
    axes, shape = _bn_layout(x)
    count = x.size // x.shape[1]
    if training:
        # The centred input is computed once and serves both the variance
        # (the same reduction np.var runs, so the same bits) and x_hat.
        mean = x.mean(axis=axes)
        centred = x - mean.reshape(shape)
        var = np.square(centred).sum(axis=axes) / count
        unbiased = var * count / max(count - 1.0, 1.0)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        centred = x - running_mean.reshape(shape)
        var = running_var

    inv_std = 1.0 / get_backend().sqrt(var + eps)
    x_hat = np.multiply(centred, inv_std.reshape(shape), out=centred)
    return x_hat, inv_std


def _bn_backward(
    grad: np.ndarray,
    x_hat: np.ndarray,
    gamma: np.ndarray,
    inv_std: np.ndarray,
    training: bool,
    want_dx: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Return fresh ``(dgamma, dbeta, dx)``; ``dx`` is ``None`` unless wanted."""
    axes, shape = _bn_layout(x_hat)
    sum_gx = (grad * x_hat).sum(axis=axes)
    sum_g = grad.sum(axis=axes)
    if not want_dx:
        return sum_gx, sum_g, None
    if training:
        # dx = gamma * inv_std * (g - sum(g)/m - x_hat * sum(g * x_hat)/m),
        # built in place from the two sums dgamma and dbeta already took.
        count = x_hat.size // x_hat.shape[1]
        dx = x_hat * (sum_gx / count).reshape(shape)
        np.subtract(grad, dx, out=dx)
        dx -= (sum_g / count).reshape(shape)
        dx *= (gamma * inv_std).reshape(shape)
    else:
        dx = grad * gamma.reshape(shape) * inv_std.reshape(shape)
    return sum_gx, sum_g, dx


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of (N, C, H, W) or (N, C).

    ``running_mean``/``running_var`` are updated in place during training so
    that module state mirrors PyTorch semantics.
    """
    _axes, shape = _bn_layout(x.data)
    x_hat, inv_std = _bn_normalize(x.data, running_mean, running_var, training, momentum, eps)
    out = gamma.data.reshape(shape) * x_hat
    out += beta.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        dgamma, dbeta, dx = _bn_backward(
            grad, x_hat, gamma.data, inv_std, training, x.requires_grad
        )
        if gamma.requires_grad:
            gamma._accumulate(dgamma, handover=True)
        if beta.requires_grad:
            beta._accumulate(dbeta, handover=True)
        if dx is not None:
            x._accumulate(dx, handover=True)

    return _result(out, (x, gamma, beta), backward)


# --------------------------------------------------------------------------- #
# softmax / losses
# --------------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    backend = get_backend()
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = backend.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return _result(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    backend = get_backend()
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = backend.log(backend.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    probs = backend.exp(out)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return _result(out, (x,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer class ``targets``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.data.shape[0]
    picked = log_probs.data[np.arange(n), targets]
    if reduction == "mean":
        value = -picked.mean()
        scale = 1.0 / n
    elif reduction == "sum":
        value = -picked.sum()
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        if not log_probs.requires_grad:
            return
        g = np.zeros_like(log_probs.data)
        g[np.arange(n), targets] = -scale
        log_probs._accumulate(g * grad)

    return _result(np.asarray(value, dtype=np.float32), (log_probs,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
    reduction: str = "mean",
) -> Tensor:
    """Cross-entropy between logits and integer class targets.

    Supports optional label smoothing; gradients flow only to ``logits``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    if label_smoothing <= 0.0:
        return nll_loss(log_probs, targets, reduction=reduction)

    num_classes = logits.data.shape[-1]
    smooth = label_smoothing / num_classes
    confident = 1.0 - label_smoothing
    n = logits.data.shape[0]
    target_term = nll_loss(log_probs, targets, reduction="sum") * confident
    uniform_term = log_probs.sum() * (-smooth)
    total = target_term + uniform_term
    if reduction == "mean":
        return total * (1.0 / n)
    return total


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    gen = rng if rng is not None else np.random.default_rng()
    mask = (gen.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return _result(out, (x,), backward)
