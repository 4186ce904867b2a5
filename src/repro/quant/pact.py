"""PACT: parameterized clipping activation (Choi et al., 2018).

BMPQ uses PACT for every intermediate layer whose activations are quantized
to low precision; the clipping level ``alpha`` is a learnable per-layer
parameter.  Equation (1) of the paper defines the forward clip and Eq. (2)
the linear quantization of the clipped output; the gradient with respect to
``alpha`` flows through the straight-through estimator (non-zero only where
the input saturates at ``alpha``).

Every model site of the form ``PACT(BatchNorm(conv) [+ shortcut])`` trains
through :func:`bn_pact`, one autograd node for the whole chain.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..backend import get_backend
from ..nn import functional as F
from ..nn.modules import BatchNorm2d, Module, Parameter
from ..nn.tensor import Tensor, is_grad_enabled

__all__ = ["pact", "bn_pact", "PACT"]

# Region of each PACT input, one byte per element.  A NaN is neither below
# zero nor at or above alpha, so it counts as inside.
_BELOW, _INSIDE, _ABOVE = 0, 1, 2


def _alpha_value(alpha: Tensor) -> float:
    value = float(alpha.data.reshape(-1)[0])
    if value <= 0:
        raise ValueError(f"PACT clipping level must be positive, got {value}")
    return value


def _clip_quantize(
    z: np.ndarray, alpha: float, bits: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Clip ``z`` to ``[0, alpha]`` (Eq. 1), then quantize it in place (Eq. 2).

    Returns the result, written into ``out`` when given, and the region
    code of ``z``.  At 16 bits and more the clip is the output.
    """
    code = np.add(np.greater_equal(z, alpha), _INSIDE, dtype=np.uint8)
    code -= np.less(z, 0.0)
    backend = get_backend()
    y = backend.clip(z, 0.0, alpha, out=out)
    if bits < 16:
        step = alpha / (2 ** bits - 1)
        np.divide(y, step, out=y)
        backend.round(y, out=y)
        np.multiply(y, step, out=y)
    return y, code


def _alpha_grad(grad: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. alpha: the sum of ``grad`` where the input saturated."""
    return np.array([float((grad * (code == _ABOVE)).sum())], dtype=np.float32)


def pact(x: Tensor, alpha: Tensor, bits: int) -> Tensor:
    """Apply the PACT non-linearity followed by ``bits``-level quantization.

    Forward (Eq. 1):  ``y = clip(x, 0, alpha)``
    Quantization (Eq. 2): ``y_q = round(y * (2^k - 1)/alpha) * alpha/(2^k - 1)``

    Backward:
      * w.r.t. ``x``  — STE inside the clipping range, zero outside;
      * w.r.t. ``alpha`` — 1 where the input saturated (``x >= alpha``), as in
        the PACT paper.

    One autograd node, which keeps only the output and the region code.
    """
    alpha_value = _alpha_value(alpha)
    out, code = _clip_quantize(x.data, alpha_value, bits)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (code == _INSIDE), handover=True)
        if alpha.requires_grad:
            alpha._accumulate(_alpha_grad(grad, code), handover=True)

    return F._result(out, (x, alpha), backward)


def bn_pact(
    bn: BatchNorm2d,
    act: PACT,
    x: Tensor,
    residual: Optional[Union[Tensor, Callable[[], Tensor]]] = None,
) -> Tensor:
    """``act(bn(x) [+ residual])`` as one autograd node when training.

    In training mode with grad enabled, one node runs the BatchNorm forward
    (updating the running statistics and ``bn.stats_version`` as
    ``bn(x)`` does), the residual add, the PACT clip and the activation
    quantization.  It keeps only ``x_hat``, the region code and its output,
    where the composition keeps every intermediate tensor alive, and its
    backward hands each fresh gradient over instead of copying it.  Every
    other call (eval mode, ``no_grad``, or ``act`` recording densities)
    composes the modules, so the plan tracer, the integer session and the
    AD baseline see the same leaf calls.  Both run the same operations on
    the same operands in the same order, so both give the same bits.

    ``residual`` is a tensor, or a callable returning one; a callable runs
    after ``bn``, keeping the module order of the composition (a traced
    plan fuses a conv with its BatchNorm only when the BatchNorm comes
    next).
    """
    if not (bn.training and is_grad_enabled()) or act.record_density:
        out = bn(x)
        if residual is not None:
            out = out + (residual() if callable(residual) else residual)
        return act(out)

    bn.stats_version += 1
    gamma, beta, alpha = bn.weight, bn.bias, act.alpha
    _axes, shape = F._bn_layout(x.data)
    x_hat, inv_std = F._bn_normalize(
        x.data, bn.running_mean, bn.running_var, True, bn.momentum, bn.eps
    )
    z = gamma.data.reshape(shape) * x_hat
    z += beta.data.reshape(shape)
    parents: Tuple[Tensor, ...] = (x, gamma, beta)
    if residual is not None:
        residual = residual() if callable(residual) else residual
        z += residual.data
        parents += (residual,)
    out, code = _clip_quantize(z, _alpha_value(alpha), act.bits, out=z)

    def backward(grad: np.ndarray) -> None:
        if alpha.requires_grad:
            alpha._accumulate(_alpha_grad(grad, code), handover=True)
        dz = grad * (code == _INSIDE)
        dgamma, dbeta, dx = F._bn_backward(
            dz, x_hat, gamma.data, inv_std, True, x.requires_grad
        )
        if gamma.requires_grad:
            gamma._accumulate(dgamma, handover=True)
        if beta.requires_grad:
            beta._accumulate(dbeta, handover=True)
        if residual is not None:
            residual._accumulate(dz, handover=True)
        if dx is not None:
            x._accumulate(dx, handover=True)

    return F._result(out, parents + (alpha,), backward)


class PACT(Module):
    """PACT activation module with a learnable clipping level.

    Parameters
    ----------
    bits:
        Activation bit width.  BMPQ ties this to the weight bit width of the
        layer feeding the activation; :class:`repro.quant.qmodules.QConv2d`
        updates it whenever the ILP re-assigns the layer.
    alpha_init:
        Initial clipping level (10.0 in the PACT paper).
    """

    def __init__(self, bits: int = 4, alpha_init: float = 10.0) -> None:
        super().__init__()
        if alpha_init <= 0:
            raise ValueError(f"alpha_init must be positive, got {alpha_init}")
        self.bits = int(bits)
        self.alpha = Parameter(np.array([alpha_init], dtype=np.float32), name="alpha")
        # Activation-density bookkeeping used by the AD baseline
        # (Vasquez et al., DATE 2021): fraction of non-zero outputs.
        self.record_density = False
        self._density_sum = 0.0
        self._density_batches = 0

    def set_bits(self, bits: int) -> None:
        """Update the activation bit width (called on ILP re-assignment)."""
        self.bits = int(bits)

    # ------------------------------------------------------------------ #
    # activation-density statistics (AD baseline support)
    # ------------------------------------------------------------------ #
    def reset_density(self) -> None:
        """Clear accumulated activation-density statistics."""
        self._density_sum = 0.0
        self._density_batches = 0

    @property
    def mean_density(self) -> float:
        """Mean fraction of non-zero activations over recorded batches."""
        if self._density_batches == 0:
            return 0.0
        return self._density_sum / self._density_batches

    def forward(self, x: Tensor) -> Tensor:
        if self.record_density:
            self._density_sum += float((x.data > 0).mean())
            self._density_batches += 1
        return pact(x, self.alpha, self.bits)

    def __repr__(self) -> str:
        return f"PACT(bits={self.bits}, alpha={float(self.alpha.data[0]):.3f})"
