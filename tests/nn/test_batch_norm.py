"""BatchNorm numerics pinned against the textbook two-pass formula.

``reference_batch_norm`` is the straightforward formula: ``np.mean`` and
``np.var`` for the statistics, ``(x - mean) * inv_std`` for ``x_hat``, and the
three-term mean form of the input gradient.  The operator must reproduce its
forward output, running statistics and parameter gradients bit for bit, and
its input gradient to within float32 rounding of the reordered sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import use_backend
from repro.nn import Tensor
from repro.nn import functional as F

SHAPES = [(4, 3, 5, 5), (32, 8, 6, 7), (7, 5)]


def reference_batch_norm(x, gamma, beta, running_mean, running_var, grad, training,
                         momentum=0.1, eps=1e-5):
    """Returns (out, dx, dgamma, dbeta); updates the running stats in place."""
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        count = x.size / x.shape[1]
        unbiased = var * count / max(count - 1.0, 1.0)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    dgamma = (grad * x_hat).sum(axis=axes)
    dbeta = grad.sum(axis=axes)
    g = gamma.reshape(shape)
    if training:
        dxhat = grad * g
        term2 = dxhat.mean(axis=axes, keepdims=True)
        term3 = x_hat * (dxhat * x_hat).mean(axis=axes, keepdims=True)
        dx = (dxhat - term2 - term3) * inv_std.reshape(shape)
    else:
        dx = grad * g * inv_std.reshape(shape)
    return out, dx, dgamma, dbeta


def _operands(rng, shape):
    c = shape[1]
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(np.float32)
    gamma = rng.uniform(0.5, 2.0, c).astype(np.float32)
    beta = rng.standard_normal(c).astype(np.float32)
    running_mean = rng.standard_normal(c).astype(np.float32)
    running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    grad = rng.standard_normal(shape).astype(np.float32)
    return x, gamma, beta, running_mean, running_var, grad


def _run(x, gamma, beta, running_mean, running_var, grad, training):
    xt = Tensor(x, requires_grad=True)
    gt = Tensor(gamma, requires_grad=True)
    bt = Tensor(beta, requires_grad=True)
    out = F.batch_norm(xt, gt, bt, running_mean, running_var, training=training)
    out.backward(grad)
    return out.data, xt.grad, gt.grad, bt.grad


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


@pytest.mark.parametrize("backend_name", ["numpy", "fast"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_matches_reference(rng, backend_name, shape, training):
    x, gamma, beta, mean, var, grad = _operands(rng, shape)
    ref_mean, ref_var = mean.copy(), var.copy()
    want = reference_batch_norm(x, gamma, beta, ref_mean, ref_var, grad, training)
    with use_backend(backend_name):
        got = _run(x, gamma, beta, mean, var, grad, training)
    out, dx, dgamma, dbeta = got
    assert _bits(out) == _bits(want[0])
    assert _bits(mean) == _bits(ref_mean) and _bits(var) == _bits(ref_var)
    assert _bits(dgamma) == _bits(want[2])
    assert _bits(dbeta) == _bits(want[3])
    if training:
        scale = float(np.abs(want[1]).max())
        assert float(np.abs(dx - want[1]).max()) <= 1e-6 * scale
    else:
        # The eval-mode path is the unchanged elementwise formula.
        assert _bits(dx) == _bits(want[1])


def test_input_only_gradient_matches_reference(rng):
    """Frozen gamma/beta: the sums for dx are still taken."""
    x, gamma, beta, mean, var, grad = _operands(rng, (6, 4, 3, 3))
    want = reference_batch_norm(x, gamma, beta, mean.copy(), var.copy(), grad, True)
    xt = Tensor(x, requires_grad=True)
    out = F.batch_norm(xt, Tensor(gamma), Tensor(beta), mean, var, training=True)
    out.backward(grad)
    assert float(np.abs(xt.grad - want[1]).max()) <= 1e-6 * float(np.abs(want[1]).max())


def test_forward_leaves_input_untouched(rng):
    x, gamma, beta, mean, var, _ = _operands(rng, (4, 3, 5, 5))
    kept = x.copy()
    for training in (True, False):
        F.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), mean, var, training=training)
    np.testing.assert_array_equal(x, kept)
