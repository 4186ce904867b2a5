"""Deferred gradients: conv weight gradients computed on the gradient thread.

Every test compares ``Tensor.backward()`` with the fully inline pass, where
each closure runs on the calling thread in reverse topological order (what
``backward()`` did before weight gradients were deferred).  A closure called
outside ``backward()`` computes its deferred gradient inline, so the
reference simply calls the closures itself.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.backend import FastNumpyBackend, get_backend, use_backend
from repro.models import simple_cnn
from repro.nn import Tensor
from repro.nn import functional as F


def _inline_backward(root: Tensor) -> None:
    order, seen = [], set()

    def visit(node):
        seen.add(id(node))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                visit(parent)
        order.append(node)

    visit(root)
    root._accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def _grads(tensors):
    return [None if t.grad is None else _bits(t.grad) for t in tensors]


def _shared_weight_graph(seed):
    """Two convs share one weight, which also scales each conv's input.

    Backward reaches each scale's inline gradient into ``w`` after that
    conv deferred its weight gradient, so ``w`` sums deferred and inline
    gradients interleaved, and the order has to survive the deferral.
    """
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((5, 3, 18, 17)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3, 3, 3)).astype(np.float32), requires_grad=True)
    w2 = Tensor(rng.standard_normal((8, 8, 3, 3)).astype(np.float32), requires_grad=True)
    h = F.conv2d(x * (w * w).mean(), w, stride=1, padding=1).relu()
    h = F.conv2d(h, w2, stride=2, padding=1)
    # The second use of ``w`` reads channels 0-2 of ``h``.
    h = F.conv2d(h[:, :3] * w.abs().mean(), w, stride=1, padding=1)
    return (h * h).mean(), [x, w, w2]


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_weight_matches_inline(seed):
    loss, tensors = _shared_weight_graph(seed)
    _inline_backward(loss)
    want = _grads(tensors)
    loss, tensors = _shared_weight_graph(seed)
    loss.backward()
    assert _grads(tensors) == want
    assert all(g is not None for g in want)


class _FailingBackend(FastNumpyBackend):
    name = "failing-grad-weight"

    def conv2d_grad_weight_from_input(self, *args):
        raise FloatingPointError("weight gradient failed")


def test_worker_exception_comes_out_of_backward():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    with use_backend(_FailingBackend()):
        loss = F.conv2d(x, w, padding=1).sum()
    with pytest.raises(FloatingPointError, match="weight gradient failed"):
        loss.backward()
    # The failure leaves no pending state behind: the next backward works.
    x.zero_grad()
    loss = F.conv2d(x, w, padding=1).sum()
    loss.backward()
    assert w.grad is not None and x.grad is not None


class _SlowBackend(FastNumpyBackend):
    name = "slow-grad-weight"

    def conv2d_grad_weight_from_input(self, *args):
        time.sleep(0.02)
        return super().conv2d_grad_weight_from_input(*args)


def _model_loss(seed):
    model = simple_cnn(num_classes=4, input_size=12, channels=4, seed=seed)
    model.train()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 3, 12, 12)).astype(np.float32)
    y = rng.integers(0, 4, size=6)
    return model, F.cross_entropy(model(Tensor(x)), y)


def _bit_gradient_inputs(model):
    return [_bits(layer.weight_bit_gradient_inputs()[0]) for layer in model.quantizable_layers().values()]


def test_quantized_weight_grads_are_ready_when_backward_returns():
    model, loss = _model_loss(3)
    _inline_backward(loss)
    want = _bit_gradient_inputs(model)
    want_params = _grads(model.parameters())
    with use_backend(_SlowBackend()):
        model, loss = _model_loss(3)
    loss.backward()
    assert _bit_gradient_inputs(model) == want
    assert _grads(model.parameters()) == want_params


def test_threads_run_backward_at_once():
    """More backward() callers than cores share the one gradient thread."""
    seeds = [5, 6, 7]
    want = {}
    for seed in seeds:
        model, loss = _model_loss(seed)
        _inline_backward(loss)
        want[seed] = _grads(model.parameters())
    barrier = threading.Barrier(len(seeds))
    got, errors = {}, []

    def run(seed):
        try:
            results = []
            for _ in range(5):
                model, loss = _model_loss(seed)
                barrier.wait()
                loss.backward()
                results.append(_grads(model.parameters()))
            got[seed] = results
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for seed in seeds:
        assert got[seed] == [want[seed]] * 5


def test_closure_called_directly_computes_inline():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    out = F.conv2d(x, w, padding=1)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    out._backward(grad)
    assert w.grad is not None and x.grad is not None
    backend = get_backend()
    cols, _ = backend.im2col(x.data, (3, 3), (1, 1), (1, 1))
    want = backend.conv2d_grad_weight(grad.reshape(2, 4, 36), cols)
    assert _bits(w.grad) == _bits(want.reshape(w.shape))
