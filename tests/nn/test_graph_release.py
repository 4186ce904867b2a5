"""``Tensor.backward()`` releases the graph as it walks it.

Once a node's closure has run, the node drops its closure, its parents and,
unless ``retain_grad()`` marked it, its ``.grad``; leaves keep theirs.  The
quantized layers mark ``last_quantized_weight``, whose gradient NBG reads.
A second backward through a released graph raises.  The reference for the
bits is the unreleased pass: every closure called in reverse topological
order (``_inline_backward``), as ``backward()`` computed before it
released anything.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.models import build_model
from repro.nn import SGD, Tensor
from repro.nn import functional as F

from ..models.test_fused_training import _graph
from .test_deferred_grads import _bits, _inline_backward, _model_loss


def _slow_weight_grads():
    """The active backend, with every conv weight gradient slowed down.

    The gradient thread then still holds each weight gradient when the
    input-gradient chain reaches its target, so every target is held back.
    """

    class Slow(type(get_backend())):
        name = "slow-grad-weight"

        def conv2d_grad_weight_from_input(self, *args):
            time.sleep(0.01)
            return super().conv2d_grad_weight_from_input(*args)

    return Slow()


def _assert_released(nodes, model):
    leaves = [node for node in nodes if node._backward is None]
    non_leaves = [node for node in nodes if node._backward is not None]
    assert leaves and non_leaves
    retained = {id(layer.last_quantized_weight) for layer in model.quantizable_layers().values()}
    for node in non_leaves:
        assert node._parents == ()
        if id(node) in retained:
            assert node.retains_grad and node.grad is not None
        else:
            assert node.grad is None
    assert all(p.grad is not None for p in model.parameters())


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    assert _bits(x.grad) == _bits(2 * x.data)
    with pytest.raises(RuntimeError, match="already released"):
        loss.backward()


def test_backward_into_a_released_subgraph_raises():
    x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
    hidden = x * 3.0
    hidden.sum().backward()
    with pytest.raises(RuntimeError, match="already released"):
        (hidden * hidden).sum().backward()
    # A fresh graph from the same leaf still trains.
    x.zero_grad()
    (x * 3.0).sum().backward()
    assert _bits(x.grad) == _bits(np.full(6, 3.0, dtype=np.float32))


def test_released_non_leaves_keep_no_grad():
    model, loss = _model_loss(1)
    nodes = _graph(loss)
    loss.backward()
    _assert_released(nodes, model)
    for layer in model.quantizable_layers().values():
        grad, _codes, _scale = layer.weight_bit_gradient_inputs()
        assert grad is layer.last_quantized_weight.grad


def test_retain_grad_keeps_a_non_leaf_gradient():
    x = Tensor(np.arange(1, 7, dtype=np.float32), requires_grad=True)
    hidden = x * 2.0
    hidden.retain_grad()
    other = x * 5.0
    (hidden * other).sum().backward()
    assert _bits(hidden.grad) == _bits(other.data)
    assert other.grad is None
    assert hidden._parents == () and other._parents == ()


def test_held_back_nodes_release_and_match_the_unreleased_pass():
    model, loss = _model_loss(4)
    _inline_backward(loss)
    want = [_bits(p.grad) for p in model.parameters()]
    want += [_bits(layer.weight_bit_gradient_inputs()[0]) for layer in model.quantizable_layers().values()]

    with use_backend(_slow_weight_grads()):
        model, loss = _model_loss(4)
    nodes = _graph(loss)
    loss.backward()
    got = [_bits(p.grad) for p in model.parameters()]
    got += [_bits(layer.weight_bit_gradient_inputs()[0]) for layer in model.quantizable_layers().values()]
    assert got == want
    _assert_released(nodes, model)


def test_held_back_non_leaf_weight_releases_its_gradient():
    """A conv whose weight is itself a non-leaf defers into that node."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    w0 = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    with use_backend(_slow_weight_grads()):
        w = w0 * 0.5
        loss = F.conv2d(x, w, padding=1).sum()
    loss.backward()
    assert w.grad is None and w._parents == ()
    assert w0.grad is not None and x.grad is not None


def _resnet_nbg_inputs(backward, steps=2):
    model = build_model("resnet18", num_classes=10, width_multiplier=0.125, input_size=32, seed=5)
    model.train()
    layers = model.quantizable_layers()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    rng = np.random.default_rng(9)
    trace = []
    for _ in range(steps):
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, size=4)
        optimizer.zero_grad()
        loss = F.cross_entropy(model(Tensor(x)), y)
        backward(loss)
        trace.append(_bits(loss.data))
        trace.extend(_bits(layer.weight_bit_gradient_inputs()[0]) for layer in layers.values())
        optimizer.step()
    trace.extend(_bits(p.data) for p in model.parameters())
    return trace


def test_resnet_bit_gradient_inputs_match_the_unreleased_pass():
    assert _resnet_nbg_inputs(Tensor.backward) == _resnet_nbg_inputs(_inline_backward)
