"""Model-level checks of the fused BatchNorm->PACT node and gradient hand-over.

* Training through ``model.forward`` (fused sites) is bitwise the training
  of a test-local forward that composes the modules one by one.
* No two tensors of a backward share gradient memory, so handing a fresh
  array over instead of copying it never aliases one gradient to another,
  and every gradient is contiguous, as a copy made it.
* The gradient NBG reads (``last_quantized_weight.grad``) is not touched by
  later accumulation into the shadow weights or by the optimizer step.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.bit_gradients import layer_nbg_from_grad
from repro.models import build_model
from repro.nn import SGD, Tensor
from repro.nn import functional as F


def _composed_resnet_forward(model, x):
    x = model.stem_act(model.stem_bn(model.stem(x)))
    for block in model.stages:
        identity = x
        out = block.act1(block.bn1(block.conv1(x)))
        out = block.bn2(block.conv2(out))
        if block.downsample is not None:
            identity = block.downsample_bn(block.downsample(x))
        x = block.act_out(out + identity)
    return model.classifier(model.pool(x))


def _composed_vgg_forward(model, x):
    for block in model.blocks:
        x = block(x)
    x = model.fc1_act(model.fc1(x.flatten(1)))
    x = model.fc2_act(model.fc2(x))
    return model.classifier(x)


CASES = {
    "resnet18": (
        dict(num_classes=10, width_multiplier=0.125, input_size=32),
        _composed_resnet_forward,
        32,
    ),
    "vgg11": (
        dict(num_classes=10, width_multiplier=0.125, input_size=16),
        _composed_vgg_forward,
        16,
    ),
}


def _model(name, seed=3):
    kwargs, _, _ = CASES[name]
    model = build_model(name, seed=seed, **kwargs)
    free = [n for n, layer in model.quantizable_layers().items() if not layer.pinned]
    model.apply_assignment({n: (4 if i % 2 == 0 else 2) for i, n in enumerate(free)})
    model.train()
    return model


def _batches(size, steps=3, batch=8):
    rng = np.random.default_rng(11)
    for _ in range(steps):
        x = (rng.standard_normal((batch, 3, size, size)) * 2).astype(np.float32)
        yield x, rng.integers(0, 10, batch)


def _train(model, forward, size):
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    trace = []
    for x, y in _batches(size):
        optimizer.zero_grad()
        loss = F.cross_entropy(forward(model, Tensor(x)), y)
        loss.backward()
        trace.append(loss.data.tobytes())
        trace.extend(
            layer.last_quantized_weight.grad.tobytes()
            for layer in model.quantizable_layers().values()
        )
        optimizer.step()
    return trace, {key: value.tobytes() for key, value in model.state_dict().items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_is_bitwise_the_composed_forward(name):
    _, composed_forward, size = CASES[name]
    fused_trace, fused_state = _train(_model(name), lambda m, x: m(x), size)
    composed_trace, composed_state = _train(_model(name), composed_forward, size)
    assert fused_trace == composed_trace
    # Parameters, BN running statistics and PACT alphas are all state.
    assert any(key.endswith(".alpha") for key in fused_state)
    assert any(key.endswith("running_var") for key in fused_state)
    assert fused_state == composed_state


def _graph(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _assert_no_shared_grads(tensors):
    unique = {id(t): t for t in tensors}.values()
    grads = [t.grad for t in unique if t.grad is not None]
    assert grads
    for a, b in itertools.combinations(grads, 2):
        if np.may_share_memory(a, b):
            assert not np.shares_memory(a, b)


def test_resnet_backward_shares_no_gradient_memory():
    model = _model("resnet18")
    x, y = next(_batches(32))
    loss = F.cross_entropy(model(Tensor(x)), y)
    nodes = _graph(loss)
    # Keep every non-leaf gradient past the graph's release, to compare them.
    for node in nodes:
        node.retain_grad()
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())
    _assert_no_shared_grads(nodes + list(model.parameters()))
    # Padded convs hand over a view of a larger buffer; it is copied.
    assert all(t.grad.flags.c_contiguous for t in nodes if t.grad is not None)


def test_add_fan_out_and_deferred_queue_share_no_gradient_memory():
    """``add`` hands one gradient to both parents; a conv weight gradient is
    deferred and an inline gradient queues behind it into the same tensor."""
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 3, 3)).astype(np.float32), requires_grad=True)
    a = F.conv2d(x, w, padding=1)
    b = x * w.sum()  # reaches w inline, after the conv deferred its gradient
    c = a + b
    root = (c + a).relu().sum()
    nodes = _graph(root)
    for node in nodes:
        node.retain_grad()
    root.backward()
    _assert_no_shared_grads(nodes + [x, w, a, b, c])


def test_nbg_input_survives_accumulation_and_optimizer_step():
    model = _model("resnet18")
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    x, y = next(_batches(32))
    F.cross_entropy(model(Tensor(x)), y).backward()
    layers = model.quantizable_layers()
    held = {name: layer.last_quantized_weight.grad for name, layer in layers.items()}
    saved = {name: grad.copy() for name, grad in held.items()}
    nbg = {name: layer_nbg_from_grad(grad, layers[name].last_quant_info.scale, 7)
           for name, grad in saved.items()}

    for layer in layers.values():
        layer.weight._accumulate(np.ones_like(layer.weight.data))
    optimizer.step()

    for name, layer in layers.items():
        assert layer.last_quantized_weight.grad is held[name]
        assert held[name].tobytes() == saved[name].tobytes()
        grad, _codes, scale = layer.weight_bit_gradient_inputs()
        assert layer_nbg_from_grad(grad, scale, 7) == nbg[name]
