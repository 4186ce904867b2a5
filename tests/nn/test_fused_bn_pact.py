"""The fused BatchNorm -> [residual add] -> PACT training node, ``bn_pact``.

Every check is bitwise against the module composition ``act(bn(x) [+ r])``
that the node replaces: forward output, every gradient, the running
statistics and the ``stats_version`` bump.  Outside training (eval mode,
``no_grad``) the helper must *be* the composition, so compiled plans trace
the same leaf calls as before.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.models import build_model
from repro.models.gated import GatedAttentionBlock
from repro.models.resnet import BasicBlock
from repro.nn import Tensor
from repro.nn.modules import BatchNorm2d, Module
from repro.nn.tensor import no_grad
from repro.quant.pact import PACT, bn_pact, pact
from repro.serve import InferencePlan
from tests.serve.parity import random_quantized_model


def _bits(array):
    return None if array is None else np.ascontiguousarray(array).tobytes()


def _modules(rng, channels=3, bits=4, alpha=1.5):
    bn = BatchNorm2d(channels)
    bn.weight.data = rng.uniform(0.5, 1.5, channels).astype(np.float32)
    bn.bias.data = rng.uniform(-0.2, 0.6, channels).astype(np.float32)
    bn.running_mean[:] = rng.standard_normal(channels)
    bn.running_var[:] = rng.uniform(0.5, 2.0, channels)
    return bn, PACT(bits=bits, alpha_init=alpha)


def _compose(bn, act, x, residual=None):
    out = bn(x)
    if residual is not None:
        out = out + residual
    return act(out)


def _run(fn, bn, act, x_data, r_data, grad):
    """One forward and backward; every observable as bytes."""
    x = Tensor(x_data.copy(), requires_grad=True)
    r = None if r_data is None else Tensor(r_data.copy(), requires_grad=True)
    out = fn(bn, act, x, r)
    out.backward(grad)
    return {
        "out": _bits(out.data),
        "dx": _bits(x.grad),
        "dgamma": _bits(bn.weight.grad),
        "dbeta": _bits(bn.bias.grad),
        "dalpha": _bits(act.alpha.grad),
        "dresidual": None if r is None else _bits(r.grad),
        "running_mean": _bits(bn.running_mean),
        "running_var": _bits(bn.running_var),
        "stats_version": bn.stats_version,
    }


def _assert_fused_matches_composition(bn, act, x_data, r_data, grad):
    fused_bn, fused_act = copy.deepcopy(bn), copy.deepcopy(act)
    want = _run(_compose, bn, act, x_data, r_data, grad)
    got = _run(bn_pact, fused_bn, fused_act, x_data, r_data, grad)
    assert got == want
    assert got["stats_version"] == 1


@pytest.mark.parametrize("bits", [2, 4, 16])
@pytest.mark.parametrize("with_residual", [False, True])
def test_fused_node_is_bitwise_the_composition(bits, with_residual):
    rng = np.random.default_rng(bits * 10 + with_residual)
    bn, act = _modules(rng, bits=bits)
    x = (rng.standard_normal((4, 3, 5, 6)) * 2 + 0.3).astype(np.float32)
    r = rng.standard_normal(x.shape).astype(np.float32) if with_residual else None
    grad = rng.standard_normal(x.shape).astype(np.float32)
    _assert_fused_matches_composition(bn, act, x, r, grad)


@pytest.mark.parametrize("bits", [2, 4, 16])
@pytest.mark.parametrize("with_residual", [False, True])
def test_fused_node_on_region_edges_and_nan(bits, with_residual):
    """Inputs exactly at 0 and at alpha, and a NaN (counted as inside).

    A zero gamma makes the BatchNorm output exactly beta, so channel 0
    lands on 0 and channel 1 on alpha.  The NaN rides in on the residual,
    or without one on the input, where it poisons its whole channel.
    """
    rng = np.random.default_rng(bits)
    bn, act = _modules(rng, bits=bits, alpha=1.5)
    bn.weight.data[:2] = 0.0
    bn.bias.data[:2] = [0.0, 1.5]
    x = rng.standard_normal((3, 3, 4, 4)).astype(np.float32)
    r = None
    if with_residual:
        r = np.zeros(x.shape, dtype=np.float32)
        r[:, 2] = rng.standard_normal((3, 4, 4))
        r[1, 2, 0, 0] = np.nan
    else:
        x[1, 2, 0, 0] = np.nan
    grad = rng.standard_normal(x.shape).astype(np.float32)
    _assert_fused_matches_composition(bn, act, x, r, grad)


@pytest.mark.parametrize("bits", [2, 4, 16])
def test_region_code_reproduces_the_clip_masks(bits):
    """``pact`` (shared by the fused node) against the clip's mask formulas:
    0 and -0 are inside, alpha is above, a NaN is inside."""
    alpha = 1.5
    values = np.array([-1.0, -0.0, 0.0, 0.7, alpha, 2.0, np.nan], dtype=np.float32)
    grad = np.arange(1, values.size + 1, dtype=np.float32)
    x = Tensor(values.copy(), requires_grad=True)
    a = Tensor(np.array([alpha], dtype=np.float32), requires_grad=True)
    out = pact(x, a, bits)
    out.backward(grad)

    below, above = values < 0.0, values >= alpha
    inside = ~(below | above)
    want = np.clip(values, 0.0, alpha)
    if bits < 16:
        step = alpha / (2 ** bits - 1)
        want = np.round(want / step) * step
    assert _bits(out.data) == _bits(want)
    assert _bits(x.grad) == _bits(grad * inside)
    assert _bits(a.grad) == _bits(np.array([float((grad * above).sum())], dtype=np.float32))


def test_residual_that_is_the_input_sums_in_the_same_order():
    rng = np.random.default_rng(5)
    bn, act = _modules(rng)
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    grad = rng.standard_normal(x.shape).astype(np.float32)

    def run(fn, bn, act):
        t = Tensor(x.copy(), requires_grad=True)
        fn(bn, act, t, t).backward(grad)
        return _bits(t.grad)

    assert run(bn_pact, copy.deepcopy(bn), copy.deepcopy(act)) == run(_compose, bn, act)


def test_callable_residual_runs_after_the_batch_norm():
    rng = np.random.default_rng(6)
    bn, act = _modules(rng)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    r = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    versions = []

    def shortcut():
        versions.append(bn.stats_version)
        return r

    bn_pact(bn, act, x, shortcut).sum().backward()
    assert versions == [1]
    assert r.grad is not None


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_non_positive_alpha_raises_the_same_error(alpha):
    rng = np.random.default_rng(7)
    bn, act = _modules(rng)
    act.alpha.data[:] = alpha
    fused_bn, fused_act = copy.deepcopy(bn), copy.deepcopy(act)
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    with pytest.raises(ValueError) as want:
        _compose(bn, act, Tensor(x, requires_grad=True))
    with pytest.raises(ValueError) as got:
        bn_pact(fused_bn, fused_act, Tensor(x, requires_grad=True))
    assert str(got.value) == str(want.value)
    # The BatchNorm ran first in both, updating its statistics.
    assert _bits(fused_bn.running_var) == _bits(bn.running_var)
    assert fused_bn.stats_version == bn.stats_version == 1


def _spy_calls(module, log):
    original = module.forward

    def forward(*args, **kwargs):
        log.append(type(module).__name__)
        return original(*args, **kwargs)

    module.forward = forward


@pytest.mark.parametrize("mode", ["eval", "no_grad", "record_density"])
def test_helper_composes_the_modules_outside_grad_training(mode):
    rng = np.random.default_rng(8)
    bn, act = _modules(rng)
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    r = rng.standard_normal(x.shape).astype(np.float32)
    want_bn, want_act = copy.deepcopy(bn), copy.deepcopy(act)
    calls = []
    _spy_calls(bn, calls)
    _spy_calls(act, calls)
    for module in (bn, want_bn):
        module.train(mode != "eval")
    for module in (act, want_act):
        module.record_density = mode == "record_density"

    def run(fn, bn, act):
        if mode == "no_grad":
            with no_grad():
                return fn(bn, act, Tensor(x), Tensor(r))
        return fn(bn, act, Tensor(x), Tensor(r))

    got = run(bn_pact, bn, act)
    want = run(_compose, want_bn, want_act)
    assert calls == ["BatchNorm2d", "PACT"]
    assert _bits(got.data) == _bits(want.data)
    assert _bits(bn.running_mean) == _bits(want_bn.running_mean)
    assert bn.stats_version == want_bn.stats_version
    assert act.mean_density == want_act.mean_density


# --------------------------------------------------------------------------- #
# compiled plans trace the same steps as the composed forward
# --------------------------------------------------------------------------- #
def _composed_basic_block(self, x):
    identity = x
    out = self.act1(self.bn1(self.conv1(x)))
    out = self.bn2(self.conv2(out))
    if self.downsample is not None:
        identity = self.downsample_bn(self.downsample(x))
    return self.act_out(out + identity)


def _composed_gated_block(self, x):
    attended = self.value_bn(self.value(x)) * self.gate_act(self.gate(x))
    return self.act_out(self.proj_bn(self.proj(attended)) + x)


def _plan_signature(model, shape):
    plan = InferencePlan.trace(model, shape)
    steps = [
        (type(step).__name__, sorted(
            (name, id(value)) for name, value in vars(step).items() if isinstance(value, Module)
        ))
        for step in plan.steps
    ]
    probe = np.random.default_rng(0).standard_normal((3, *shape)).astype(np.float32)
    result = plan.run(probe)
    outputs = result if isinstance(result, dict) else {"out": result}
    return repr(plan), steps, {name: _bits(value) for name, value in outputs.items()}


def _same_plan_as_composition(model, shape, monkeypatch):
    got = _plan_signature(model, shape)
    with monkeypatch.context() as patch:
        patch.setattr(BasicBlock, "forward", _composed_basic_block)
        patch.setattr(GatedAttentionBlock, "forward", _composed_gated_block)
        want = _plan_signature(model, shape)
    assert got == want


def test_resnet18_plan_traces_the_same_steps(monkeypatch):
    model = build_model("resnet18", num_classes=10, width_multiplier=0.125, input_size=32)
    model.train()
    model(Tensor(np.random.default_rng(1).standard_normal((4, 3, 32, 32)).astype(np.float32)))
    model.eval()
    _same_plan_as_composition(model, (3, 32, 32), monkeypatch)


@pytest.mark.parametrize("seed", range(12))
def test_parity_generator_plans_trace_the_same_steps(seed, monkeypatch):
    model, shape = random_quantized_model(seed)
    _same_plan_as_composition(model, shape, monkeypatch)
