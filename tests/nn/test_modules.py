"""Module system: registration, traversal, modes, state dicts, layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tensor,
)
from repro.nn import init


class TestModuleTraversal:
    def _small_net(self):
        return Sequential(
            Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            BatchNorm2d(4),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(4 * 4 * 4, 5, rng=np.random.default_rng(1)),
        )

    def test_named_parameters_unique_names(self):
        net = self._small_net()
        names = [name for name, _ in net.named_parameters()]
        assert len(names) == len(set(names))
        assert any("weight" in name for name in names)

    def test_parameters_deduplicates_shared_modules(self):
        shared = Linear(3, 3, rng=np.random.default_rng(0))
        net = Sequential(shared, shared)
        assert len(net.parameters()) == 2  # weight + bias counted once

    def test_num_parameters_counts_scalars(self):
        layer = Linear(10, 4, rng=np.random.default_rng(0))
        assert layer.num_parameters() == 10 * 4 + 4

    def test_modules_iterates_children_recursively(self):
        net = self._small_net()
        kinds = {type(m).__name__ for m in net.modules()}
        assert {"Sequential", "Conv2d", "BatchNorm2d", "ReLU"}.issubset(kinds)

    def test_train_eval_propagates(self):
        net = self._small_net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        net = self._small_net()
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip_restores_weights_and_buffers(self):
        net1 = Sequential(Conv2d(1, 2, 3, rng=np.random.default_rng(0)), BatchNorm2d(2))
        net2 = Sequential(Conv2d(1, 2, 3, rng=np.random.default_rng(5)), BatchNorm2d(2))
        # Touch the batch-norm running stats so they differ from defaults.
        x = Tensor(np.random.default_rng(1).standard_normal((4, 1, 6, 6)).astype(np.float32))
        net1(x)
        state = net1.state_dict()
        net2.load_state_dict(state)
        np.testing.assert_allclose(net2[0].weight.data, net1[0].weight.data)
        np.testing.assert_allclose(net2[1].running_mean, net1[1].running_mean)

    def test_load_rejects_shape_mismatch(self):
        src = Linear(3, 2, rng=np.random.default_rng(0))
        dst = Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            dst.load_state_dict(src.state_dict())

    def test_load_rejects_unknown_key(self):
        dst = Linear(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            dst.load_state_dict({"nonexistent": np.zeros(3)})


class TestLayers:
    def test_conv2d_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        x = Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert conv(x).shape == (2, 8, 8, 8)

    def test_conv2d_without_bias(self):
        conv = Conv2d(1, 1, 3, bias=False, rng=np.random.default_rng(0))
        assert conv.bias is None

    def test_linear_output_shape(self):
        layer = Linear(12, 7, rng=np.random.default_rng(0))
        assert layer(Tensor(np.zeros((5, 12), dtype=np.float32))).shape == (5, 7)

    def test_batchnorm_has_buffers(self):
        bn = BatchNorm2d(6)
        assert bn.running_mean.shape == (6,)
        assert bn.running_var.shape == (6,)

    def test_relu_and_identity(self):
        x = Tensor(np.array([-1.0, 2.0], dtype=np.float32))
        np.testing.assert_allclose(ReLU()(x).data, [0.0, 2.0])
        assert Identity()(x) is x

    def test_pooling_modules(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        assert MaxPool2d(2)(x).shape == (1, 1, 2, 2)
        assert AvgPool2d(2)(x).shape == (1, 1, 2, 2)
        assert GlobalAvgPool2d()(x).shape == (1, 1)

    def test_flatten_module(self):
        x = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))
        assert Flatten()(x).shape == (2, 48)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.5)

    def test_dropout_eval_identity(self):
        drop = Dropout(0.9, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(np.ones(10, dtype=np.float32))
        np.testing.assert_allclose(drop(x).data, np.ones(10))

    def test_sequential_indexing_and_append(self):
        net = Sequential(ReLU())
        net.append(Identity())
        assert len(net) == 2
        assert isinstance(net[1], Identity)

    def test_repr_contains_layer_summaries(self):
        net = Sequential(Conv2d(1, 2, 3, rng=np.random.default_rng(0)), ReLU())
        text = repr(net)
        assert "Conv2d" in text and "ReLU" in text


class TestInit:
    def test_fan_calculation(self):
        assert init.calculate_fan((8, 4, 3, 3)) == (36, 72)
        assert init.calculate_fan((10, 20)) == (20, 10)
        with pytest.raises(ValueError):
            init.calculate_fan((5,))

    def test_kaiming_normal_std(self, rng):
        shape = (256, 128, 3, 3)
        weights = init.kaiming_normal(shape, rng)
        expected_std = np.sqrt(2.0 / (128 * 9))
        assert weights.std() == pytest.approx(expected_std, rel=0.05)

    def test_kaiming_uniform_bound(self, rng):
        shape = (64, 32)
        weights = init.kaiming_uniform(shape, rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 32)
        assert np.abs(weights).max() <= bound + 1e-6

    def test_constant_helpers(self):
        np.testing.assert_allclose(init.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(init.ones((2,)), np.ones(2))
