"""The SGD optimizer and the multi-step learning-rate schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MultiStepLR, SGD, Tensor


def make_param(value=1.0, size=3):
    return Tensor(np.full(size, value, dtype=np.float32), requires_grad=True)


class TestSGD:
    def test_plain_sgd_step(self):
        param = make_param(1.0)
        param.grad = np.full(3, 0.5, dtype=np.float32)
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, np.full(3, 0.95), rtol=1e-6)

    def test_momentum_accumulates_velocity(self):
        param = make_param(0.0)
        optimizer = SGD([param], lr=1.0, momentum=0.9)
        param.grad = np.ones(3, dtype=np.float32)
        optimizer.step()
        np.testing.assert_allclose(param.data, -np.ones(3))
        param.grad = np.ones(3, dtype=np.float32)
        optimizer.step()
        # Velocity: 1, then 1.9 -> total displacement 2.9.
        np.testing.assert_allclose(param.data, -np.full(3, 2.9), rtol=1e-6)

    def test_weight_decay_adds_l2_gradient(self):
        param = make_param(2.0)
        param.grad = np.zeros(3, dtype=np.float32)
        SGD([param], lr=0.5, weight_decay=0.1).step()
        np.testing.assert_allclose(param.data, np.full(3, 2.0 - 0.5 * 0.2), rtol=1e-6)

    def test_nesterov_differs_from_plain_momentum(self):
        plain_param = make_param(0.0)
        nesterov_param = make_param(0.0)
        plain = SGD([plain_param], lr=1.0, momentum=0.9)
        nesterov = SGD([nesterov_param], lr=1.0, momentum=0.9, nesterov=True)
        for optimizer, param in ((plain, plain_param), (nesterov, nesterov_param)):
            param.grad = np.ones(3, dtype=np.float32)
            optimizer.step()
        assert not np.allclose(plain_param.data, nesterov_param.data)

    def test_skips_parameters_without_gradient(self):
        param = make_param(1.0)
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, np.ones(3))

    def test_zero_grad(self):
        param = make_param()
        param.grad = np.ones(3, dtype=np.float32)
        optimizer = SGD([param], lr=0.1)
        optimizer.zero_grad()
        assert param.grad is None

    def test_state_dict_roundtrip(self):
        param = make_param()
        optimizer = SGD([param], lr=0.1, momentum=0.9)
        param.grad = np.ones(3, dtype=np.float32)
        optimizer.step()
        state = optimizer.state_dict()
        other = SGD([make_param()], lr=0.5, momentum=0.9)
        other.load_state_dict(state)
        assert other.lr == pytest.approx(0.1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([make_param()], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.1, momentum=-0.5)
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.1, nesterov=True)


class TestSchedules:
    def test_multistep_matches_paper_recipe(self):
        optimizer = SGD([make_param()], lr=0.1)
        schedule = MultiStepLR(optimizer, milestones=(80, 140), gamma=0.1)
        assert schedule.step(0) == pytest.approx(0.1)
        assert schedule.step(79) == pytest.approx(0.1)
        assert schedule.step(80) == pytest.approx(0.01)
        assert schedule.step(139) == pytest.approx(0.01)
        assert schedule.step(140) == pytest.approx(0.001)
        assert optimizer.lr == pytest.approx(0.001)

    def test_step_without_epoch_advances(self):
        optimizer = SGD([make_param()], lr=1.0)
        schedule = MultiStepLR(optimizer, milestones=(1,), gamma=0.5)
        first = schedule.step()
        second = schedule.step()
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(0.5)
