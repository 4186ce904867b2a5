"""Loss wrapper, accuracy metric and small end-to-end training convergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    CrossEntropyLoss,
    Flatten,
    Linear,
    ReLU,
    SGD,
    Sequential,
    Tensor,
    accuracy,
)


class TestLossWrappers:
    def test_cross_entropy_matches_uniform_prediction(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = CrossEntropyLoss()(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-5)

    def test_label_smoothing_validation(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(label_smoothing=1.5)

    def test_accuracy_metric(self):
        logits = Tensor(np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]], dtype=np.float32))
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2.0 / 3.0)


class TestTrainingConvergence:
    def _blobs(self, rng, n_per_class=60, dim=10):
        x0 = rng.standard_normal((n_per_class, dim)) + 2.0
        x1 = rng.standard_normal((n_per_class, dim)) - 2.0
        x = np.concatenate([x0, x1]).astype(np.float32)
        y = np.array([0] * n_per_class + [1] * n_per_class)
        return x, y

    def test_mlp_learns_linearly_separable_blobs(self, rng):
        x, y = self._blobs(rng)
        model = Sequential(
            Linear(10, 16, rng=rng), ReLU(), Linear(16, 2, rng=rng)
        )
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        criterion = CrossEntropyLoss()
        first_loss = None
        for _step in range(40):
            optimizer.zero_grad()
            logits = model(Tensor(x))
            loss = criterion(logits, y)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        final_loss = loss.item()
        assert final_loss < first_loss * 0.1
        assert accuracy(model(Tensor(x)), y) == pytest.approx(1.0)

    def test_weight_decay_shrinks_unused_weights(self, rng):
        x, y = self._blobs(rng, n_per_class=30)
        model = Sequential(Linear(10, 2, rng=rng))
        optimizer = SGD(model.parameters(), lr=0.05, weight_decay=0.5)
        criterion = CrossEntropyLoss()
        initial_norm = float(np.abs(model[0].weight.data).sum())
        for _step in range(50):
            optimizer.zero_grad()
            criterion(model(Tensor(x)), y).backward()
            optimizer.step()
        # Heavy decay keeps the weight norm from exploding.
        assert float(np.abs(model[0].weight.data).sum()) < initial_norm * 5.0

    def test_training_is_deterministic_given_seed(self):
        def run() -> float:
            rng = np.random.default_rng(0)
            x, y = self._blobs(rng)
            model = Sequential(Linear(10, 4, rng=np.random.default_rng(1)), ReLU(), Linear(4, 2, rng=np.random.default_rng(2)))
            optimizer = SGD(model.parameters(), lr=0.1)
            criterion = CrossEntropyLoss()
            for _ in range(5):
                optimizer.zero_grad()
                loss = criterion(model(Tensor(x)), y)
                loss.backward()
                optimizer.step()
            return loss.item()

        assert run() == pytest.approx(run(), rel=0.0, abs=0.0)
