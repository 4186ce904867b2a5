"""Edge cases and failure injection for the BMPQ trainer and evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BMPQConfig, BMPQTrainer, evaluate_model
from repro.data import ArrayDataset, DataLoader
from repro.models import simple_cnn


class TestInfeasibleConfiguration:
    def test_budget_below_minimum_rejected_at_construction(
        self, tiny_model, tiny_train_loader, tiny_test_loader
    ):
        config = BMPQConfig(epochs=2, epoch_interval=1, target_average_bits=1.0)
        with pytest.raises(ValueError):
            BMPQTrainer(tiny_model, tiny_train_loader, tiny_test_loader, config)

    def test_missing_budget_rejected(self, tiny_model, tiny_train_loader, tiny_test_loader):
        config = BMPQConfig(
            epochs=2,
            target_average_bits=None,
            target_compression_ratio=None,
            budget_bits=None,
        )
        with pytest.raises(ValueError):
            BMPQTrainer(tiny_model, tiny_train_loader, tiny_test_loader, config)

    def test_invalid_schedule_rejected(self, tiny_model, tiny_train_loader, tiny_test_loader):
        config = BMPQConfig(epochs=2, warmup_epochs=5, target_average_bits=5.0)
        with pytest.raises(ValueError):
            BMPQTrainer(tiny_model, tiny_train_loader, tiny_test_loader, config)


class TestDeterminism:
    def _run(self, seed: int):
        from repro.data import SyntheticImageClassification

        train = DataLoader(
            SyntheticImageClassification(64, num_classes=4, image_size=12, seed=5),
            batch_size=32,
            shuffle=True,
            seed=seed,
        )
        test = DataLoader(
            SyntheticImageClassification(32, num_classes=4, image_size=12, seed=10_005),
            batch_size=32,
        )
        model = simple_cnn(num_classes=4, input_size=12, channels=4, seed=seed)
        config = BMPQConfig(
            epochs=2, epoch_interval=1, learning_rate=0.05, lr_milestones=(5,), target_average_bits=5.0
        )
        return BMPQTrainer(model, train, test, config).train()

    def test_same_seed_same_result(self):
        first = self._run(seed=3)
        second = self._run(seed=3)
        assert first.final_bits_by_layer == second.final_bits_by_layer
        assert first.final_test_accuracy == pytest.approx(second.final_test_accuracy)
        assert [r.train_loss for r in first.history] == pytest.approx(
            [r.train_loss for r in second.history]
        )

    def test_logging_hook_invoked(self, tiny_model, tiny_train_loader, tiny_test_loader):
        messages = []
        config = BMPQConfig(
            epochs=1,
            epoch_interval=1,
            target_average_bits=5.0,
            lr_milestones=(5,),
            log_fn=messages.append,
        )
        BMPQTrainer(tiny_model, tiny_train_loader, tiny_test_loader, config).train()
        assert any("starting BMPQ" in message for message in messages)
        assert any("epoch 0" in message for message in messages)


class TestEvaluation:
    def test_empty_loader_returns_zero(self, tiny_model, tiny_train_dataset):
        empty = ArrayDataset(
            np.zeros((1, 3, 12, 12), dtype=np.float32), np.zeros(1, dtype=np.int64), num_classes=4
        )
        loader = DataLoader(empty, batch_size=4, drop_last=True)  # zero full batches
        loss, accuracy = evaluate_model(tiny_model, loader)
        assert loss == 0.0 and accuracy == 0.0

    def test_model_left_in_training_mode(self, tiny_model, tiny_test_loader):
        tiny_model.train()
        evaluate_model(tiny_model, tiny_test_loader)
        assert tiny_model.training

    def test_eval_mode_model_stays_in_eval_mode(self, tiny_model, tiny_test_loader):
        """Evaluating a served (eval-mode) model must not re-arm BatchNorm updates."""
        from repro.nn import Tensor, no_grad
        from repro.nn.modules import BatchNorm2d

        tiny_model.eval()
        evaluate_model(tiny_model, tiny_test_loader)
        assert not tiny_model.training
        norms = [m for m in tiny_model.modules() if isinstance(m, BatchNorm2d)]
        assert norms
        before = [(m.running_mean.copy(), m.running_var.copy()) for m in norms]
        inputs, _ = next(iter(tiny_test_loader))
        with no_grad():
            tiny_model(Tensor(inputs))
        for m, (mean, var) in zip(norms, before):
            np.testing.assert_array_equal(m.running_mean, mean)
            np.testing.assert_array_equal(m.running_var, var)

    def test_skipping_per_epoch_evaluation(self, tiny_model, tiny_train_loader, tiny_test_loader):
        config = BMPQConfig(
            epochs=2,
            epoch_interval=1,
            target_average_bits=5.0,
            lr_milestones=(5,),
            evaluate_every_epoch=False,
        )
        result = BMPQTrainer(tiny_model, tiny_train_loader, tiny_test_loader, config).train()
        assert result.history[0].test_accuracy is None
        assert result.history[-1].test_accuracy is not None
