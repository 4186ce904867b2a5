"""Training frees each step's memory once nothing reads it.

* A training step's traced peak stays at the first measured step's: the
  trainers drop ``logits``/``loss`` and ``backward()`` releases the graph,
  so no step's forward runs next to the last step's graph.
* The per-epoch evaluation engine (and its plan arena) lives as long as
  the ``train()`` call that made it.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

import repro.serve
from repro.baselines import FixedAssignmentTrainer, QATConfig
from repro.core import BMPQConfig, BMPQTrainer
from repro.data import DataLoader, SyntheticImageClassification
from repro.models import build_model, simple_cnn

#: Allowed rise of a later step's peak over the first measured step's.
#: Holding the last step's graph through the next forward adds ≈50%.
PEAK_SLACK = 0.10


class _PeakPerStep:
    """Iterates a loader, recording the traced peak of each step it feeds."""

    def __init__(self, loader) -> None:
        self.loader = loader
        self.peaks = []

    def __iter__(self):
        for batch in self.loader:
            tracemalloc.reset_peak()
            yield batch
            self.peaks.append(tracemalloc.get_traced_memory()[1])


def _bmpq(model, train_loader, test_loader):
    config = BMPQConfig(epochs=1, learning_rate=0.05, lr_milestones=(), target_average_bits=4.0)
    return BMPQTrainer(model, train_loader, test_loader, config)


def _qat(model, train_loader, test_loader):
    bits = {name: 4 for name in model.quantizable_layers()}
    return FixedAssignmentTrainer(
        model, train_loader, test_loader, bits, QATConfig(epochs=1, lr_milestones=())
    )


def _epoch(trainer):
    if isinstance(trainer, BMPQTrainer):
        return trainer.train_one_epoch(0)
    return trainer.train_one_epoch()


@pytest.mark.parametrize("make_trainer", [_bmpq, _qat], ids=["bmpq", "qat"])
def test_later_steps_peak_no_higher_than_the_first(make_trainer):
    model = build_model("resnet18", num_classes=10, width_multiplier=0.125, input_size=16, seed=2)
    warmup = SyntheticImageClassification(16, num_classes=10, image_size=16, seed=4)
    data = SyntheticImageClassification(48, num_classes=10, image_size=16, seed=5)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        # A one-step epoch first, so every measured step starts with the
        # backend's scratch buffers, the momentum and the last step's
        # gradients already allocated.  Its graph ends with its epoch.
        trainer = make_trainer(model, DataLoader(warmup, batch_size=16, seed=1), None)
        _epoch(trainer)
        steps = _PeakPerStep(DataLoader(data, batch_size=16, seed=1))
        trainer.train_loader = steps
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        _epoch(trainer)
    finally:
        if not tracing:
            tracemalloc.stop()
    first, *later = [peak - baseline for peak in steps.peaks]
    assert len(later) == 2
    assert max(later) <= first * (1 + PEAK_SLACK), [peak / 2**20 for peak in [first, *later]]


def test_eval_engine_ends_with_the_run(monkeypatch, tiny_train_loader, tiny_test_loader):
    engines = []

    class RecordedEngine(repro.serve.InferenceEngine):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(repro.serve, "InferenceEngine", RecordedEngine)
    model = simple_cnn(num_classes=4, input_size=12, channels=4, seed=0)
    trainer = _bmpq(model, tiny_train_loader, tiny_test_loader)
    result = trainer.train()
    assert result.final_test_accuracy is not None
    assert len(engines) == 1
    # Freed by reference counting alone, as soon as train() returns.
    assert engines[0]() is None
