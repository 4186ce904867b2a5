"""Integer-domain inference: the integer kernels and the export session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import simple_cnn
from repro.nn import Tensor
from repro.quant import (
    IntegerInferenceSession,
    QConv2d,
    QLinear,
    export_model,
    integer_conv2d,
    integer_linear,
)
from repro.quant.integer_inference import export_layer


class TestIntegerKernels:
    def test_integer_conv_matches_float_quantized_conv(self, rng):
        conv = QConv2d(3, 4, 3, stride=2, padding=1, bias=True, bits=4, rng=rng)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        float_out = conv(Tensor(x)).data
        export = export_layer("conv", conv)
        integer_out = integer_conv2d(x, export)
        np.testing.assert_allclose(integer_out, float_out, rtol=1e-4, atol=1e-5)

    def test_integer_linear_matches_float_quantized_linear(self, rng):
        layer = QLinear(10, 6, bits=2, rng=rng)
        x = rng.standard_normal((5, 10)).astype(np.float32)
        float_out = layer(Tensor(x)).data
        export = export_layer("fc", layer)
        integer_out = integer_linear(x, export)
        np.testing.assert_allclose(integer_out, float_out, rtol=1e-4, atol=1e-5)

    def test_export_codes_are_integers(self, rng):
        conv = QConv2d(2, 2, 3, bits=4, rng=rng)
        export = export_layer("conv", conv)
        assert export.codes.dtype == np.int32
        assert export.storage_bits == conv.num_weight_params * 4

    def test_kind_mismatch_rejected(self, rng):
        conv_export = export_layer("conv", QConv2d(1, 1, 3, bits=4, rng=rng))
        with pytest.raises(ValueError):
            integer_linear(np.zeros((1, 9), dtype=np.float32), conv_export)


class TestIntegerInferenceSession:
    @pytest.fixture
    def model(self, rng):
        model = simple_cnn(num_classes=4, input_size=12, channels=4, seed=0)
        # Populate batch-norm running statistics so eval mode is meaningful.
        model(Tensor(rng.standard_normal((8, 3, 12, 12)).astype(np.float32)))
        model.eval()
        return model

    def test_matches_float_forward(self, model, rng):
        x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        session = IntegerInferenceSession(model)
        integer_logits = session.run(x)
        float_logits = model(Tensor(x)).data
        np.testing.assert_allclose(integer_logits, float_logits, rtol=1e-3, atol=1e-4)

    def test_model_behaviour_restored_after_session(self, model, rng):
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        before = model(Tensor(x)).data
        IntegerInferenceSession(model).run(x)
        after = model(Tensor(x)).data
        np.testing.assert_allclose(after, before, rtol=1e-5)

    def test_predictions_and_storage(self, model, rng):
        x = rng.standard_normal((6, 3, 12, 12)).astype(np.float32)
        session = IntegerInferenceSession(model)
        predictions = session.predict(x)
        assert predictions.shape == (6,)
        assert session.total_storage_bits > 0
        assert session.storage_megabytes() == pytest.approx(session.total_storage_bits / 8 / 2 ** 20)

    def test_storage_tracks_bit_assignment(self, rng):
        model = simple_cnn(num_classes=4, input_size=12, channels=4, seed=0)
        session_4bit = IntegerInferenceSession(model)
        model.apply_assignment({name: (layer.bits if layer.pinned else 2)
                                for name, layer in model.quantizable_layers().items()})
        session_2bit = IntegerInferenceSession(model)
        assert session_2bit.total_storage_bits < session_4bit.total_storage_bits

    def test_exports_cover_all_layers(self, model):
        exports = export_model(model)
        assert set(exports) == set(model.quantizable_layers())


class TestSessionRestoresOnFailure:
    @pytest.fixture
    def model(self, rng):
        model = simple_cnn(num_classes=4, input_size=12, channels=4, seed=0)
        model(Tensor(rng.standard_normal((8, 3, 12, 12)).astype(np.float32)))
        model.eval()
        return model

    def test_training_mode_and_forwards_restored_when_forward_raises(self, model):
        model.train()
        session = IntegerInferenceSession(model)
        original_forwards = {
            name: layer.forward for name, layer in model.quantizable_layers().items()
        }
        # Wrong spatial size makes the first convolution raise mid-run.
        bad_input = np.zeros((2, 4, 12, 12), dtype=np.float32)
        with pytest.raises(ValueError):
            session.run(bad_input)
        assert model.training, "training mode must survive a raising forward"
        for name, layer in model.quantizable_layers().items():
            assert layer.forward == original_forwards[name], name

    def test_second_run_after_failure_still_correct(self, model, rng):
        session = IntegerInferenceSession(model)
        with pytest.raises(ValueError):
            session.run(np.zeros((1, 4, 12, 12), dtype=np.float32))
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        integer_logits = session.run(x)
        float_logits = model(Tensor(x)).data
        np.testing.assert_allclose(integer_logits, float_logits, rtol=1e-3, atol=1e-4)
