"""Symmetric uniform and ternary quantizers, STE behaviour, dispatch rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.quant import (
    integer_levels,
    pact,
    quantize_symmetric_array,
    quantize_tensor_for_bits,
    quantize_ternary_ste,
    quantize_weights_ste,
    symmetric_scale,
    ternary_quantize_array,
    ternary_threshold_and_scale,
)


class TestSymmetricQuantizer:
    def test_integer_levels(self):
        assert integer_levels(4) == (-7, 7)
        assert integer_levels(2) == (-1, 1)
        assert integer_levels(8) == (-127, 127)
        with pytest.raises(ValueError):
            integer_levels(1)

    def test_scale_follows_eq3(self, rng):
        weights = rng.standard_normal((64,)).astype(np.float32)
        scale = symmetric_scale(weights, 4)
        assert scale == pytest.approx(np.abs(weights).max() / 7.0, rel=1e-6)

    def test_scale_for_all_zero_tensor(self):
        assert symmetric_scale(np.zeros(10, dtype=np.float32), 4) == pytest.approx(1.0 / 7.0)

    def test_codes_within_range(self, rng):
        weights = rng.standard_normal((200,)).astype(np.float32) * 3.0
        result = quantize_symmetric_array(weights, 4)
        assert result.codes.min() >= -7 and result.codes.max() <= 7
        np.testing.assert_allclose(result.quantized, result.codes * result.scale, rtol=1e-6)

    def test_extreme_value_maps_to_max_code(self, rng):
        weights = rng.standard_normal(50).astype(np.float32)
        weights[0] = np.abs(weights).max() * 2 + 1.0
        result = quantize_symmetric_array(weights, 4)
        assert abs(result.codes[0]) == 7

    def test_quantization_error_bounded_by_half_step(self, rng):
        weights = rng.uniform(-1, 1, size=500).astype(np.float32)
        result = quantize_symmetric_array(weights, 8)
        assert np.abs(result.quantized - weights).max() <= result.scale / 2 + 1e-7

    def test_more_bits_means_lower_error(self, rng):
        weights = rng.standard_normal(1000).astype(np.float32)
        error4 = np.abs(quantize_symmetric_array(weights, 4).quantized - weights).mean()
        error8 = np.abs(quantize_symmetric_array(weights, 8).quantized - weights).mean()
        assert error8 < error4

    @settings(max_examples=40, deadline=None)
    @given(
        weights=hnp.arrays(
            np.float32,
            st.integers(1, 60),
            elements=st.floats(-10, 10, width=32, allow_nan=False),
        ),
        bits=st.integers(2, 8),
    )
    def test_property_codes_are_integers_in_range(self, weights, bits):
        result = quantize_symmetric_array(weights, bits)
        low, high = integer_levels(bits)
        assert np.all(result.codes == np.round(result.codes))
        assert result.codes.min(initial=0) >= low
        assert result.codes.max(initial=0) <= high


class TestTernaryQuantizer:
    def test_threshold_and_scale(self, rng):
        weights = rng.standard_normal(500).astype(np.float32)
        delta, alpha = ternary_threshold_and_scale(weights)
        assert delta == pytest.approx(0.7 * np.abs(weights).mean(), rel=1e-5)
        assert alpha > 0

    def test_output_is_ternary(self, rng):
        weights = rng.standard_normal(300).astype(np.float32)
        result = ternary_quantize_array(weights)
        unique_codes = np.unique(result.codes)
        assert set(unique_codes.tolist()).issubset({-1.0, 0.0, 1.0})

    def test_sign_preserved_for_large_values(self):
        weights = np.array([3.0, -3.0, 0.01, -0.01], dtype=np.float32)
        result = ternary_quantize_array(weights)
        assert result.codes[0] == 1.0 and result.codes[1] == -1.0
        assert result.codes[2] == 0.0 and result.codes[3] == 0.0

    def test_all_zero_weights(self):
        result = ternary_quantize_array(np.zeros(10, dtype=np.float32))
        assert result.scale == 1.0
        np.testing.assert_allclose(result.quantized, 0.0)

    def test_ternary_is_closer_than_naive_sign(self, rng):
        """The Li et al. alpha minimizes L2 distance vs using alpha=1."""
        weights = rng.standard_normal(1000).astype(np.float32)
        result = ternary_quantize_array(weights)
        err_optimal = np.linalg.norm(weights - result.quantized)
        err_naive = np.linalg.norm(weights - np.sign(weights))
        assert err_optimal < err_naive


class TestSTE:
    def test_weight_ste_passes_gradient_unchanged(self, rng):
        shadow = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        quantized, info = quantize_weights_ste(shadow, 4)
        (quantized * 2.0).sum().backward()
        np.testing.assert_allclose(shadow.grad, np.full((4, 4), 2.0))
        assert info.scale > 0

    def test_ternary_ste_passes_gradient_unchanged(self, rng):
        shadow = Tensor(rng.standard_normal((3, 3)).astype(np.float32), requires_grad=True)
        quantized, _info = quantize_ternary_ste(shadow)
        quantized.sum().backward()
        np.testing.assert_allclose(shadow.grad, np.ones((3, 3)))

    def test_quantized_forward_value_is_quantized(self, rng):
        shadow = Tensor(rng.standard_normal(100).astype(np.float32), requires_grad=True)
        quantized, info = quantize_weights_ste(shadow, 3)
        codes = quantized.data / info.scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-5)


class TestDispatch:
    def test_two_bit_uses_ternary(self, rng):
        shadow = Tensor(rng.standard_normal(100).astype(np.float32), requires_grad=True)
        quantized, _ = quantize_tensor_for_bits(shadow, 2)
        assert len(np.unique(quantized.data)) <= 3

    def test_four_bit_uses_uniform(self, rng):
        shadow = Tensor(rng.standard_normal(100).astype(np.float32), requires_grad=True)
        _, info = quantize_tensor_for_bits(shadow, 4)
        assert info.codes.max() <= 7 and info.codes.min() >= -7

    def test_sixteen_bit_near_lossless(self, rng):
        data = rng.standard_normal(100).astype(np.float32)
        shadow = Tensor(data, requires_grad=True)
        quantized, _ = quantize_tensor_for_bits(shadow, 16)
        np.testing.assert_allclose(quantized.data, data, rtol=1e-3, atol=1e-4)

    def test_thirtytwo_bit_is_exact_passthrough(self, rng):
        data = rng.standard_normal(100).astype(np.float32)
        shadow = Tensor(data, requires_grad=True)
        quantized, info = quantize_tensor_for_bits(shadow, 32)
        np.testing.assert_array_equal(quantized.data, data)
        assert info.scale == 1.0


class TestActivationQuantization:
    """Eq. 2 on inputs already inside ``[0, alpha]``, where PACT's clip is a no-op."""

    def test_levels_are_multiples_of_step(self, rng):
        alpha = 2.0
        bits = 3
        x = Tensor(rng.uniform(0, alpha, size=200).astype(np.float32), requires_grad=True)
        out = pact(x, Tensor(np.array([alpha], dtype=np.float32)), bits)
        step = alpha / (2 ** bits - 1)
        np.testing.assert_allclose(out.data / step, np.round(out.data / step), atol=1e-5)

    def test_sixteen_bits_is_identity(self, rng):
        x = Tensor(rng.uniform(0, 1, size=10).astype(np.float32))
        out = pact(x, Tensor(np.array([1.0], dtype=np.float32)), 16)
        assert out.data.tobytes() == x.data.tobytes()

    def test_ste_gradient(self, rng):
        x = Tensor(rng.uniform(0, 1, size=10).astype(np.float32), requires_grad=True)
        pact(x, Tensor(np.array([1.0], dtype=np.float32)), 4).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(10))
