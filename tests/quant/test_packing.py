"""Packed code planes: bitwise pack/unpack round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import pack_codes, packable_bits, unpack_codes
from repro.quant.qmodules import QConv2d


def _random_codes(rng, rows: int, fan_in: int, bits: int) -> np.ndarray:
    qmax = 1 if bits == 2 else 2 ** (bits - 1) - 1
    return rng.integers(-qmax, qmax + 1, size=(rows, fan_in)).astype(np.float32)


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("rows,fan_in", [(4, 16), (3, 7), (5, 13), (1, 1)])
    def test_bitwise_round_trip(self, rng, bits, rows, fan_in):
        # Odd channel counts and fan-ins exercise the sub-byte padding path.
        codes = _random_codes(rng, rows, fan_in, bits)
        packed = pack_codes(codes, bits)
        assert packed.rows == rows
        np.testing.assert_array_equal(unpack_codes(packed), codes)

    @pytest.mark.parametrize("bits", [2, 4])
    def test_extreme_codes_survive(self, bits):
        qmax = 1 if bits == 2 else 2 ** (bits - 1) - 1
        codes = np.array([[-qmax, 0, qmax, -qmax, qmax]], dtype=np.float32)
        np.testing.assert_array_equal(unpack_codes(pack_codes(codes, bits)), codes)

    def test_packing_compresses_subbyte_widths(self, rng):
        codes = _random_codes(rng, 8, 64, 2)
        packed = pack_codes(codes, 2)
        # 2-bit codes: four per byte.
        assert packed.nbytes <= codes.shape[0] * ((codes.shape[1] + 3) // 4)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([[2.0]], dtype=np.float32), 2)
        with pytest.raises(ValueError):
            pack_codes(np.array([[-8.0]], dtype=np.float32), 4)

    def test_unpackable_bits(self):
        assert packable_bits(2) and packable_bits(8)
        assert not packable_bits(16)
        with pytest.raises(ValueError):
            pack_codes(np.zeros((1, 1), dtype=np.float32), 16)

    @pytest.mark.parametrize("bits", [2, 4])
    def test_layer_codes_round_trip(self, rng, bits):
        conv = QConv2d(3, 5, 3, bits=bits, rng=rng)
        _, info = conv.quantized_weight()
        packed = pack_codes(info.codes, conv.bits)
        np.testing.assert_array_equal(
            unpack_codes(packed), info.codes.reshape(info.codes.shape[0], -1)
        )

    def test_mixed_bits_from_parity_generator(self):
        # The randomized serving-parity generator assigns random per-layer
        # bits (2/3/4/8): every packable layer must round-trip bitwise.
        from tests.serve.parity import random_quantized_model

        checked = 0
        for seed in range(3):
            model, _ = random_quantized_model(seed)
            for layer in model.quantizable_layers().values():
                if not packable_bits(layer.bits):
                    continue
                _, info = layer.quantized_weight()
                packed = pack_codes(info.codes, layer.bits)
                np.testing.assert_array_equal(
                    unpack_codes(packed), info.codes.reshape(info.codes.shape[0], -1)
                )
                checked += 1
        assert checked > 0
