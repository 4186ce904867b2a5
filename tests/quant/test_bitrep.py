"""Two's-complement bit-plane representation (Eq. 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import bit_position_weights, code_range


class TestCodeRange:
    def test_known_ranges(self):
        assert code_range(2) == (-2, 1)
        assert code_range(4) == (-8, 7)
        assert code_range(8) == (-128, 127)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            code_range(0)


class TestBitPositionWeights:
    def test_matches_eq5_ordering(self):
        weights = bit_position_weights(4)
        np.testing.assert_allclose(weights, [-8.0, 4.0, 2.0, 1.0])

    def test_scale_applied(self):
        weights = bit_position_weights(3, scale=0.5)
        np.testing.assert_allclose(weights, [-2.0, 1.0, 0.5])

    def test_single_bit(self):
        np.testing.assert_allclose(bit_position_weights(1), [-1.0])

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            bit_position_weights(0)


class TestTwosComplement:
    def test_eq5_identity_on_quantized_codes(self, rng):
        """w_q/S_w recomposed from its bit planes equals the original code."""
        codes = rng.integers(-7, 8, size=100)
        unsigned = np.where(codes < 0, codes + 16, codes)
        planes = (unsigned[:, None] >> np.arange(3, -1, -1)) & 1  # sign bit first
        weights = bit_position_weights(4)
        recomposed = planes @ weights
        np.testing.assert_allclose(recomposed, codes)
