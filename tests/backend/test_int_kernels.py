"""Integer GEMM kernel parity (fast backend vs float64 reference) and the
channel-major threshold controls."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.backend.fast_numpy import FastNumpyBackend


@pytest.fixture
def conv_case(rng):
    x = rng.standard_normal((3, 4, 9, 9)).astype(np.float32)
    codes = rng.integers(-7, 8, size=(6, 4, 3, 3)).astype(np.float32)
    return x, codes


class TestIntConv2d:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (0, 0)), ((2, 2), (1, 1))])
    def test_fast_matches_reference(self, conv_case, stride, padding):
        x, codes = conv_case
        w_mat = codes.reshape(6, -1)
        with use_backend("numpy"):
            want = get_backend().int_conv2d(x, w_mat, (3, 3), stride, padding, scale=0.05)
        with use_backend("fast"):
            got = get_backend().int_conv2d(x, w_mat, (3, 3), stride, padding, scale=0.05)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_per_channel_scale_and_bias(self, conv_case, rng):
        x, codes = conv_case
        w_mat = codes.reshape(6, -1)
        scale = rng.standard_normal(6).astype(np.float32) * 0.1
        bias = rng.standard_normal(6).astype(np.float32)
        with use_backend("numpy"):
            want = get_backend().int_conv2d(x, w_mat, (3, 3), (1, 1), (1, 1), scale=scale, bias=bias)
        with use_backend("fast"):
            got = get_backend().int_conv2d(x, w_mat, (3, 3), (1, 1), (1, 1), scale=scale, bias=bias)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_scale_distributes_out_of_accumulation(self, conv_case):
        # codes ⊛ x then * S must equal (codes * S) ⊛ x to round-off (Eq. 3-5).
        x, codes = conv_case
        backend = get_backend()
        w_mat = codes.reshape(6, -1)
        scaled = backend.int_conv2d(x, w_mat, (3, 3), (1, 1), (1, 1), scale=0.05)
        prescaled = backend.int_conv2d(x, w_mat * 0.05, (3, 3), (1, 1), (1, 1))
        np.testing.assert_allclose(scaled, prescaled, rtol=1e-4, atol=1e-5)


class TestIntConv2dChannelMajor:
    @pytest.mark.parametrize("backend_name", ["fast", "numpy"])
    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (1, 1))])
    def test_matches_batch_major(self, conv_case, backend_name, stride, padding, rng):
        x, codes = conv_case
        w_mat = codes.reshape(6, -1)
        bias = rng.standard_normal(6).astype(np.float32)
        with use_backend(backend_name):
            backend = get_backend()
            want = backend.int_conv2d(x, w_mat, (3, 3), stride, padding, scale=0.05, bias=bias)
            got_cm = backend.int_conv2d_cm(
                np.ascontiguousarray(x.transpose(1, 0, 2, 3)),
                w_mat, (3, 3), stride, padding, scale=0.05, bias=bias,
            )
        np.testing.assert_allclose(got_cm.transpose(1, 0, 2, 3), want, rtol=1e-5, atol=1e-5)

    def test_accepts_transposed_view_input(self, conv_case):
        # The compiled plan feeds a lazy transpose view on the first conv.
        x, codes = conv_case
        backend = get_backend()
        w_mat = codes.reshape(6, -1)
        from_view = backend.int_conv2d_cm(x.transpose(1, 0, 2, 3), w_mat, (3, 3), (1, 1), (1, 1))
        from_copy = backend.int_conv2d_cm(
            np.ascontiguousarray(x.transpose(1, 0, 2, 3)), w_mat, (3, 3), (1, 1), (1, 1)
        )
        np.testing.assert_allclose(from_view, from_copy, rtol=1e-6)


class TestIntLinear:
    def test_fast_matches_reference(self, rng):
        x = rng.standard_normal((5, 12)).astype(np.float32)
        codes = rng.integers(-31, 32, size=(7, 12)).astype(np.float32)
        bias = rng.standard_normal(7).astype(np.float32)
        with use_backend("numpy"):
            want = get_backend().int_linear(x, codes, scale=0.01, bias=bias)
        with use_backend("fast"):
            got = get_backend().int_linear(x, codes, scale=0.01, bias=bias)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_16bit_codes_stay_accurate(self, rng):
        # Pinned layers carry codes up to 2^15-1; float32 accumulation must
        # track the float64 reference at relative round-off.
        x = rng.standard_normal((4, 64)).astype(np.float32)
        codes = rng.integers(-32767, 32768, size=(3, 64)).astype(np.float32)
        with use_backend("numpy"):
            want = get_backend().int_linear(x, codes, scale=1e-4)
        with use_backend("fast"):
            got = get_backend().int_linear(x, codes, scale=1e-4)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)


class TestPoolKernels:
    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (3, 2, 9, 9)])
    @pytest.mark.parametrize("kernel,stride", [((2, 2), (2, 2)), ((3, 3), (2, 2))])
    def test_pool_max_matches_windows(self, rng, shape, kernel, stride):
        x = rng.standard_normal(shape).astype(np.float32)
        backend = get_backend()
        want = backend.pool_windows(x, kernel, stride).max(axis=(-1, -2))
        got = backend.pool_max(x, kernel, stride)
        np.testing.assert_array_equal(got, want)

    def test_pool_avg_matches_windows(self, rng):
        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        backend = get_backend()
        want = backend.pool_windows(x, (2, 2), (2, 2)).mean(axis=(-1, -2))
        got = backend.pool_avg(x, (2, 2), (2, 2))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_pool_max_does_not_alias_input(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        out = get_backend().pool_max(x, (1, 1), (1, 1))
        out[...] = 0.0
        assert x.any()


class TestChannelMajorThreshold:
    def test_env_override_wins(self, monkeypatch):
        backend = FastNumpyBackend()
        backend._calibrated_cm_max_positions = 999
        monkeypatch.setenv("REPRO_CM_MAX_POSITIONS", "32")
        assert backend.cm_max_positions == 32
        monkeypatch.setenv("REPRO_CM_MAX_POSITIONS", "bogus")
        with pytest.raises(ValueError):
            _ = backend.cm_max_positions

    def test_calibration_fills_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CM_MAX_POSITIONS", raising=False)
        backend = FastNumpyBackend()
        assert backend.cm_max_positions == FastNumpyBackend._CM_MAX_POSITIONS
        chosen = backend.calibrate_cm_max_positions()
        assert chosen == backend.cm_max_positions
        assert chosen >= 0
        # Second call is a cached no-op unless forced.
        assert backend.calibrate_cm_max_positions() == chosen

    def test_env_pin_skips_calibration(self, monkeypatch):
        monkeypatch.setenv("REPRO_CM_MAX_POSITIONS", "16")
        backend = FastNumpyBackend()
        assert backend.calibrate_cm_max_positions() == 16
        assert backend._calibrated_cm_max_positions is None
