"""Model-health probes: quant taps, shadow executor, drift, integration."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.obs.health import (
    DriftDetector,
    ModelHealth,
    QuantHealthTap,
    ShadowExecutor,
    primary_logits,
)
from repro.serve import InferenceEngine, ModelServer

from tests.serve.parity import random_quantized_model


class _FakeStep:
    """Duck-typed plan step: the attributes the tap actually reads."""

    def __init__(self, key="s0", alpha=2.0, step=0.5, scale=None, w=None):
        self.key = key
        self._alpha = alpha
        self._step = step
        self._scale = scale
        self._w = w


class TestQuantHealthTap:
    def test_sampling_is_deterministic(self):
        tap = QuantHealthTap(sample_every=4, seed=0)
        decisions = [tap.begin_run() for _ in range(12)]
        assert decisions == [True, False, False, False] * 3
        assert tap.snapshot()["runs"] == 12
        assert tap.snapshot()["sampled_runs"] == 3

    def test_seed_shifts_the_sampled_phase(self):
        tap = QuantHealthTap(sample_every=4, seed=2)
        assert [tap.begin_run() for _ in range(4)] == [False, False, True, False]

    def test_rejects_nonpositive_sample_every(self):
        with pytest.raises(ValueError, match="sample_every"):
            QuantHealthTap(sample_every=0)

    def test_clip_zero_and_occupancy_math(self):
        # alpha=2.0, step=0.5: the staircase tops out at 2.0 and the
        # saturation boundary is alpha - step/2 = 1.75.
        tap = QuantHealthTap(sample_every=1)
        tap.begin_run()
        out = np.array([0.0, 0.0, 0.5, 1.0, 1.75, 2.0, 2.0, 1.5], dtype=np.float32)
        tap.observe(_FakeStep(), np.ones((1, 4), dtype=np.float32), out)
        (layer,) = tap.snapshot()["layers"]
        assert layer["clip_ratio"] == pytest.approx(3 / 8)  # 1.75, 2.0, 2.0
        assert layer["zero_ratio"] == pytest.approx(2 / 8)
        assert layer["occupancy"] == pytest.approx(out.sum() / (8 * 2.0))
        assert layer["alpha"] == 2.0
        assert layer["headroom_bits"] is None  # float-mode step: no scale

    def test_steps_without_activation_are_skipped(self):
        tap = QuantHealthTap(sample_every=1)
        tap.begin_run()

        class _PlainStep:
            key = "s0"

        tap.observe(_PlainStep(), np.ones(4), np.ones(4, dtype=np.float32))
        assert tap.snapshot()["layers"] == []

    def test_headroom_from_weight_codes_and_input_magnitude(self):
        # Integer step: |W| row sums max = 6, max |input| = 4 -> peak 24.
        w = np.array([[1.0, -2.0, 3.0], [1.0, 1.0, 1.0]], dtype=np.float32)
        step = _FakeStep(scale=0.1, w=w)
        tap = QuantHealthTap(sample_every=1)
        tap.begin_run()
        inputs = np.array([[4.0, -1.0, 0.0]], dtype=np.float32)
        out = np.array([[0.5, 1.0]], dtype=np.float32)
        tap.observe(step, inputs, out)
        (layer,) = tap.snapshot()["layers"]
        assert layer["headroom_bits"] == pytest.approx(31 - np.log2(24.0), abs=1e-3)

    def test_headroom_accumulates_the_minimum(self):
        w = np.ones((1, 2), dtype=np.float32)
        step = _FakeStep(scale=0.1, w=w)
        tap = QuantHealthTap(sample_every=1)
        for peak_input in (1.0, 8.0, 2.0):
            tap.begin_run()
            tap.observe(
                step,
                np.full((1, 2), peak_input, dtype=np.float32),
                np.ones((1, 1), dtype=np.float32),
            )
        (layer,) = tap.snapshot()["layers"]
        assert layer["headroom_bits"] == pytest.approx(31 - np.log2(16.0), abs=1e-3)

    def test_reset_clears_everything(self):
        tap = QuantHealthTap(sample_every=1)
        tap.begin_run()
        tap.observe(_FakeStep(), np.ones(2), np.ones(2, dtype=np.float32))
        tap.reset()
        snap = tap.snapshot()
        assert snap["runs"] == 0 and snap["layers"] == []


class TestShadowExecutor:
    def test_divergence_and_agreement(self):
        served = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        reference = np.array([[1.25, 0.0], [1.0, 0.0]], dtype=np.float32)
        shadow = ShadowExecutor(lambda batch: reference, sample_every=1)
        assert shadow.maybe_shadow(np.zeros((2, 3)), served)
        snap = shadow.snapshot()
        assert snap["samples_compared"] == 2
        assert snap["top1_agreement"] == pytest.approx(0.5)
        assert snap["divergence_max"] == pytest.approx(1.0)
        assert snap["divergence_mean"] == pytest.approx((0.25 + 1.0) / 2)

    def test_sampling_counter_skips_batches(self):
        calls = []
        shadow = ShadowExecutor(lambda b: (calls.append(1), b)[-1], sample_every=3)
        ran = [shadow.maybe_shadow(np.zeros((1, 2)), np.zeros((1, 2))) for _ in range(9)]
        assert ran == [True, False, False] * 3
        assert len(calls) == 3
        assert shadow.snapshot()["batches_seen"] == 9
        assert shadow.snapshot()["batches_shadowed"] == 3

    def test_multi_output_uses_primary_logits(self):
        served = {"logits": np.array([[2.0, 0.0]]), "aux": np.array([[9.0, 9.0]])}
        shadow = ShadowExecutor(lambda b: {"logits": np.array([[2.0, 0.0]])})
        assert shadow.maybe_shadow(np.zeros((1, 2)), served)
        assert shadow.snapshot()["divergence_max"] == 0.0


class TestDriftDetector:
    @staticmethod
    def _one_hot(classes, num_classes=4, scale=5.0):
        logits = np.zeros((len(classes), num_classes))
        logits[np.arange(len(classes)), classes] = scale
        return logits

    def test_stationary_stream_scores_near_zero(self):
        rng = np.random.default_rng(0)
        drift = DriftDetector(reference_size=64, window=64)
        drift.observe(self._one_hot(rng.integers(0, 4, size=128)))
        assert drift.score() < 0.05

    def test_distribution_shift_scores_high(self):
        rng = np.random.default_rng(0)
        drift = DriftDetector(reference_size=64, window=64)
        drift.observe(self._one_hot(rng.integers(0, 4, size=64)))  # reference
        drift.observe(self._one_hot(np.zeros(64, dtype=int)))  # collapsed live
        assert drift.score() > 0.2  # conventional "actionable" PSI

    def test_score_is_deterministic_for_one_stream(self):
        def run():
            rng = np.random.default_rng(7)
            drift = DriftDetector(reference_size=32, window=32)
            for _ in range(6):
                drift.observe(self._one_hot(rng.integers(0, 4, size=16)))
            return drift.score()

        assert run() == run()

    def test_empty_and_reference_only_states_score_zero(self):
        drift = DriftDetector(reference_size=8, window=8)
        assert drift.score() == 0.0
        drift.observe(self._one_hot([0, 1, 2, 3]))
        assert drift.score() == 0.0  # still filling the reference window
        snap = drift.snapshot()
        assert snap["observations"] == 4 and snap["live_size"] == 0

    def test_entropy_windows_reported(self):
        drift = DriftDetector(reference_size=4, window=4)
        drift.observe(self._one_hot([0, 1, 2, 3], scale=10.0))  # confident ref
        drift.observe(np.zeros((4, 4)))  # uniform live: max entropy
        snap = drift.snapshot()
        assert snap["live_entropy"] > snap["reference_entropy"]
        assert snap["live_entropy"] == pytest.approx(np.log(4), abs=1e-3)


class TestPrimaryLogits:
    def test_plain_array_passthrough(self):
        x = np.ones((2, 3))
        assert primary_logits(x) is x

    def test_dict_prefers_logits_slot(self):
        out = {"aux": np.zeros(2), "logits": np.ones(2)}
        assert primary_logits(out) is out["logits"]


class TestEngineTapIntegration:
    def test_tapped_integer_engine_is_bitwise_identical(self, rng):
        model, shape = random_quantized_model(seed=3)
        x = rng.standard_normal((8, *shape)).astype(np.float32)
        want = InferenceEngine(model, mode="integer").predict_logits(x)

        engine = InferenceEngine(model, mode="integer")
        tap = QuantHealthTap(sample_every=1)
        engine.enable_health_tap(tap)
        got = engine.predict_logits(x)

        want_map = want if isinstance(want, dict) else {"": want}
        got_map = got if isinstance(got, dict) else {"": got}
        for slot in want_map:
            np.testing.assert_array_equal(got_map[slot], want_map[slot])
        snap = tap.snapshot()
        assert snap["sampled_runs"] >= 1
        assert snap["layers"], "no PACT layers observed"
        # Integer mode: at least one GEMM step reports accumulator headroom.
        assert any(l["headroom_bits"] is not None for l in snap["layers"])

    def test_detaching_the_tap_restores_the_plain_loop(self, rng):
        model, shape = random_quantized_model(seed=4)
        x = rng.standard_normal((2, *shape)).astype(np.float32)
        engine = InferenceEngine(model)
        tap = QuantHealthTap(sample_every=1)
        engine.enable_health_tap(tap)
        engine.predict_logits(x)
        runs_before = tap.snapshot()["runs"]
        assert runs_before >= 1
        engine.enable_health_tap(None)
        engine.predict_logits(x)
        assert tap.snapshot()["runs"] == runs_before


    def test_tap_and_step_profiling_observe_every_run(self, rng):
        # Regression: step profiling used to take over run() and silently
        # skip the tap, which then recorded no runs and no layers.
        model, shape = random_quantized_model(seed=4)
        x = rng.standard_normal((2, *shape)).astype(np.float32)
        want = InferenceEngine(model).predict_logits(x)

        engine = InferenceEngine(model)
        tap = QuantHealthTap(sample_every=1)
        engine.enable_health_tap(tap)
        engine.enable_step_profiling()
        runs = 3
        for _ in range(runs):
            got = engine.predict_logits(x)
            want_map = want if isinstance(want, dict) else {"": want}
            got_map = got if isinstance(got, dict) else {"": got}
            for slot in want_map:
                np.testing.assert_array_equal(got_map[slot], want_map[slot])
        snap = tap.snapshot()
        assert snap["runs"] == snap["sampled_runs"] == runs
        assert snap["layers"], "no PACT layers observed"
        timings = engine.plan.step_timings()
        assert all(entry["calls"] == runs for entry in timings)

    def test_step_time_excludes_observer_work(self, rng):
        class _SlowObserver:
            observed = 0

            def begin_run(self):
                return True

            def observe(self, step, inputs, out, seconds):
                self.observed += 1
                time.sleep(0.02)

        model, shape = random_quantized_model(seed=4)
        engine = InferenceEngine(model)
        engine.enable_step_profiling()
        slow = _SlowObserver()
        engine.enable_health_tap(slow)
        engine.predict_logits(rng.standard_normal((1, *shape)).astype(np.float32))
        timings = engine.plan.step_timings()
        assert slow.observed == len(timings)
        assert all(entry["calls"] == 1 for entry in timings)
        # Every step would read >= 20 ms if the observer's sleep were timed.
        assert all(entry["total_ms"] < 20.0 for entry in timings)


class TestModelServerHealth:
    def test_server_health_observes_batches_and_keeps_logits_exact(self, rng):
        model, shape = random_quantized_model(seed=5)
        x = rng.standard_normal((4, *shape)).astype(np.float32)
        want = InferenceEngine(model).predict_logits(x)

        server = ModelServer(max_batch_size=8, max_delay_ms=1.0)
        server.register("m", model)
        health = server.enable_model_health(
            tap_sample_every=1, shadow_sample_every=1, drift_reference_size=4
        )["m"]
        with server:
            got = server.predict("m", x, timeout=60)
            for _ in range(3):
                server.predict("m", x, timeout=60)
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

        snap = health.snapshot()
        assert snap["quant"]["sampled_runs"] >= 1
        assert snap["shadow"]["batches_shadowed"] >= 1
        # The shadow reference is the float module path of the same model,
        # which in float mode the fused plan tracks to tight tolerance.
        assert snap["shadow"]["divergence_max"] < 1.0
        assert snap["drift"]["observations"] == 16
        targets = server.telemetry_targets()
        assert targets[0]["health"] is health
        assert targets[0]["health_labels"] == {"model": "m"}

    def test_shadow_disabled_with_zero(self, rng):
        model, shape = random_quantized_model(seed=5)
        server = ModelServer()
        server.register("m", model)
        health = server.enable_model_health(shadow_sample_every=0)["m"]
        assert health.shadow is None
        assert health.drift is not None
