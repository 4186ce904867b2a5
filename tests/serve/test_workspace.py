"""Zero-allocation serving: the plan workspace arena and its engine contract."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import InferenceEngine, PlanWorkspace

from .parity import random_quantized_model


class TestPlanWorkspace:
    def test_buffer_identity_is_stable(self):
        ws = PlanWorkspace()
        first = ws.buffer("a", (4, 3), np.float32)
        assert ws.buffer("a", (4, 3), np.float32) is first
        assert ws.total_allocations == 1
        # Same logical key at another shape is a distinct buffer.
        other = ws.buffer("a", (2, 3), np.float32)
        assert other is not first
        assert ws.total_allocations == 2

    def test_begin_run_resets_the_run_counter(self):
        ws = PlanWorkspace()
        ws.buffer("a", (4,), np.float32)
        assert ws.run_allocations == 1
        ws.begin_run()
        assert ws.run_allocations == 0
        ws.buffer("a", (4,), np.float32)
        assert ws.run_allocations == 0  # hit, not a miss

    def test_zero_on_alloc(self):
        ws = PlanWorkspace()
        buf = ws.buffer("z", (3, 3), np.float32, zero_on_alloc=True)
        np.testing.assert_array_equal(buf, np.zeros((3, 3), dtype=np.float32))

    def test_eviction_cap(self):
        ws = PlanWorkspace(max_buffers=2)
        ws.buffer("a", (1,), np.float32)
        ws.buffer("b", (1,), np.float32)
        ws.buffer("c", (1,), np.float32)
        assert ws.num_buffers == 2

    def test_release_lets_go_of_the_oldest_unkept_buffers(self):
        ws = PlanWorkspace()
        for name in "abcd":
            ws.buffer(name, (1,), np.float32)
        kept = ws.run_keys[0]  # "a": the oldest, but kept
        ws.release(2, keep={kept})
        assert ws.num_buffers == 2 and ws.evictions == 2
        ws.begin_run()
        ws.buffer("a", (1,), np.float32)
        ws.buffer("d", (1,), np.float32)
        assert ws.run_allocations == 0  # "a" and "d" stayed
        ws.buffer("b", (1,), np.float32)
        assert ws.run_allocations == 1  # "b" went

    def test_stats_shape(self):
        ws = PlanWorkspace()
        ws.buffer("a", (8,), np.float32)
        stats = ws.stats()
        assert stats["buffers"] == 1
        assert stats["total_allocations"] == 1


class TestZeroAllocationServing:
    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_steady_state_predict_allocates_nothing(self, mode, rng):
        model, shape = random_quantized_model(1)
        engine = InferenceEngine(model, mode=mode, batch_size=16).warmup(input_shape=shape)
        x = rng.standard_normal((16, *shape)).astype(np.float32)
        # Warmup primed the arena at the engine batch size, so even the
        # FIRST predict is allocation-free — the CI-enforced contract.
        engine.predict_logits(x)
        assert engine.plan_report()["steady_state_allocations"] == 0
        engine.predict_logits(x)
        report = engine.plan_report()
        assert report["steady_state_allocations"] == 0
        assert report["plan"]["workspace"]["run_allocations"] == 0
        assert report["plan"]["workspace"]["buffers"] > 0

    def test_returned_logits_are_caller_owned(self, rng):
        model, shape = random_quantized_model(2)
        engine = InferenceEngine(model, batch_size=8).warmup(input_shape=shape)
        x = rng.standard_normal((8, *shape)).astype(np.float32)
        first = engine.predict_logits(x)
        snapshot = first.copy()
        engine.predict_logits(rng.standard_normal((8, *shape)).astype(np.float32))
        # A second run overwrites every arena buffer; the first result must
        # be detached from the arena and survive untouched.
        np.testing.assert_array_equal(first, snapshot)

    def test_ragged_final_batch_reprimes_then_settles(self, rng):
        model, shape = random_quantized_model(4)
        engine = InferenceEngine(model, batch_size=8).warmup(input_shape=shape)
        x = rng.standard_normal((12, *shape)).astype(np.float32)
        engine.predict_logits(x)  # 8 + ragged 4: the 4-batch primes new buffers
        engine.predict_logits(x)  # both shapes now primed
        assert engine.plan_report()["steady_state_allocations"] == 0


class TestConcurrentEngines:
    def test_two_engines_do_not_alias_scratch(self, rng):
        # Regression test for the shared-backend scratch hazard: two engines
        # with identical layer geometry used to race on the backend's im2col
        # scratch buffers.  Per-plan workspaces (and thread-local backend
        # scratch) make concurrent predicts bitwise equal to serial ones.
        model_a, shape = random_quantized_model(5)
        model_b, _ = random_quantized_model(6)
        engine_a = InferenceEngine(model_a, batch_size=8).warmup(input_shape=shape)
        engine_b = InferenceEngine(model_b, batch_size=8).warmup(input_shape=shape)
        x = rng.standard_normal((8, *shape)).astype(np.float32)
        want_a = engine_a.predict_logits(x)
        want_b = engine_b.predict_logits(x)

        barrier = threading.Barrier(2)
        results = {}

        def run(name, engine, rounds=10):
            barrier.wait()
            outs = [engine.predict_logits(x) for _ in range(rounds)]
            results[name] = outs

        threads = [
            threading.Thread(target=run, args=("a", engine_a)),
            threading.Thread(target=run, args=("b", engine_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for out in results["a"]:
            np.testing.assert_array_equal(out, want_a)
        for out in results["b"]:
            np.testing.assert_array_equal(out, want_b)

    def test_one_engine_shared_across_threads_is_serialised(self, rng):
        model, shape = random_quantized_model(7)
        engine = InferenceEngine(model, batch_size=8).warmup(input_shape=shape)
        x = rng.standard_normal((8, *shape)).astype(np.float32)
        want = engine.predict_logits(x)
        barrier = threading.Barrier(4)
        outs = []

        def run():
            barrier.wait()
            for _ in range(5):
                outs.append(engine.predict_logits(x))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for out in outs:
            np.testing.assert_array_equal(out, want)
