"""Zero-allocation serving: the plan workspace arena and its engine contract."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import InferenceEngine, PlanWorkspace

from .parity import random_quantized_model


def _bind(ws, n, roles, width=3):
    """One recorded bind: each ``(key, first, last)`` role at batch ``n``,
    requested at step ``first`` and marked live up to step ``last``."""
    ws.begin_bind(n)
    views = {}
    for step in range(max(last for _, _, last in roles) + 1):
        for key, first, last in roles:
            if first == step:
                views[key] = ws.buffer(key, (n, width), np.float32)
            if key in views and first <= step <= last:
                ws.touch(views[key])
        ws.next_step()
    return views, ws.end_bind()


class TestPlanWorkspace:
    def test_buffer_identity_is_stable(self):
        ws = PlanWorkspace()
        roles = [("a", 0, 0)]
        _, fits = _bind(ws, 4, roles)
        assert not fits  # nothing laid out yet: the bind read stand-ins
        ws.allocate()
        first, fits = _bind(ws, 4, roles)
        again, _ = _bind(ws, 4, roles)
        assert fits
        assert again["a"].ctypes.data == first["a"].ctypes.data
        # A smaller batch views a prefix of the same slab.
        smaller, fits = _bind(ws, 2, roles)
        assert fits and smaller["a"].ctypes.data == first["a"].ctypes.data
        assert smaller["a"].shape == (2, 3) and smaller["a"].flags.c_contiguous
        assert ws.total_allocations == 1

    def test_begin_run_resets_the_run_counter(self):
        ws = PlanWorkspace()
        _bind(ws, 4, [("a", 0, 0)])
        ws.allocate()
        assert ws.run_allocations == 1
        ws.begin_run()
        assert ws.run_allocations == 0
        _bind(ws, 4, [("a", 0, 0)])
        assert ws.run_allocations == 0  # a view of the slab, not an allocation

    def test_zero_on_alloc(self):
        # A batch-leading block is a prefix of a slab zeroed at allocation.
        ws = PlanWorkspace()
        calls = []
        for n in (4, 4, 2):
            ws.begin_bind(n)
            buf = ws.zeroed("z", (n, 3), np.float32, 0, calls)
            if not ws.end_bind():
                ws.allocate()
            else:
                np.testing.assert_array_equal(buf, np.zeros((n, 3), dtype=np.float32))
        assert calls == []

    def test_channel_major_block_is_rezeroed_when_its_shape_changes(self):
        # A (2, n) block with the batch last: row 0 is the interior the
        # fill writes, row 1 the border.  At n=2 the border sits where the
        # n=4 interior was, so only the re-zero call keeps it clean.
        ws = PlanWorkspace()

        def bind(n):
            calls = []
            ws.begin_bind(n)
            buf = ws.zeroed("cm", (2, n), np.float32, 1, calls)
            return buf, calls, ws.end_bind()

        bind(4)
        ws.allocate()
        big, big_calls, fits = bind(4)
        small, small_calls, _ = bind(2)
        assert fits and len(big_calls) == len(small_calls) == 1

        def run(buf, calls):
            for fn, args in calls:
                fn(*args)
            buf[0] = 7.0

        for buf, calls in ((big, big_calls), (small, small_calls), (big, big_calls)):
            run(buf, calls)
            assert (buf[1] == 0).all(), "a dirty border survived the shape change"
        # Same shape again: the guard leaves the block alone.
        big[1, 0] = 5.0
        run(big, big_calls)
        assert big[1, 0] == 5.0

    def test_roles_share_a_slab_only_when_their_lifetimes_miss(self):
        ws = PlanWorkspace()
        roles = [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)]
        _bind(ws, 2, roles)
        ws.allocate()
        views, fits = _bind(ws, 2, roles)
        assert fits and ws.num_slabs == 2
        a, b, c = (views[key] for key in "abc")
        assert np.shares_memory(a, c)  # live at steps 0-1 and 2-3
        assert not np.shares_memory(a, b) and not np.shares_memory(b, c)
        assert ws.live_nbytes == 2 * a.nbytes

    def test_a_longer_lifetime_does_not_fit(self):
        ws = PlanWorkspace()
        _bind(ws, 2, [("a", 0, 1), ("c", 2, 3)])
        ws.allocate()
        assert ws.num_slabs == 1
        _, fits = _bind(ws, 2, [("a", 0, 2), ("c", 2, 3)])
        assert not fits  # "a" now overlaps "c": the layout must change
        ws.allocate()
        assert ws.num_slabs == 2

    def test_stats_shape(self):
        ws = PlanWorkspace()
        _bind(ws, 8, [("a", 0, 0)])
        ws.allocate()
        stats = ws.stats()
        assert stats["slabs"] == 1
        assert stats["capacity"] == 8
        assert stats["megabytes"] == stats["live_megabytes"] == round(8 * 3 * 4 / 2**20, 3)
        assert stats["total_allocations"] == 1


class TestZeroAllocationServing:
    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_steady_state_predict_allocates_nothing(self, mode, rng):
        model, shape = random_quantized_model(1)
        engine = InferenceEngine(model, mode=mode, batch_size=16).warmup(input_shape=shape)
        x = rng.standard_normal((16, *shape)).astype(np.float32)
        # Warmup sized the arena for the engine batch size, so even the
        # FIRST predict is allocation-free — the CI-enforced contract.
        engine.predict_logits(x)
        assert engine.plan_report()["steady_state_allocations"] == 0
        engine.predict_logits(x)
        report = engine.plan_report()
        assert report["steady_state_allocations"] == 0
        assert report["plan"]["workspace"]["run_allocations"] == 0
        assert report["plan"]["workspace"]["slabs"] > 0

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
        engine.predict_logits(x)  # 8 + ragged 4: the 4-batch binds views
        engine.predict_logits(x)  # both shapes now bound
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
