"""Bound plan execution: schedules bound once per shape, then replayed.

An optimized plan binds its steps on the first run at an input shape and
replays the bound numpy calls afterwards.  These tests pin what that must
never change: every replay is bitwise-equal to a freshly traced plan after
any model change the engine's staleness token sees, arena evictions never
leave a schedule holding a buffer the arena let go, a steady-state run
allocates nothing but the returned logits, and the observed loop (profiler,
health tap) replays the very same calls.  The file name puts them in CI's
reference-backend parity leg (``REPRO_BACKEND=numpy ... -k parity``).
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.backend import get_backend
from repro.models import resnet18
from repro.nn import SGD, Tensor
from repro.obs import QuantHealthTap
from repro.serve import InferenceEngine, InferencePlan, PlanWorkspace

from .parity import random_quantized_model


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _assert_same_bits(got, want, label: str) -> None:
    """Bitwise equality of two plan results (arrays, or dicts of them)."""
    for name in got if isinstance(got, dict) else [None]:
        g = got if name is None else got[name]
        w = want if name is None else want[name]
        assert _bits(g) == _bits(w), f"{label} ({name})"


def _fresh_logits(model, shape, mode, x):
    """What a plan traced from scratch on the model's current state serves."""
    plan = InferencePlan.trace(model, shape, mode=mode)
    return plan.run(x)


def _counts(plan, since=(0, 0)):
    """(binds, replays) of ``plan`` since the counts ``since``."""
    report = plan.describe()
    return report["binds"] - since[0], report["replays"] - since[1]


def _lower_bits(model):
    layers = model.quantizable_layers()
    model.apply_assignment(
        {name: (layer.bits if layer.pinned else 2) for name, layer in layers.items()}
    )


def _set_one_layer_bits(model):
    layer = next(layer for layer in model.quantizable_layers().values() if not layer.pinned)
    layer.set_bits(3 if layer.bits != 3 else 4)


def _sgd_step(model, shape, rng):
    model.eval()  # gradients flow; BatchNorm statistics stay put
    out = model(Tensor(rng.standard_normal((4, *shape)).astype(np.float32)))
    logits = out if isinstance(out, Tensor) else next(iter(out.values()))
    logits.sum().backward()
    SGD(model.parameters(), lr=0.5).step()
    model.zero_grad()


def _bn_training_forward(model, shape, rng):
    model.train()
    model(Tensor(3.0 * rng.standard_normal((8, *shape)).astype(np.float32)))
    model.eval()


CHANGES = {
    "apply_assignment": lambda model, shape, rng: _lower_bits(model),
    "set_bits": lambda model, shape, rng: _set_one_layer_bits(model),
    "sgd_step": _sgd_step,
    "bn_training_forward": _bn_training_forward,
}


class TestReplayAfterModelChanges:
    @pytest.mark.parametrize("mode", ["float", "integer"])
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_replay_matches_a_fresh_trace(self, change, mode, rng):
        model, shape = random_quantized_model(3)
        engine = InferenceEngine(model, mode=mode, batch_size=4)
        x = rng.standard_normal((4, *shape)).astype(np.float32)
        before = engine.predict_logits(x)  # binds the batch-4 schedule
        engine.predict_logits(x[:1])  # and a batch-1 one
        CHANGES[change](model, shape, rng)
        model.eval()
        for batch in (x, x[:1]):
            got = engine.predict_logits(batch)
            want = _fresh_logits(model, shape, mode, batch)
            for name in (want if isinstance(want, dict) else [None]):
                g = got if name is None else got[name]
                w = want if name is None else want[name]
                assert _bits(g) == _bits(w), f"{change}: stale bound schedule ({name})"
        changed = engine.predict_logits(x)
        first = before if not isinstance(before, dict) else next(iter(before.values()))
        now = changed if not isinstance(changed, dict) else next(iter(changed.values()))
        assert not np.array_equal(first, now), f"{change} did not change the logits"

    def test_refresh_drops_every_schedule(self, rng):
        model, shape = random_quantized_model(2)
        plan = InferencePlan.trace(model, shape)
        plan.refresh()  # drop what the trace's own verification bound
        start = _counts(plan)
        batches = [rng.standard_normal((n, *shape)).astype(np.float32) for n in (1, 2, 3)]
        for batch in batches + batches:
            plan.run(batch)
        assert _counts(plan, start) == (3, 3)
        plan.refresh()
        for batch in batches:
            plan.run(batch)
        assert _counts(plan, start) == (6, 3)


class _TrackingWorkspace(PlanWorkspace):
    """A small arena that remembers (weakly) every buffer it hands out."""

    def __init__(self, max_buffers: int) -> None:
        super().__init__(max_buffers=max_buffers)
        self.handed_out = []

    def buffer(self, key, shape, dtype, zero_on_alloc=False):
        buf = super().buffer(key, shape, dtype, zero_on_alloc=zero_on_alloc)
        self.handed_out.append(weakref.ref(buf))
        return buf


class TestEvictionDropsSchedules:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_small_arena_cycling_batch_sizes(self, seed, rng):
        model, shape = random_quantized_model(seed)
        reference = InferencePlan.trace(model, shape)
        plan = InferencePlan.trace(model, shape)
        # Room for a few batch shapes, not nine: binds keep evicting.
        per_shape = reference.workspace.num_buffers
        ws = plan._workspace = _TrackingWorkspace(max_buffers=max(8, per_shape + per_shape // 2))
        batches = {n: rng.standard_normal((n, *shape)).astype(np.float32) for n in range(1, 10)}
        want = {n: reference.run(batch) for n, batch in batches.items()}
        start = _counts(plan)
        for _ in range(2):
            for n, batch in batches.items():
                _assert_same_bits(plan.run(batch), want[n], f"batch {n}")
                gc.collect()
                resident = {id(buf) for buf in ws._buffers.values()}
                leaked = sum(
                    1 for ref in ws.handed_out if ref() is not None and id(ref()) not in resident
                )
                assert leaked == 0, "a bound schedule keeps an evicted arena buffer alive"
        assert ws.evictions > 0
        binds, replays = _counts(plan, start)
        assert binds + replays == 18
        assert binds > 9  # evictions forced rebinds

    def test_hot_shape_stays_bound_while_cold_shapes_cycle(self, rng):
        """A full arena evicts the least recently used schedule, not all."""
        model, shape = random_quantized_model(2)
        reference = InferencePlan.trace(model, shape)
        plan = InferencePlan.trace(model, shape)
        per_shape = reference.workspace.num_buffers
        # Room for two batch shapes, not three.
        ws = plan._workspace = _TrackingWorkspace(max_buffers=2 * per_shape + per_shape // 2)
        plan.refresh()  # drop the schedules the trace bound on the old arena
        sizes = [1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1]
        batches = {n: rng.standard_normal((n, *shape)).astype(np.float32) for n in set(sizes)}
        start = _counts(plan)
        for n in sizes:
            _assert_same_bits(plan.run(batches[n]), reference.run(batches[n]), f"batch {n}")
        gc.collect()
        resident = {id(buf) for buf in ws._buffers.values()}
        assert not [ref for ref in ws.handed_out if ref() is not None and id(ref()) not in resident]
        assert ws.evictions > 0
        # Batch 1 bound once; each cold shape once, evicting the one before.
        assert _counts(plan, start) == (6, 5)

    def test_clear_drops_schedules_and_rebinds(self, rng):
        model, shape = random_quantized_model(1)
        plan = InferencePlan.trace(model, shape)
        x = rng.standard_normal((3, *shape)).astype(np.float32)
        want = plan.run(x)
        start = _counts(plan)
        plan.workspace.clear()
        got = plan.run(x)
        assert plan.workspace.run_allocations > 0  # it bound again, from scratch
        np.testing.assert_array_equal(got, want)
        plan.run(x)
        assert plan.workspace.run_allocations == 0
        # The bind after the clear evicted nothing, so it was kept.
        assert _counts(plan, start) == (1, 1)


class TestSteadyStateReplay:
    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_batch_one_run_allocates_only_the_logits(self, mode, rng):
        if get_backend().name != "fast":
            pytest.skip("the reference backend's kernels allocate by design")
        model = resnet18(num_classes=10, width_multiplier=0.125, input_size=32, seed=0)
        model(Tensor(rng.standard_normal((8, 3, 32, 32)).astype(np.float32)))
        model.eval()
        engine = InferenceEngine(model, mode=mode, batch_size=1).warmup(input_shape=(3, 32, 32))
        plan = engine.plan
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        plan.run(x)
        tracemalloc.start()
        try:
            plan.run(x)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            out = plan.run(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Besides the logits, only numpy's own iterator scratch comes and
        # goes (about 2 KiB, for the pooled mean's float64 divide).  Every
        # conv output here is at least 4 KiB, so a bound call that
        # allocated its result instead of writing into the arena would show.
        assert peak - before <= out.nbytes + 3 * 1024
        assert plan.workspace.run_allocations == 0

    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_observed_replay_is_bitwise_and_times_every_step(self, mode, rng):
        model, shape = random_quantized_model(6)
        engine = InferenceEngine(model, mode=mode, batch_size=8)
        x = rng.standard_normal((5, *shape)).astype(np.float32)
        hot = engine.predict_logits(x)
        tap = QuantHealthTap()
        engine.enable_health_tap(tap)
        engine.enable_step_profiling()
        observed = [engine.predict_logits(x) for _ in range(2)]
        engine.enable_health_tap(None)
        engine.enable_step_profiling(False)
        again = engine.predict_logits(x)
        for got in observed + [again]:
            for name in (hot if isinstance(hot, dict) else [None]):
                g = got if name is None else got[name]
                w = hot if name is None else hot[name]
                assert _bits(g) == _bits(w)
        engine.enable_step_profiling()
        timings = engine.plan_report()["step_timings"]
        assert len(timings) == len(engine.plan.steps)
        assert all(entry["calls"] == 2 for entry in timings)
        assert tap.snapshot()["layers"], "the tap saw no PACT step"
