"""Bound plan execution: schedules bound once per shape, then replayed.

An optimized plan binds its steps on the first run at an input shape and
replays the bound numpy calls afterwards.  Its buffers are views of one
arena whose slabs are sized for the largest batch the plan has run and
shared between steps whose values are never live together.  These tests
pin what that must never change: every replay is bitwise-equal to a
freshly traced plan after any model change the engine's staleness token
sees; once warmed at a batch, every smaller batch binds without allocating
and serves the bits of a fresh plan; channel-major column borders stay
zero when the batch size changes; no two values live at one step share
memory; a steady-state run allocates nothing but the returned logits; and
the observed loop (profiler, health tap) replays the very same calls.  The
file name puts them in CI's reference-backend parity leg
(``REPRO_BACKEND=numpy ... -k parity``).
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from repro.backend import get_backend
from repro.models import resnet18
from repro.nn import SGD, Tensor
from repro.obs import QuantHealthTap
from repro.serve import InferenceEngine, InferencePlan
from repro.serve.plan import (
    _ConcatStep,
    _FusedConvStep,
    _JoinStep,
    _LoadStep,
    _OutputsStep,
    _SaveStep,
)

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
        # The largest batch first: a run above the arena's capacity grows
        # the slabs and drops every schedule, which is not what this pins.
        batches = [rng.standard_normal((n, *shape)).astype(np.float32) for n in (3, 1, 2)]
        for batch in batches + batches:
            plan.run(batch)
        assert _counts(plan, start) == (3, 3)
        plan.refresh()
        for batch in batches:
            plan.run(batch)
        assert _counts(plan, start) == (6, 3)


def _model(which, rng):
    """ResNet18-w0.125 (its BatchNorm statistics set by one training
    forward) or a parity-generator model, with its per-sample shape."""
    if which != "resnet18":
        return random_quantized_model(which)
    model = resnet18(num_classes=10, width_multiplier=0.125, input_size=32, seed=0)
    model(Tensor(rng.standard_normal((8, 3, 32, 32)).astype(np.float32)))
    model.eval()
    return model, (3, 32, 32)


class TestBatchIndependentArena:
    @pytest.mark.parametrize("mode", ["float", "integer"])
    @pytest.mark.parametrize("which", ["resnet18"] + list(range(12)))
    def test_every_batch_up_to_the_warmed_one_binds_without_allocating(self, which, mode, rng):
        model, shape = _model(which, rng)
        engine = InferenceEngine(model, mode=mode, batch_size=64).warmup(input_shape=shape)
        stats = engine.plan_report()["plan"]["workspace"]
        assert stats["capacity"] == 64 and stats["slabs"] > 0
        assert 0 < stats["live_megabytes"] <= stats["megabytes"]
        sizes = range(1, 65)
        batches = {n: rng.standard_normal((n, *shape)).astype(np.float32) for n in sizes}
        # A fresh plan, run at rising batch sizes, lays its arena out anew
        # for every one of them.
        fresh = InferencePlan.trace(model, shape, mode=mode)
        want = {n: fresh.run(batches[n]) for n in sizes}
        for n in sizes:
            got = engine.predict_logits(batches[n])
            assert engine.plan_report()["steady_state_allocations"] == 0, f"batch {n} allocated"
            _assert_same_bits(got, want[n], f"batch {n}")
        total = engine.plan.workspace.total_allocations
        start = _counts(engine.plan)
        for _ in range(2):
            for n in sizes:
                engine.predict_logits(batches[n])
        assert engine.plan.workspace.total_allocations == total
        assert _counts(engine.plan, start) == (0, 128)  # every shape stayed bound

    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_channel_major_borders_stay_clean_across_batch_sizes(self, mode, rng):
        """A column block's prefix changes layout with the batch; the
        border a smaller batch reads must not hold a larger batch's data."""
        model, shape = _model("resnet18", rng)
        plan = InferencePlan.trace(model, shape, mode=mode)
        channel_major_3x3 = [
            step for step in plan.steps
            if isinstance(step, _FusedConvStep) and step.channel_major and step.kernel == (3, 3)
        ]
        assert channel_major_3x3
        for n in (9, 2, 9, 1, 33, 2):
            x = rng.standard_normal((n, *shape)).astype(np.float32)
            want = InferencePlan.trace(model, shape, mode=mode).run(x)
            _assert_same_bits(plan.run(x), want, f"batch {n}")

    @pytest.mark.parametrize("which", ["resnet18", 1, 2, 5, 15, 23])
    def test_no_two_live_values_share_memory(self, which, rng):
        # Seeds 1, 2, 5, 15 and 23 between them have add, mul and concat
        # joins, channel slices, flattens and two-output heads.
        model, shape = _model(which, rng)
        plan = InferencePlan.trace(model, shape)
        plan.run(np.zeros((64, *shape), dtype=np.float32))
        for n in (64, 5, 1):
            plan.run(rng.standard_normal((n, *shape)).astype(np.float32))
            schedule = plan._schedules[((n, *shape), np.dtype(np.float32), get_backend())]
            _assert_no_live_aliasing(schedule, f"{which} at batch {n}")

    def test_batch_64_arena_holds_little_more_than_its_unshared_blocks(self, rng, monkeypatch):
        if get_backend().name != "fast":
            pytest.skip("the reference figures are the fast backend's")
        # The default layout split (7 channel-major convs), not a calibrated one.
        monkeypatch.setattr(get_backend(), "_calibrated_batched_max_fan_in", None)
        model, shape = _model("resnet18", rng)
        plan = InferencePlan.trace(model, shape)
        plan.run(np.zeros((64, *shape), dtype=np.float32))
        stats = plan.workspace.stats()
        # One buffer per role and shape took 46.75 MiB at batch 64.  Half of
        # that is out of reach: the zero-bordered column blocks, which share
        # with nothing, are 18.84 MiB, and at layer1's residual block three
        # 2 MiB activations are live at once.
        assert stats["megabytes"] <= 0.55 * 46.75
        assert stats["live_megabytes"] <= 9.5


def _arena_buffer(array):
    """The arena buffer ``array`` views, or ``None``: every buffer a bind
    hands out is its own base array over a slab."""
    while isinstance(array, np.ndarray):
        if isinstance(array.base, memoryview):
            return array
        array = array.base
    return None


def _arena_buffers(obj, found: dict) -> dict:
    """Every arena buffer a value, or a call's arguments, reads or writes."""
    if isinstance(obj, np.ndarray):
        buffer = _arena_buffer(obj)
        if buffer is not None:
            found[id(buffer)] = buffer
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _arena_buffers(item, found)
    elif isinstance(obj, dict):
        _arena_buffers(tuple(obj.values()), found)
    elif isinstance(obj, functools.partial):
        _arena_buffers((obj.args, tuple(obj.keywords.values())), found)
    return found


def _slot_uses(step):
    """(slot, pop) for each saved value ``step`` reads."""
    if isinstance(step, (_LoadStep, _JoinStep)):
        return [(step.slot, step.pop)]
    if isinstance(step, _ConcatStep):
        return [(slot, pop) for slot, pop, _ in step.parts if slot is not None]
    if isinstance(step, _OutputsStep):
        return [(slot, pop) for _, slot, pop, _ in step.entries if slot is not None]
    return []


def _assert_no_live_aliasing(schedule, label: str) -> None:
    """At every step, the live activation, the step's output, the saved
    slots and the step's own scratch occupy disjoint memory."""
    slots = {}
    for step, inputs, out, calls in schedule.steps:
        values = _arena_buffers((inputs, out, tuple(slots.values())), {})
        scratch = _arena_buffers(tuple(args for _, args in calls), {})
        scratch.update(_arena_buffers(tuple(fn for fn, _ in calls), {}))
        live = list({**scratch, **values}.values())
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                assert not np.may_share_memory(a, b), f"{label}: step {step.key} aliases"
        if isinstance(step, _SaveStep):
            slots[step.slot] = inputs
        for slot, pop in _slot_uses(step):
            if pop:
                del slots[slot]
    assert not slots


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
