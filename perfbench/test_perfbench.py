"""Tests of the benchmark's pure parts: percentile rules, the ladder and tracing."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import stats, tracer as tracer_module
from perfbench.tracer import Tracer, install


# ---------------------------------------------------------------------- #
# percentile selection
# ---------------------------------------------------------------------- #
def test_p99_needs_ten_samples_beyond_it():
    assert stats.supported_percentile(1000, 99.0) == 99.0
    assert stats.supported_percentile(5000, 99.0) == 99.0
    # 500 samples support at most the 98th percentile (10 samples beyond).
    assert stats.supported_percentile(500, 99.0) == pytest.approx(98.0)
    with pytest.raises(ValueError):
        stats.supported_percentile(10, 99.0)


@pytest.mark.parametrize("count", [11, 100, 999, 1000, 1001, 4321])
def test_reported_tail_leaves_at_least_ten_samples_beyond(count):
    samples = list(np.random.default_rng(count).permutation(count).astype(float))
    summary = stats.latency_summary(samples)
    beyond = sum(1 for value in samples if value > summary["tail"])
    assert beyond >= stats.MIN_BEYOND
    assert summary["tail_p"] <= 99.0
    assert summary["n"] == count


def test_nearest_rank_picks_a_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(samples, 50.0) == 3.0
    assert stats.nearest_rank(samples, 100.0) == 5.0
    assert stats.nearest_rank(samples, 1.0) == 1.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50.0)


# ---------------------------------------------------------------------- #
# the ladder
# ---------------------------------------------------------------------- #
def _rung(rate, tail_ms, backlog=False, failed=0):
    return {"rate": rate, "tail_ms": tail_ms, "backlog_grows": backlog, "failed": failed}


def test_max_rps_at_slo_takes_the_highest_passing_rung():
    rungs = [_rung(600, 40.0), _rung(200, 9.0), _rung(2000, 400.0), _rung(400, 12.0)]
    assert stats.max_rps_at_slo(rungs, slo_ms=100.0)["rate"] == 600


def test_max_rps_at_slo_stops_at_a_growing_backlog():
    rungs = [_rung(200, 9.0), _rung(400, 12.0, backlog=True), _rung(600, 40.0)]
    assert stats.max_rps_at_slo(rungs, slo_ms=100.0)["rate"] == 200


def test_max_rps_at_slo_stops_at_the_first_miss():
    # A higher rung that happens to pass does not count past a miss.
    rungs = [_rung(200, 9.0), _rung(400, 150.0), _rung(600, 40.0)]
    assert stats.max_rps_at_slo(rungs, slo_ms=100.0)["rate"] == 200


def test_max_rps_at_slo_counts_failed_requests_as_misses():
    rungs = [_rung(200, 9.0), _rung(400, 12.0, failed=1)]
    assert stats.max_rps_at_slo(rungs, slo_ms=100.0)["rate"] == 200
    assert stats.max_rps_at_slo([_rung(200, 150.0)], slo_ms=100.0) is None


def test_backlog_growth_rule():
    steady = [5.0, 6.0, 5.5, 5.2] * 50
    assert not stats.backlog_grows(steady, slack_ms=10.0)
    growing = list(np.linspace(5.0, 300.0, 200))
    assert stats.backlog_grows(growing, slack_ms=10.0)
    # Doubling inside the slack is not a backlog.
    assert not stats.backlog_grows([1.0] * 50 + [3.0] * 50, slack_ms=10.0)
    assert not stats.backlog_grows([1.0, 2.0, 3.0], slack_ms=0.0)


# ---------------------------------------------------------------------- #
# arrival schedules
# ---------------------------------------------------------------------- #
def test_arrival_schedule_is_seeded():
    first = stats.arrival_schedule(500, 2000, seed=7)
    again = stats.arrival_schedule(500, 2000, seed=7)
    other = stats.arrival_schedule(500, 2000, seed=8)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0) and first[0] > 0
    assert np.mean(np.diff(first)) == pytest.approx(1 / 500, rel=0.1)


def test_arrival_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        stats.arrival_schedule(0, 10, seed=1)
    with pytest.raises(ValueError):
        stats.arrival_schedule(10, 0, seed=1)


# ---------------------------------------------------------------------- #
# self time over nested wrappers
# ---------------------------------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Kernels:
    def inner(self, seconds):
        _CLOCK.now += seconds
        return np.zeros((2, 3))

    def outer(self, own, child):
        _CLOCK.now += own / 2
        self.inner(child)
        _CLOCK.now += own / 2
        return "done"

    def recurse(self, depth, own):
        _CLOCK.now += own
        if depth:
            self.recurse(depth - 1, own)

    def items(self, count, seconds):
        for index in range(count):
            _CLOCK.now += seconds
            yield index


class _Derived(_Kernels):
    pass


_CLOCK = _Clock()


@pytest.fixture
def fake_clock(monkeypatch):
    _CLOCK.now = 0.0
    monkeypatch.setattr(tracer_module.time, "perf_counter", _CLOCK)
    return _CLOCK


def test_nested_layer_time_is_subtracted_from_its_parent(fake_clock):
    tracer = Tracer()
    uninstall = install(
        tracer,
        [
            ("nn.forward", _Kernels, "outer", "call", None),
            ("backend.gemm", _Kernels, "inner", "call", lambda args, out: float(out.size)),
        ],
    )
    try:
        assert _Kernels().outer(own=0.3, child=0.5) == "done"
    finally:
        uninstall()
    totals = tracer.totals()
    assert totals["nn.forward"]["self_s"] == pytest.approx(0.3)
    assert totals["backend.gemm"]["self_s"] == pytest.approx(0.5)
    assert totals["backend.gemm"]["work"] == 6.0
    assert totals["nn.forward"]["calls"] == totals["backend.gemm"]["calls"] == 1
    parents = {span[0]: span[4] for span in tracer.spans}
    assert parents == {"backend.gemm": "nn.forward", "nn.forward": None}


def test_reentrant_layer_counts_one_call_and_all_its_time(fake_clock):
    tracer = Tracer()
    uninstall = install(tracer, [("nn.forward", _Kernels, "recurse", "call", None)])
    try:
        _Kernels().recurse(3, own=0.1)
    finally:
        uninstall()
    row = tracer.totals()["nn.forward"]
    assert row["calls"] == 1
    assert row["self_s"] == pytest.approx(0.4)


def test_iterator_layer_times_each_item(fake_clock):
    tracer = Tracer()
    uninstall = install(tracer, [("data.batch", _Kernels, "items", "iter", None)])
    try:
        assert list(_Kernels().items(4, seconds=0.25)) == [0, 1, 2, 3]
    finally:
        uninstall()
    row = tracer.totals()["data.batch"]
    assert row["calls"] == 4
    assert row["self_s"] == pytest.approx(1.0)


def test_uninstall_restores_own_and_inherited_attributes():
    own = _Kernels.__dict__["inner"]
    uninstall = install(
        Tracer(),
        [
            ("backend.gemm", _Kernels, "inner", "call", None),
            ("backend.gemm", _Derived, "outer", "call", None),
        ],
    )
    assert _Kernels.__dict__["inner"] is not own
    assert "outer" in _Derived.__dict__
    uninstall()
    assert _Kernels.__dict__["inner"] is own
    assert "outer" not in _Derived.__dict__


# ---------------------------------------------------------------------- #
# the declaration matches what the runs print
# ---------------------------------------------------------------------- #
def test_benchmark_json_declares_every_printed_metric():
    import json
    import os

    from perfbench import layers, run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
