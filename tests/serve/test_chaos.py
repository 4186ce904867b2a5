"""Chaos harness: traces, faults, offline replay, and the survivability seam.

Three layers, cheapest first:

1. Pure determinism — same spec + same seed must yield byte-identical
   traces, fault sequences, and replay outputs.  This is what makes a chaos
   failure attachable to a bug report.
2. Policy cores offline — the breaker state machine and the shedding
   replay run with fake clocks and zero processes.
3. Live cluster integration — a mini kill-storm with request retries on
   must lose **zero** requests, and mid-flight deadline expiry must surface
   the typed error over the wire.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.serve import DeadlineExceeded, InferenceEngine
from repro.serve.chaos import (
    BurstyArrivals,
    DispatchFaults,
    FaultPlan,
    FrameFaults,
    KillStormEvent,
    ParetoArrivals,
    PoissonArrivals,
    TrafficSpec,
    generate_trace,
    record_inputs,
    run_trace,
)
from repro.serve.cluster import BreakerPolicy, CircuitBreaker, ClusterServer
from repro.utils import save_quantized_checkpoint

from .chaos_replay import (
    load_trace,
    replay_autoscaler,
    replay_breaker,
    replay_shedding,
    save_trace,
)
from .cluster_models import build_parity_model

PARITY_SEED = 5
PARITY_SHAPE = (3, 8, 8)


def _wait_until(predicate, timeout: float, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def parity_checkpoint(tmp_path_factory):
    model = build_parity_model(PARITY_SEED)
    path = str(tmp_path_factory.mktemp("chaos") / "parity.npz")
    return save_quantized_checkpoint(
        path,
        model,
        model_factory="tests.serve.cluster_models:build_parity_model",
        factory_kwargs={"seed": PARITY_SEED},
    )


# --------------------------------------------------------------------------- #
# trace generation: seeded, validated, serializable
# --------------------------------------------------------------------------- #
class TestTraceGeneration:
    def test_same_seed_same_trace(self):
        spec = TrafficSpec(
            variants=("a", "b"),
            arrivals="bursty",
            arrival_kwargs={"on_rate_hz": 100.0, "on_s": 0.2, "off_s": 0.3},
            num_requests=64,
            deadline_fraction=0.3,
        )
        assert generate_trace(spec, seed=7) == generate_trace(spec, seed=7)
        assert generate_trace(spec, seed=7) != generate_trace(spec, seed=8)

    def test_records_are_complete_and_ordered(self):
        spec = TrafficSpec(variants=("m",), num_requests=32, deadline_fraction=0.5)
        trace = generate_trace(spec, seed=1)
        assert len(trace) == 32
        times = [record["t"] for record in trace]
        assert times == sorted(times)
        assert [record["id"] for record in trace] == list(range(32))
        for record in trace:
            assert record["variant"] == "m"
            assert record["batch"] in spec.batch_sizes
            assert record["priority"] in spec.priorities
            assert record["deadline_s"] is None or record["deadline_s"] > 0

    def test_inputs_reconstruct_bitwise_from_the_record(self):
        record = {"batch": 4, "seed": 12345}
        first = record_inputs(record, PARITY_SHAPE)
        second = record_inputs(record, PARITY_SHAPE)
        assert first.shape == (4, *PARITY_SHAPE)
        assert first.dtype == np.float32
        np.testing.assert_array_equal(first, second)

    def test_trace_roundtrips_through_json(self, tmp_path):
        spec = TrafficSpec(variants=("m",), num_requests=16, deadline_fraction=0.25)
        trace = generate_trace(spec, seed=3)
        path = save_trace(str(tmp_path / "trace.json"), trace)
        assert load_trace(path) == trace

    def test_spec_validation_is_loud(self):
        with pytest.raises(ValueError, match="at least one variant"):
            TrafficSpec(variants=())
        with pytest.raises(ValueError, match="unknown arrival"):
            TrafficSpec(variants=("m",), arrivals="uniform")
        with pytest.raises(ValueError, match="deadline_fraction"):
            TrafficSpec(variants=("m",), deadline_fraction=1.5)
        with pytest.raises(ValueError, match="align"):
            TrafficSpec(variants=("m",), batch_sizes=(1, 2), batch_weights=(1.0,))


class TestArrivalProcesses:
    def test_poisson_mean_gap_tracks_rate(self):
        rng = random.Random(0)
        process = PoissonArrivals(rate_hz=200.0)
        gaps = [process.next_gap(rng) for _ in range(5000)]
        assert all(gap >= 0 for gap in gaps)
        assert 1 / 220 < sum(gaps) / len(gaps) < 1 / 180

    def test_bursty_produces_on_and_off_stretches(self):
        rng = random.Random(1)
        process = BurstyArrivals(on_rate_hz=500.0, on_s=0.05, off_s=0.5)
        gaps = sorted(process.next_gap(rng) for _ in range(2000))
        # Typical gaps are in-burst (~1/on_rate); the OFF silences dwarf them.
        assert gaps[-1] > 50 * gaps[len(gaps) // 2]

    def test_pareto_is_heavy_tailed_and_validated(self):
        rng = random.Random(2)
        process = ParetoArrivals(alpha=1.2, scale_s=0.01)
        gaps = sorted(process.next_gap(rng) for _ in range(5000))
        assert gaps[0] >= 0
        assert gaps[-1] > 20 * gaps[len(gaps) // 2]  # tail >> median
        with pytest.raises(ValueError, match="alpha"):
            ParetoArrivals(alpha=1.0)
        with pytest.raises(ValueError, match="rate_hz"):
            PoissonArrivals(rate_hz=0.0)


# --------------------------------------------------------------------------- #
# fault injectors: seeded, bounded, control-plane-exempt
# --------------------------------------------------------------------------- #
class TestFaultInjectors:
    def test_default_fault_plan_is_a_strict_noop(self):
        from repro.serve.cluster.transport import FrameChannel

        plan = FaultPlan()
        with plan.apply(cluster=None):
            assert FrameChannel.fault_injector is None
        assert plan.events == []

    def test_frame_faults_never_touch_control_frames(self):
        from repro.serve.cluster.protocol import Frame, FrameKind

        faults = FrameFaults(drop_send_p=1.0, drop_recv_p=1.0, seed=0)
        for kind in (FrameKind.HELLO, FrameKind.SHUTDOWN, FrameKind.PING):
            assert faults.on_send(None, kind, 0) is True
            frame = Frame(kind=kind, request_id=0, payload=b"")
            assert faults.on_recv(None, frame) is True
        assert faults.dropped_send == 0
        # Data frames at p=1.0 always drop.
        assert faults.on_send(None, FrameKind.REQUEST, 1) is False
        assert faults.dropped_send == 1

    def test_frame_faults_drop_sequence_is_seeded(self):
        from repro.serve.cluster.protocol import FrameKind

        def sequence(seed):
            faults = FrameFaults(drop_send_p=0.5, seed=seed)
            return [
                faults.on_send(None, FrameKind.REQUEST, i) for i in range(64)
            ]

        assert sequence(9) == sequence(9)
        assert sequence(9) != sequence(10)

    def test_dispatch_faults_count_and_validate(self):
        faults = DispatchFaults(delay_p=1.0, delay_s=0.001, seed=0)
        for _ in range(3):
            faults.before_dispatch(None, "m", "m[0]")
        assert faults.delays_injected == 3
        with pytest.raises(ValueError, match="delay_p"):
            DispatchFaults(delay_p=2.0)


# --------------------------------------------------------------------------- #
# offline replay: no processes, fake clocks, deterministic outputs
# --------------------------------------------------------------------------- #
class TestReplay:
    def test_autoscaler_replay_simulates_the_decision_chain(self):
        samples = [
            {"live_shards": 1, "bounds": (1, 4), "outstanding": 50, "p95_latency_ms": 0.0},
            {"live_shards": 1, "bounds": (1, 4), "outstanding": 50, "p95_latency_ms": 0.0},
            {"live_shards": 1, "bounds": (1, 4), "outstanding": 0, "p95_latency_ms": 0.0},
        ]
        decisions = replay_autoscaler(samples)
        assert len(decisions) == 3
        # The first decision's target feeds sample 2 as its live count.
        assert decisions[1]["live_shards"] == decisions[0]["target"]
        assert decisions == replay_autoscaler(samples)  # deterministic

    def test_breaker_replay_reconstructs_transitions(self):
        policy = BreakerPolicy(failure_threshold=2, open_for_s=1.0)
        events = [
            {"t": 0.0, "op": "failure"},
            {"t": 0.1, "op": "failure"},   # trips OPEN
            {"t": 0.2, "op": "allow"},     # denied: still cooling
            {"t": 1.2, "op": "allow"},     # HALF_OPEN probe admitted
            {"t": 1.3, "op": "success"},   # probe closes it
        ]
        result = replay_breaker(events, policy)
        outcomes = result["outcomes"]
        assert outcomes[1]["opened"] is True
        assert outcomes[2]["allowed"] is False
        assert outcomes[3]["allowed"] is True
        assert outcomes[4]["state"] == CircuitBreaker.CLOSED
        states = [(t["from"], t["to"]) for t in result["transitions"]]
        assert states == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_shedding_replay_accounts_for_every_record(self):
        spec = TrafficSpec(
            variants=("m",),
            arrivals="bursty",
            arrival_kwargs={"on_rate_hz": 400.0, "on_s": 0.1, "off_s": 0.1},
            num_requests=200,
            priorities=(0, 1),
            priority_weights=(0.7, 0.3),
            deadline_fraction=0.4,
            deadline_range_s=(0.01, 0.1),
        )
        trace = generate_trace(spec, seed=11)
        stats = replay_shedding(trace, max_depth=4, service_rate_hz=100.0)
        accounted = (
            stats["completed"] + stats["shed"] + stats["rejected"] + stats["expired"]
        )
        assert accounted == len(trace)
        assert stats == replay_shedding(trace, max_depth=4, service_rate_hz=100.0)
        # An overload trace through a depth-4 queue must shed or reject some.
        assert stats["shed"] + stats["rejected"] > 0


# --------------------------------------------------------------------------- #
# breaker + retry policy units
# --------------------------------------------------------------------------- #
class TestBreakerStateMachine:
    def test_success_resets_the_failure_streak(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=3), clock=lambda: clock[0]
        )
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # streak restarted
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_and_counts(self):
        clock = [0.0]
        opens = []
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, open_for_s=1.0),
            clock=lambda: clock[0],
            on_open=lambda: opens.append(clock[0]),
        )
        assert breaker.record_failure() is True
        clock[0] = 1.5
        assert breaker.allow() is True  # half-open probe
        assert breaker.record_failure() is True  # probe failed: re-open
        assert len(opens) == 2
        assert breaker.allow() is False  # cooldown restarted at t=1.5


# --------------------------------------------------------------------------- #
# live cluster: survivability under storms, deadlines over the wire
# --------------------------------------------------------------------------- #
class TestClusterChaos:
    def test_kill_storm_with_retries_loses_nothing(self, parity_checkpoint):
        rng = np.random.default_rng(21)
        sample = rng.standard_normal(PARITY_SHAPE).astype(np.float32)
        with ClusterServer(
            max_batch_size=1,
            max_delay_ms=0.0,
            request_timeout_s=30.0,
            max_restarts=20,
            max_request_retries=4,
        ) as cluster:
            cluster.register(
                "slow", parity_checkpoint, shards=2, max_shards=2, chaos_latency_s=0.25
            )
            futures = [
                cluster.submit("slow", sample, block=True) for _ in range(8)
            ]

            def shard0_in_flight() -> bool:
                info = cluster.metrics("slow")["shards"]["slow[0]"]
                return info["outstanding"] - info["queue_depth"] >= 1

            assert _wait_until(shard0_in_flight, timeout=10.0, interval=0.01)
            plan = FaultPlan(
                seed=3, kill_storm=[KillStormEvent(at_s=0.0, variant="slow", kills=1)]
            )
            with plan.apply(cluster):
                results = [future.result(timeout=120) for future in futures]
            assert len(results) == 8  # zero lost: crashes were re-dispatched
            kills = [event for event in plan.events if event["kind"] == "kill"]
            assert len(kills) == 1
            retried = cluster.metrics("slow")["merged"]["requests"]["retried"]
            assert retried >= 1

    def test_mid_flight_deadline_expires_typed(self, parity_checkpoint):
        rng = np.random.default_rng(22)
        sample = rng.standard_normal(PARITY_SHAPE).astype(np.float32)
        with ClusterServer(max_batch_size=1, max_delay_ms=0.0) as cluster:
            cluster.register("slow", parity_checkpoint, shards=1, chaos_latency_s=0.25)
            # Each request waits 0.25 s in the worker; a 50 ms deadline expires
            # mid-flight for the first request and in-queue for the second.
            futures = [
                cluster.submit("slow", sample, block=True, deadline_s=0.05)
                for _ in range(2)
            ]
            errors = [future.exception(timeout=60) for future in futures]
            assert all(isinstance(error, DeadlineExceeded) for error in errors)
            expired = cluster.metrics("slow")["merged"]["requests"]["expired"]
            assert expired == 2

    def test_run_trace_accounts_for_every_record(self, parity_checkpoint):
        spec = TrafficSpec(
            variants=("m",),
            arrivals="poisson",
            arrival_kwargs={"rate_hz": 200.0},
            num_requests=24,
            batch_sizes=(1, 2),
            batch_weights=(0.7, 0.3),
        )
        trace = generate_trace(spec, seed=13)
        engine = InferenceEngine(build_parity_model(PARITY_SEED))
        with ClusterServer(max_batch_size=1, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=1)
            outcomes = run_trace(
                cluster,
                trace,
                PARITY_SHAPE,
                result_timeout_s=120.0,
                reference=lambda _name, inputs: engine.predict_logits(inputs),
            )
        assert len(outcomes) == len(trace)
        completed = [o for o in outcomes if o.status == "completed"]
        assert completed, [o.status for o in outcomes]
        # max_batch_size=1 serves each record's batch exactly as submitted,
        # so the offline reference must match bitwise.
        assert all(o.bitwise_ok for o in completed)
