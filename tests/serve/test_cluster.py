"""Cluster serving: worker processes, parity, crash recovery, scaling.

These tests spawn real worker processes (``multiprocessing`` spawn), so they
share module-scoped checkpoints and keep models tiny.  The parity contract is
the serving seam's usual one: a cluster answer must be **bitwise identical**
to a direct :class:`InferenceEngine` call on the *same stacked batch* — for
single-request batches that means identical to a direct single-sample call,
for coalesced batches the on_batch observer reconstructs the exact stack.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.serve import InferenceEngine
from repro.serve.cluster import (
    Autoscaler,
    AutoscalerPolicy,
    ClusterServer,
    WorkerBootError,
    WorkerCrashed,
    WorkerOptions,
    decide,
    spawn_worker,
)
from repro.utils import save_quantized_checkpoint

from .cluster_models import build_parity_model, build_untraceable

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
def parity_model():
    return build_parity_model(PARITY_SEED)


@pytest.fixture(scope="module")
def parity_checkpoint(parity_model, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cluster") / "parity.npz")
    return save_quantized_checkpoint(
        path,
        parity_model,
        model_factory="tests.serve.cluster_models:build_parity_model",
        factory_kwargs={"seed": PARITY_SEED},
    )


@pytest.fixture(scope="module")
def untraceable_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cluster-untraceable") / "untraceable.npz")
    return save_quantized_checkpoint(
        path,
        build_untraceable(),
        model_factory="tests.serve.cluster_models:build_untraceable",
    )


# --------------------------------------------------------------------------- #
# one worker, no router: the wire handshake
# --------------------------------------------------------------------------- #
class TestWorkerHandle:
    def test_boot_ping_shutdown(self, parity_checkpoint):
        handle = spawn_worker(
            WorkerOptions(checkpoint_path=parity_checkpoint, variant="m")
        )
        try:
            assert handle.hello["plan_state"] == "compiled"
            assert handle.is_alive()
            assert handle.ping(timeout=10.0)
        finally:
            handle.shutdown()
        assert _wait_until(lambda: not handle.is_alive(), timeout=10.0)

    def test_boot_failure_is_loud(self, tmp_path):
        with pytest.raises(WorkerBootError, match="boot failed"):
            spawn_worker(
                WorkerOptions(checkpoint_path=str(tmp_path / "missing.npz"), variant="m")
            )

    def test_boot_refuses_untraceable_models(self, untraceable_checkpoint):
        with pytest.raises(WorkerBootError, match="PlanTraceError.*division"):
            spawn_worker(
                WorkerOptions(checkpoint_path=untraceable_checkpoint, variant="m")
            )


# --------------------------------------------------------------------------- #
# parity: cluster answers == direct engine answers, bit for bit
# --------------------------------------------------------------------------- #
class TestClusterParity:
    def test_float_parity_bitwise(self, parity_model, parity_checkpoint):
        engine = InferenceEngine(parity_model)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((4, *PARITY_SHAPE)).astype(np.float32)
        with ClusterServer(max_batch_size=8, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=2)
            for sample in samples:
                got = cluster.predict("m", sample, timeout=60)
                want = engine.predict_logits(sample[np.newaxis])[0]
                np.testing.assert_array_equal(got, want)

    def test_integer_parity_bitwise(self, parity_model, parity_checkpoint):
        engine = InferenceEngine(parity_model, mode="integer")
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((3, *PARITY_SHAPE)).astype(np.float32)
        with ClusterServer(max_batch_size=8, max_delay_ms=0.0) as cluster:
            cluster.register("m-int", parity_checkpoint, mode="integer", shards=2)
            for sample in samples:
                got = cluster.predict("m-int", sample, timeout=60)
                want = engine.predict_logits(sample[np.newaxis])[0]
                np.testing.assert_array_equal(got, want)

    def test_batched_parity_and_shard_spread(self, parity_model, parity_checkpoint):
        """Coalesced micro-batches match a direct call on the same stack."""
        engine = InferenceEngine(parity_model)
        rng = np.random.default_rng(2)
        batches = []
        with ClusterServer(
            max_batch_size=8,
            max_delay_ms=20.0,
            on_batch=lambda name, requests: batches.append(requests),
        ) as cluster:
            cluster.register("m", parity_checkpoint, shards=2)
            futures = [
                cluster.submit("m", rng.standard_normal(PARITY_SHAPE).astype(np.float32))
                for _ in range(32)
            ]
            results = [future.result(timeout=60) for future in futures]
            assert all(result.shape[-1] == 4 for result in results)
            snapshot = cluster.metrics("m")
            served = {
                name: shard["metrics"]["requests"]["completed"]
                for name, shard in snapshot["shards"].items()
            }
        assert sum(served.values()) == 32
        assert all(count > 0 for count in served.values()), (
            f"least-outstanding routing starved a shard: {served}"
        )
        assert sum(len(batch) for batch in batches) == 32
        for requests in batches:
            stacked = np.concatenate([request.inputs for request in requests], axis=0)
            want = engine.predict_logits(stacked)
            offset = 0
            for request in requests:
                rows = want[offset : offset + request.num_samples]
                offset += request.num_samples
                got = request.future.result(timeout=0)
                np.testing.assert_array_equal(got, rows[0] if request.squeeze else rows)

    def test_small_batch_requests_and_bad_shape(self, parity_checkpoint, parity_model):
        engine = InferenceEngine(parity_model)
        rng = np.random.default_rng(3)
        with ClusterServer(max_batch_size=8, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=1)
            small = rng.standard_normal((3, *PARITY_SHAPE)).astype(np.float32)
            got = cluster.predict("m", small, timeout=60)
            np.testing.assert_array_equal(got, engine.predict_logits(small))
            with pytest.raises(ValueError, match="expected"):
                cluster.submit("m", rng.standard_normal((8, 8)).astype(np.float32))
            # A wrong-geometry sample fails its own future, not the cluster.
            future = cluster.submit(
                "m", rng.standard_normal((3, 5, 5)).astype(np.float32)
            )
            with pytest.raises(Exception):
                future.result(timeout=60)
            np.testing.assert_array_equal(
                cluster.predict("m", small, timeout=60), engine.predict_logits(small)
            )


# --------------------------------------------------------------------------- #
# resilience: crashes stay contained, restarts are automatic
# --------------------------------------------------------------------------- #
class TestClusterResilience:
    def test_killed_worker_fails_only_in_flight_and_recovers(self, parity_checkpoint):
        rng = np.random.default_rng(4)
        sample = rng.standard_normal(PARITY_SHAPE).astype(np.float32)
        with ClusterServer(
            max_batch_size=1,
            max_delay_ms=0.0,
            request_timeout_s=30.0,
            max_restarts=5,
        ) as cluster:
            cluster.register(
                "slow", parity_checkpoint, shards=2, max_shards=2, chaos_latency_s=0.25
            )
            pid_by_shard = {
                name: info["pid"]
                for name, info in cluster.metrics("slow")["shards"].items()
            }
            # Four requests spread over two shards (least-outstanding), each
            # served alone (max_batch_size=1) after 0.25 s of injected worker
            # latency: plenty of in-flight window.
            futures = [cluster.submit("slow", sample) for _ in range(4)]
            # Kill only once shard 0 demonstrably has a request *in flight*
            # (popped off its queue, on the worker's wire) — a fixed sleep
            # here raced the dispatcher on slow boxes.
            def shard0_in_flight() -> bool:
                info = cluster.metrics("slow")["shards"]["slow[0]"]
                return info["outstanding"] - info["queue_depth"] >= 1

            assert _wait_until(shard0_in_flight, timeout=10.0, interval=0.01)
            os.kill(pid_by_shard["slow[0]"], signal.SIGKILL)

            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("ok", future.result(timeout=60)))
                except WorkerCrashed as error:
                    outcomes.append(("crashed", error))
            crashed = [o for o in outcomes if o[0] == "crashed"]
            served = [o for o in outcomes if o[0] == "ok"]
            # Only what was in flight on the dead worker's wire fails —
            # never the other shard's traffic, never the whole cluster.
            assert 1 <= len(crashed) <= 2, outcomes
            assert len(served) == 4 - len(crashed)

            # The shard restarts from the checkpoint and serves again.
            assert np.array_equal(
                cluster.predict("slow", sample, timeout=60),
                cluster.predict("slow", sample, timeout=60),
            )
            snapshot = cluster.metrics("slow")
            restarts = sum(info["restarts"] for info in snapshot["shards"].values())
            assert restarts >= 1
            assert _wait_until(lambda: cluster.healthy("slow"), timeout=30.0)

    def test_idle_crash_is_noticed_and_restarted(self, parity_checkpoint):
        rng = np.random.default_rng(5)
        sample = rng.standard_normal(PARITY_SHAPE).astype(np.float32)
        with ClusterServer(max_batch_size=4, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=1)
            first = cluster.predict("m", sample, timeout=60)
            pid = cluster.metrics("m")["shards"]["m[0]"]["pid"]
            os.kill(pid, signal.SIGKILL)
            # No traffic in flight: the health monitor must notice on its own.
            assert _wait_until(
                lambda: cluster.metrics("m")["shards"]["m[0]"]["restarts"] >= 1
                and cluster.healthy("m"),
                timeout=30.0,
            )
            np.testing.assert_array_equal(cluster.predict("m", sample, timeout=60), first)


# --------------------------------------------------------------------------- #
# scaling: manual scale() and the autoscaler policy loop
# --------------------------------------------------------------------------- #
class TestScaling:
    def test_manual_scale_up_and_down(self, parity_checkpoint, parity_model):
        engine = InferenceEngine(parity_model)
        rng = np.random.default_rng(6)
        sample = rng.standard_normal(PARITY_SHAPE).astype(np.float32)
        with ClusterServer(max_batch_size=4, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=1, max_shards=3)
            assert cluster.num_shards("m") == 1
            assert cluster.scale("m", 3) == 3
            futures = [cluster.submit("m", sample) for _ in range(12)]
            want = engine.predict_logits(sample[np.newaxis])[0]
            # Every shard serves identical bits: same checkpoint, same plan.
            for future in futures:
                got = future.result(timeout=60)
                assert got.shape == want.shape
            cluster.scale("m", 1)
            assert _wait_until(lambda: cluster.num_shards("m") == 1, timeout=30.0)
            np.testing.assert_array_equal(cluster.predict("m", sample, timeout=60), want)
            kinds = [event["kind"] for event in cluster.scaling_events]
            assert kinds == ["scale_up", "scale_down"]

    def test_scale_clamps_to_bounds(self, parity_checkpoint):
        with ClusterServer(max_batch_size=4) as cluster:
            cluster.register("m", parity_checkpoint, shards=1, min_shards=1, max_shards=2)
            assert cluster.scale("m", 99) == 2
            assert cluster.scale("m", 0) == 1


class TestAutoscalerPolicy:
    """decide() is pure: the policy is testable without any processes."""

    def _load(self, live=1, outstanding=0, p95=0.0, bounds=(1, 4)):
        return {
            "live_shards": live,
            "target_shards": live,
            "bounds": bounds,
            "outstanding": outstanding,
            "queue_depth": outstanding,
            "p95_latency_ms": p95,
            "completed": 100,
        }

    def test_backlog_scales_up_one_step(self):
        policy = AutoscalerPolicy(scale_up_backlog_per_shard=4.0)
        assert decide(self._load(live=1, outstanding=9), policy) == 2
        assert decide(self._load(live=2, outstanding=9), policy) == 3

    def test_latency_trigger_needs_backlog(self):
        policy = AutoscalerPolicy(scale_up_p95_ms=50.0, scale_down_backlog_per_shard=0.0)
        assert decide(self._load(live=1, outstanding=2, p95=80.0), policy) == 2
        # High p95 with an empty queue: another shard would not help.
        assert decide(self._load(live=1, outstanding=0, p95=80.0), policy) == 1

    def test_idle_scales_down_to_min(self):
        policy = AutoscalerPolicy(scale_down_backlog_per_shard=0.5)
        assert decide(self._load(live=3, outstanding=0), policy) == 2
        assert decide(self._load(live=1, outstanding=0), policy) == 1  # min bound

    def test_bounds_are_hard(self):
        policy = AutoscalerPolicy(scale_up_backlog_per_shard=1.0)
        assert decide(self._load(live=4, outstanding=100, bounds=(1, 4)), policy) == 4

    def test_steady_state_holds(self):
        policy = AutoscalerPolicy(
            scale_up_backlog_per_shard=4.0, scale_down_backlog_per_shard=0.5
        )
        assert decide(self._load(live=2, outstanding=4), policy) == 2


class TestAutoscalerLoop:
    def test_backlog_grows_the_fleet_then_idle_shrinks_it(self, parity_checkpoint):
        rng = np.random.default_rng(7)
        sample = rng.standard_normal(PARITY_SHAPE).astype(np.float32)
        with ClusterServer(
            max_batch_size=1, max_delay_ms=0.0, request_timeout_s=30.0
        ) as cluster:
            cluster.register(
                "slow", parity_checkpoint, shards=1, max_shards=2, chaos_latency_s=0.25
            )
            policy = AutoscalerPolicy(
                scale_up_backlog_per_shard=2.0,
                scale_down_backlog_per_shard=0.25,
                cooldown_s=0.5,
            )
            with Autoscaler(cluster, policy=policy, interval_s=0.1) as autoscaler:
                futures = [cluster.submit("slow", sample) for _ in range(10)]
                assert _wait_until(lambda: cluster.num_shards("slow") == 2, timeout=30.0)
                for future in futures:
                    future.result(timeout=120)
                # Queue empty again: the loop retires the extra shard.
                assert _wait_until(lambda: cluster.num_shards("slow") == 1, timeout=30.0)
                assert any(d["target"] == 2 for d in autoscaler.decisions)
                assert any(d["target"] == 1 for d in autoscaler.decisions)


# --------------------------------------------------------------------------- #
# cluster telemetry aggregation
# --------------------------------------------------------------------------- #
class TestClusterMetrics:
    def test_merged_view_sums_shards(self, parity_checkpoint):
        rng = np.random.default_rng(10)
        with ClusterServer(max_batch_size=4, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=2)
            futures = [
                cluster.submit("m", rng.standard_normal(PARITY_SHAPE).astype(np.float32))
                for _ in range(20)
            ]
            for future in futures:
                future.result(timeout=60)
            view = cluster.metrics("m")
            per_shard = [
                shard["metrics"]["requests"]["completed"]
                for shard in view["shards"].values()
            ]
            assert sum(per_shard) == 20
            assert view["merged"]["requests"]["completed"] == 20
            assert view["merged"]["samples_completed"] == 20
            top = cluster.metrics()
            assert top["cluster"]["requests_completed"] == 20
            assert top["cluster"]["variants_hosted"]["m"]["shards"] == 2
            # The merged snapshot is JSON-exportable as-is.
            assert isinstance(cluster.metrics_json("m"), str)
