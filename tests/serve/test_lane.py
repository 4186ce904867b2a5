"""The shared serving lane, driven in-process: cluster shards without workers.

Every case here runs a real :class:`ClusterServer` whose shards are real
lanes, but whose executors are :class:`FakeWorker` — the cluster's own
process executor with the process swapped out: replies are computed
in-process from a per-call script, and a respawn is instant.  That puts the
crash, retry, expiry, shedding, cancellation and observer paths under test
without spawning a single worker process.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import DeadlineExceeded, ServerOverloaded
from repro.serve.cluster import ChannelClosed, ClusterServer, WorkerCrashed
from repro.serve.cluster.router import _Worker

SHAPE = (3, 4, 4)
OTHER_SHAPE = (3, 2, 2)


def _logits(batch: np.ndarray) -> np.ndarray:
    return batch.reshape(batch.shape[0], -1)[:, :5] * 2.0


class FakeHandle:
    """Stands in for a WorkerHandle: alive until killed or shut down."""

    pid = 4242

    def __init__(self) -> None:
        self.alive = True

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.alive = False

    def shutdown(self, timeout=None) -> None:
        self.alive = False


class FakeWorker(_Worker):
    """A shard executor with no process behind it.

    Each exchange pops one step off ``script``: ``"lost"`` raises the
    transport error a dead worker's channel raises, a callable runs first
    (to block or stall the exchange), and an empty script just answers.
    """

    def __init__(self, cluster, variant, index, script=()) -> None:
        super().__init__(cluster, variant, index)
        self.handle = FakeHandle()
        self.script = list(script)
        self.calls = 0

    def spawn(self) -> FakeHandle:
        return FakeHandle()

    def _roundtrip(self, batch, trace_ids):
        self.calls += 1
        step = self.script.pop(0) if self.script else None
        if step == "lost":
            raise ChannelClosed("peer closed the connection (EOF)")
        if step is not None:
            step()
        return _logits(batch), {"execute_s": 0.0}


def _cluster(script=(), **kwargs):
    """A one-shard cluster over a FakeWorker (returned with it); not started."""
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("max_delay_ms", 0.0)
    cluster = ClusterServer(**kwargs)
    cluster.register("m", "unused.npz")
    worker = FakeWorker(cluster, cluster._route("m"), 0, script)
    cluster._attach(worker)
    return cluster, worker


def _sample(rng, shape=SHAPE) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)


def _wait_for(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _requests(cluster):
    return cluster.metrics("m")["merged"]["requests"]


class TestTransportFailure:
    @staticmethod
    def _mid_batch(rng, cluster, worker):
        """A held first batch queues two shapes; the second group's call is lost."""
        gate = threading.Event()
        worker.script = [lambda: gate.wait(10), None, "lost"]
        first = cluster.submit("m", _sample(rng))
        assert _wait_for(lambda: worker.calls == 1)
        x_ok, x_lost = _sample(rng), _sample(rng, OTHER_SHAPE)
        ok = cluster.submit("m", x_ok)
        lost = cluster.submit("m", x_lost, trace_id="lost")
        gate.set()
        first.result(timeout=10)
        np.testing.assert_array_equal(ok.result(timeout=10), _logits(x_ok[None])[0])
        return lost, x_lost

    def test_redispatched_while_retry_budget_lasts(self, rng):
        cluster, worker = _cluster(max_request_retries=1)
        with cluster:
            lost, x_lost = self._mid_batch(rng, cluster, worker)
            np.testing.assert_array_equal(
                lost.result(timeout=10), _logits(x_lost[None])[0]
            )
            assert cluster.drain(timeout=10)
        assert worker.restarts == 1
        assert _requests(cluster)["retried"] == 1
        assert _requests(cluster)["failed"] == 0
        (retried,) = cluster.events.events(kind="request_retried")
        assert retried["from_shard"] == retried["to_shard"] == "m[0]"
        assert len(cluster.events.events(kind="worker_restart")) == 1
        span = cluster.spans.find("lost")
        assert span["status"] == "completed"
        assert span["attempts"] == 1
        assert "wire" in span["stages_ms"]

    def test_fails_with_worker_crashed_when_budget_is_spent(self, rng):
        cluster, worker = _cluster(max_request_retries=0)
        with cluster:
            lost, _ = self._mid_batch(rng, cluster, worker)
            with pytest.raises(WorkerCrashed, match="in flight"):
                lost.result(timeout=10)
            # The respawned worker keeps the shard serving.
            assert cluster.predict("m", _sample(rng), timeout=10).shape == (5,)
        assert worker.restarts == 1
        assert _requests(cluster)["failed"] == 1
        assert _requests(cluster)["completed"] == 3
        assert cluster.spans.find("lost")["status"] == "failed"


class TestLaneOutcomes:
    def test_mid_flight_expiry_returns_typed_error(self, rng):
        cluster, _ = _cluster([lambda: time.sleep(0.2)])
        with cluster:
            future = cluster.submit("m", _sample(rng), deadline_s=0.05, trace_id="late")
            with pytest.raises(DeadlineExceeded, match="missed its deadline"):
                future.result(timeout=10)
            assert cluster.drain(timeout=10)
        assert _requests(cluster)["expired"] == 1
        assert _requests(cluster)["completed"] == 0
        (event,) = cluster.events.events(kind="request_expired")
        assert (event["variant"], event["shard"]) == ("m", 0)
        assert cluster.spans.find("late")["status"] == "expired"

    def test_priority_shed_makes_room_for_the_higher_class(self, rng):
        gate = threading.Event()
        cluster, worker = _cluster([lambda: gate.wait(10)], max_queue_depth=1)
        with cluster:
            first = cluster.submit("m", _sample(rng))
            assert _wait_for(lambda: worker.calls == 1)
            low = cluster.submit("m", _sample(rng), priority=0)
            high = cluster.submit("m", _sample(rng), priority=1, block=False)
            with pytest.raises(ServerOverloaded, match="was shed"):
                low.result(timeout=10)
            gate.set()
            first.result(timeout=10)
            high.result(timeout=10)
        assert _requests(cluster)["shed"] == 1
        (event,) = cluster.events.events(kind="request_shed")
        assert event["request_id"] == 2

    def test_cancelled_future_is_skipped_and_accounted(self, rng):
        gate = threading.Event()
        cluster, worker = _cluster([lambda: gate.wait(10)])
        with cluster:
            first = cluster.submit("m", _sample(rng))
            assert _wait_for(lambda: worker.calls == 1)
            doomed = cluster.submit("m", _sample(rng))
            assert doomed.cancel()
            gate.set()
            first.result(timeout=10)
            assert cluster.drain(timeout=10)
        assert worker.calls == 1
        assert _requests(cluster)["cancelled"] == 1
        assert _requests(cluster)["completed"] == 1

    def test_raising_observer_keeps_the_shard_serving(self, rng):
        def observer(name, requests):
            raise RuntimeError(f"observer bug on {name}")

        cluster, _ = _cluster(on_batch=observer)
        with cluster:
            for _ in range(2):
                assert cluster.predict("m", _sample(rng), timeout=10).shape == (5,)
        failures = cluster.events.events(kind="batch_observer_failed")
        assert len(failures) == 2
        assert (failures[0]["variant"], failures[0]["shard"]) == ("m", 0)
        assert "observer bug on m" in failures[0]["error"]
