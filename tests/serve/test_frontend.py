"""Serving frontend: queue, dynamic batcher, registry, server, telemetry."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.models import simple_cnn
from repro.nn import Tensor
from repro.serve import (
    DynamicBatcher,
    InferenceEngine,
    ModelRegistry,
    ModelServer,
    PlanTraceError,
    Request,
    RequestQueue,
    ServerClosed,
    ServerOverloaded,
)

CNN_SHAPE = (3, 12, 12)


def _warmed_cnn(rng, seed=0, **overrides):
    kwargs = dict(num_classes=4, input_size=12, channels=4, seed=seed)
    kwargs.update(overrides)
    model = simple_cnn(**kwargs)
    model(Tensor(rng.standard_normal((8, *CNN_SHAPE)).astype(np.float32)))
    model.eval()
    return model


def _request(rng, n=1, shape=CNN_SHAPE, enqueue_time=0.0):
    return Request(
        inputs=rng.standard_normal((n, *shape)).astype(np.float32),
        future=Future(),
        squeeze=n == 1,
        enqueue_time=enqueue_time,
    )


@pytest.fixture
def cnn(rng):
    return _warmed_cnn(rng)


# --------------------------------------------------------------------------- #
# RequestQueue
# --------------------------------------------------------------------------- #
class TestRequestQueue:
    def test_fifo_and_depth(self, rng):
        queue = RequestQueue(max_depth=4)
        first, second = _request(rng), _request(rng)
        queue.put(first)
        queue.put(second)
        assert queue.depth == 2
        assert queue.get() is first
        assert queue.get() is second
        assert queue.get(timeout=0.01) is None

    def test_admission_control_rejects_when_full(self, rng):
        queue = RequestQueue(max_depth=1)
        queue.put(_request(rng))
        with pytest.raises(ServerOverloaded):
            queue.put(_request(rng), block=False)
        with pytest.raises(ServerOverloaded):
            queue.put(_request(rng), block=True, timeout=0.02)

    def test_backpressure_unblocks_when_space_frees(self, rng):
        queue = RequestQueue(max_depth=1)
        queue.put(_request(rng))
        late = _request(rng)

        def consume():
            time.sleep(0.05)
            queue.get()

        thread = threading.Thread(target=consume)
        thread.start()
        queue.put(late, block=True, timeout=5.0)  # must not raise
        thread.join()
        assert queue.get() is late

    def test_put_front_bypasses_bounds_and_order(self, rng):
        queue = RequestQueue(max_depth=1)
        parked = _request(rng)
        queue.put(parked)
        overflow = _request(rng)
        queue.put_front(overflow)  # exempt from the depth bound
        assert queue.get() is overflow
        assert queue.get() is parked

    def test_close_rejects_producers_and_drains_consumers(self, rng):
        queue = RequestQueue(max_depth=4)
        queued = _request(rng)
        queue.put(queued)
        queue.close()
        with pytest.raises(ServerClosed):
            queue.put(_request(rng))
        assert queue.get() is queued  # closed queues still drain
        assert queue.get() is None  # ...and then signal completion
        assert queue.get(timeout=10.0) is None  # without blocking

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            RequestQueue(max_depth=0)


class TestRequestQueueConcurrency:
    """The edge cases the cluster's per-shard queues lean on."""

    def test_put_front_holds_head_position_under_concurrent_producers(self, rng):
        """Batcher overflow re-insertion must survive racing submitters.

        A request handed back via put_front (it would overflow the forming
        micro-batch) must be the very next one served, no matter how many
        producers are appending concurrently — losing its place would
        reorder an already-admitted request behind later arrivals.
        """
        queue = RequestQueue(max_depth=8)  # small: producers hit backpressure
        total = 48
        produced = []
        produced_lock = threading.Lock()

        def producer(worker):
            for _ in range(total // 4):
                request = _request(rng)
                queue.put(request, block=True, timeout=30.0)
                with produced_lock:
                    produced.append(request)

        consumed = []
        failures = []

        def consumer():
            while len(consumed) < total:
                request = queue.get(timeout=10.0)
                if request is None:
                    failures.append("queue drained early")
                    return
                # Simulate the batcher's overflow path: hand the request
                # back, then take the head again — it must be the same one.
                queue.put_front(request)
                again = queue.get(timeout=10.0)
                if again is not request:
                    failures.append((request, again))
                consumed.append(again)

        producers = [threading.Thread(target=producer, args=(k,)) for k in range(4)]
        consumer_thread = threading.Thread(target=consumer)
        consumer_thread.start()
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=60.0)
        consumer_thread.join(timeout=60.0)
        assert not failures
        assert len(consumed) == total
        assert {id(r) for r in consumed} == {id(r) for r in produced}

    def test_put_front_is_exempt_from_depth_bound_under_load(self, rng):
        queue = RequestQueue(max_depth=2)
        queue.put(_request(rng))
        queue.put(_request(rng))
        overflow = _request(rng)
        queue.put_front(overflow)  # already-admitted: never rejected
        assert queue.depth == 3
        assert queue.get() is overflow

    def test_close_then_drain_returns_exactly_the_unserved(self, rng):
        queue = RequestQueue(max_depth=16)
        requests = [_request(rng) for _ in range(5)]
        for request in requests:
            queue.put(request)
        assert queue.get() is requests[0]
        queue.close()
        assert queue.get() is requests[1]  # close still lets the consumer drain
        remaining = queue.drain_remaining()
        assert remaining == requests[2:]
        assert queue.get(timeout=0.01) is None  # drained + closed: completion
        assert queue.drain_remaining() == []

    def test_close_wakes_blocked_producer_and_consumer(self, rng):
        queue = RequestQueue(max_depth=1)
        queue.put(_request(rng))
        outcomes = []

        def blocked_producer():
            try:
                queue.put(_request(rng), block=True, timeout=30.0)
                outcomes.append("admitted")
            except ServerClosed:
                outcomes.append("producer-closed")

        def blocked_consumer():
            drained = queue.get(timeout=30.0)  # the one queued request
            outcomes.append("got" if drained is not None else "none")
            outcomes.append("consumer-done" if queue.get(timeout=30.0) is None else "extra")

        producer = threading.Thread(target=blocked_producer)
        producer.start()
        time.sleep(0.05)
        queue.close()
        producer.join(timeout=10.0)
        consumer = threading.Thread(target=blocked_consumer)
        consumer.start()
        consumer.join(timeout=10.0)
        assert outcomes == ["producer-closed", "got", "consumer-done"]

    def test_drain_remaining_frees_space_for_blocked_producer(self, rng):
        queue = RequestQueue(max_depth=1)
        queue.put(_request(rng))
        outcomes = []

        def producer():
            queue.put(_request(rng), block=True, timeout=10.0)
            outcomes.append("admitted")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert len(queue.drain_remaining()) == 1
        thread.join(timeout=10.0)
        assert outcomes == ["admitted"]


# --------------------------------------------------------------------------- #
# DynamicBatcher (no threads: a frozen clock drives the deadline)
# --------------------------------------------------------------------------- #
class TestDynamicBatcher:
    def test_coalesces_up_to_max_batch_size(self, rng):
        queue = RequestQueue()
        for _ in range(6):
            queue.put(_request(rng))
        batcher = DynamicBatcher(queue, max_batch_size=4, max_delay=0.0)
        assert len(batcher.next_batch(timeout=0.0)) == 4
        assert len(batcher.next_batch(timeout=0.0)) == 2

    def test_deadline_fires_with_partial_batch(self, rng):
        queue = RequestQueue()
        queue.put(_request(rng, enqueue_time=time.monotonic()))
        batcher = DynamicBatcher(queue, max_batch_size=32, max_delay=0.01)
        start = time.monotonic()
        batch = batcher.next_batch(timeout=0.0)
        waited = time.monotonic() - start
        assert len(batch) == 1  # served despite never filling the batch
        assert waited < 1.0

    def test_sample_counting_and_overflow_requeue(self, rng):
        queue = RequestQueue()
        queue.put(_request(rng, n=3))
        queue.put(_request(rng, n=3))
        batcher = DynamicBatcher(queue, max_batch_size=4, max_delay=0.0)
        first = batcher.next_batch(timeout=0.0)
        assert [r.num_samples for r in first] == [3]  # 3+3 > 4: second waits
        second = batcher.next_batch(timeout=0.0)
        assert [r.num_samples for r in second] == [3]

    def test_backlogged_queue_forms_batches_without_waiting(self, rng):
        queue = RequestQueue()
        stale = time.monotonic() - 10.0  # enqueued long past the deadline
        for _ in range(4):
            queue.put(_request(rng, enqueue_time=stale))
        batcher = DynamicBatcher(queue, max_batch_size=8, max_delay=5.0)
        start = time.monotonic()
        batch = batcher.next_batch(timeout=0.0)
        assert len(batch) == 4
        assert time.monotonic() - start < 1.0  # no max_delay wait under backlog

    def test_rejects_bad_arguments(self):
        queue = RequestQueue()
        with pytest.raises(ValueError):
            DynamicBatcher(queue, max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(queue, max_delay=-1.0)


# --------------------------------------------------------------------------- #
# ModelRegistry
# --------------------------------------------------------------------------- #
class TestModelRegistry:
    def test_register_and_lookup(self, cnn):
        registry = ModelRegistry()
        entry = registry.register("cnn", cnn, mode="integer", description="demo")
        assert registry.get("cnn") is entry
        assert entry.mode == "integer"
        assert "cnn" in registry and len(registry) == 1
        assert registry.describe()["cnn"]["mode"] == "integer"

    def test_duplicate_name_refused(self, cnn):
        registry = ModelRegistry()
        registry.register("cnn", cnn)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("cnn", cnn, mode="integer")

    def test_same_model_same_mode_under_two_names_refused(self, cnn):
        registry = ModelRegistry()
        registry.register("a", cnn)
        with pytest.raises(ValueError, match="separate model instances"):
            registry.register("b", cnn)

    def test_same_model_different_mode_allowed(self, cnn):
        registry = ModelRegistry()
        registry.register("float", cnn)
        registry.register("int", cnn, mode="integer")
        assert sorted(registry.names()) == ["float", "int"]

    def test_helpful_missing_key_error(self, cnn):
        registry = ModelRegistry()
        registry.register("cnn", cnn)
        with pytest.raises(KeyError, match="registered: cnn"):
            registry.get("nope")

    def test_model_xor_engine(self, cnn):
        registry = ModelRegistry()
        with pytest.raises(ValueError):
            registry.register("x")
        with pytest.raises(ValueError):
            registry.register("x", cnn, engine=InferenceEngine(cnn))


# --------------------------------------------------------------------------- #
# ModelServer: the acceptance case — concurrent clients, bitwise parity
# --------------------------------------------------------------------------- #
class TestConcurrentParity:
    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_concurrent_singles_bitwise_match_direct_engine(self, cnn, rng, mode):
        """N client threads' logits == a direct engine run on the stacked batch."""
        records = []
        server = ModelServer(
            max_batch_size=8,
            max_delay_ms=25.0,
            on_batch=lambda name, reqs: records.append(reqs),
        )
        server.register("cnn", cnn, mode=mode)
        inputs = [rng.standard_normal(CNN_SHAPE).astype(np.float32) for _ in range(12)]
        results = [None] * len(inputs)
        with server:
            def client(index):
                results[index] = server.predict("cnn", inputs[index], timeout=60)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(len(inputs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        direct = InferenceEngine(cnn, mode=mode, batch_size=64)
        checked = 0
        for requests in records:
            stacked = np.concatenate([r.inputs for r in requests], axis=0)
            want = direct.predict_logits(stacked)
            offset = 0
            for request in requests:
                rows = want[offset : offset + request.num_samples]
                offset += request.num_samples
                got = request.future.result(timeout=0)
                expected = rows[0] if request.squeeze else rows
                assert np.array_equal(got, expected), (
                    f"served logits are not bitwise-identical to the direct "
                    f"engine run on the stacked batch (mode={mode})"
                )
                checked += 1
        assert checked == len(inputs)
        assert all(result is not None for result in results)

    def test_small_batch_requests_round_trip(self, cnn, rng):
        server = ModelServer(max_batch_size=8, max_delay_ms=1.0)
        server.register("cnn", cnn)
        x = rng.standard_normal((3, *CNN_SHAPE)).astype(np.float32)
        with server:
            got = server.predict("cnn", x, timeout=60)
        want = InferenceEngine(cnn, batch_size=64).predict_logits(x)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


# --------------------------------------------------------------------------- #
# ModelServer: batcher edge cases through the full stack
# --------------------------------------------------------------------------- #
class TestServerBatchingEdgeCases:
    def test_deadline_serves_partial_batch(self, cnn, rng):
        records = []
        server = ModelServer(
            max_batch_size=32,
            max_delay_ms=100.0,
            on_batch=lambda name, reqs: records.append(reqs),
        )
        server.register("cnn", cnn)
        with server:
            futures = [
                server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))
                for _ in range(3)
            ]
            for future in futures:
                future.result(timeout=60)  # completes despite never filling 32
        assert sum(len(reqs) for reqs in records) == 3
        assert all(len(reqs) < 32 for reqs in records)

    def test_batches_never_exceed_max_batch_size(self, cnn, rng):
        records = []
        server = ModelServer(
            max_batch_size=4,
            max_delay_ms=50.0,
            on_batch=lambda name, reqs: records.append(reqs),
        )
        server.register("cnn", cnn)
        # Pre-start submissions pile up, so the worker wakes to a backlog and
        # would overfill batches if the bound were soft.
        futures = [
            server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))
            for _ in range(18)
        ]
        with server:
            for future in futures:
                future.result(timeout=60)
        sizes = [sum(r.num_samples for r in reqs) for reqs in records]
        assert sum(sizes) == 18
        assert max(sizes) <= 4
        assert max(sizes) == 4  # the backlog actually coalesced

    def test_stop_drain_completes_in_flight_futures(self, cnn, rng):
        server = ModelServer(max_batch_size=4, max_delay_ms=1.0)
        server.register("cnn", cnn)
        futures = [
            server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))
            for _ in range(10)
        ]
        server.start()
        server.stop(drain=True, timeout=60)
        for future in futures:
            assert future.result(timeout=0).shape == (4,)
        with pytest.raises(ServerClosed):
            server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))

    def test_stop_without_drain_fails_queued_futures(self, cnn, rng):
        server = ModelServer(max_batch_size=4, max_delay_ms=1.0)
        server.register("cnn", cnn)
        futures = [
            server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))
            for _ in range(6)
        ]
        # Never started: nothing is served, everything queued must fail fast.
        server.stop(drain=False, timeout=5)
        for future in futures:
            with pytest.raises(ServerClosed):
                future.result(timeout=0)

    def test_bad_shape_fails_only_its_own_future(self, cnn, rng):
        server = ModelServer(max_batch_size=8, max_delay_ms=50.0)
        server.register("cnn", cnn)
        good = [
            server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))
            for _ in range(2)
        ]
        bad = server.submit("cnn", rng.standard_normal((5, 12, 12)).astype(np.float32))
        with server:
            server.drain(timeout=60)
        for future in good:
            assert future.result(timeout=0).shape == (4,)
        with pytest.raises(Exception):
            bad.result(timeout=0)
        assert server.metrics("cnn")["requests"]["failed"] == 1

    def test_mixed_bitwidth_variants_do_not_cross_contaminate(self, rng):
        # Two instances with identical weights (same seed + same BN warm-up
        # draws) but different bit assignments, hosted side by side.
        model_mixed = _warmed_cnn(np.random.default_rng(7))
        model_low = _warmed_cnn(np.random.default_rng(7))
        free = [
            name
            for name, layer in model_mixed.quantizable_layers().items()
            if not layer.pinned
        ]
        model_mixed.apply_assignment(
            {name: (4 if i % 2 == 0 else 3) for i, name in enumerate(free)}
        )
        model_low.apply_assignment({name: 2 for name in free})

        server = ModelServer(max_batch_size=8, max_delay_ms=10.0)
        server.register("mixed", model_mixed)
        server.register("low", model_low)
        inputs = [rng.standard_normal(CNN_SHAPE).astype(np.float32) for _ in range(6)]
        got = {"mixed": [None] * 6, "low": [None] * 6}
        with server:
            def client(name, index):
                got[name][index] = server.predict(name, inputs[index], timeout=60)

            threads = [
                threading.Thread(target=client, args=(name, i))
                for i in range(6)
                for name in ("mixed", "low")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # Tight allclose, not bitwise: the server coalesced these singles into
        # larger batches, and BLAS accumulation order differs per batch shape.
        want_mixed = InferenceEngine(model_mixed, batch_size=64)
        want_low = InferenceEngine(model_low, batch_size=64)
        for i, x in enumerate(inputs):
            np.testing.assert_allclose(
                got["mixed"][i], want_mixed.predict_logits(x[np.newaxis])[0],
                rtol=1e-5, atol=1e-6,
            )
            np.testing.assert_allclose(
                got["low"][i], want_low.predict_logits(x[np.newaxis])[0],
                rtol=1e-5, atol=1e-6,
            )
            # The variants genuinely differ — identical results would mean
            # one assignment served both names.
            assert not np.array_equal(got["mixed"][i], got["low"][i])


# --------------------------------------------------------------------------- #
# ModelServer: admission control, lifecycle, validation
# --------------------------------------------------------------------------- #
class TestServerLifecycleAndAdmission:
    def test_queue_saturation_raises_and_counts(self, cnn, rng):
        server = ModelServer(max_batch_size=4, max_queue_depth=2)
        server.register("cnn", cnn)
        x = rng.standard_normal(CNN_SHAPE).astype(np.float32)
        server.submit("cnn", x)  # not started: nothing drains the queue
        server.submit("cnn", x)
        with pytest.raises(ServerOverloaded):
            server.submit("cnn", x, block=False)
        with pytest.raises(ServerOverloaded):
            server.submit("cnn", x, block=True, timeout=0.02)
        assert server.metrics("cnn")["requests"]["rejected"] == 2
        server.stop(drain=False)

    def test_context_manager_and_restart_refused(self, cnn, rng):
        server = ModelServer()
        server.register("cnn", cnn)
        with server:
            assert server.running
            with pytest.raises(RuntimeError):
                server.start()
        assert not server.running
        with pytest.raises(ServerClosed):
            server.start()

    def test_unknown_model_and_bad_inputs(self, cnn, rng):
        server = ModelServer(max_batch_size=4)
        server.register("cnn", cnn)
        x = rng.standard_normal(CNN_SHAPE).astype(np.float32)
        with pytest.raises(KeyError, match="registered: cnn"):
            server.submit("nope", x)
        with pytest.raises(ValueError):
            server.submit("cnn", np.float32(1.0))  # scalar: no sample axis
        with pytest.raises(ValueError):
            server.submit("cnn", np.zeros((0, *CNN_SHAPE), dtype=np.float32))
        with pytest.raises(ValueError, match="max_batch_size"):
            server.submit("cnn", rng.standard_normal((5, *CNN_SHAPE)).astype(np.float32))
        server.stop(drain=False)

    def test_registering_while_running(self, cnn, rng):
        server = ModelServer(max_batch_size=4, max_delay_ms=1.0)
        with server:
            server.register("cnn", cnn)
            logits = server.predict(
                "cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32), timeout=60
            )
        assert logits.shape == (4,)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ModelServer(max_batch_size=0)
        with pytest.raises(ValueError):
            ModelServer(max_delay_ms=-1.0)

    def test_empty_request_rejected_and_server_stays_healthy(self, cnn, rng):
        """Regression companion to the engine's zero-row fix.

        The frontend refuses a zero-row request up front with a typed
        ValueError — it must never occupy a batch slot or reach the engine —
        and the rejection leaves no admission bookkeeping behind: the lane
        keeps serving normally afterwards.
        """
        server = ModelServer(max_batch_size=4, max_delay_ms=1.0)
        with server:
            server.register("cnn", cnn)
            with pytest.raises(ValueError, match="empty request"):
                server.submit("cnn", np.zeros((0, *CNN_SHAPE), dtype=np.float32))
            logits = server.predict(
                "cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32), timeout=60
            )
            assert logits.shape == (4,)
            metrics = server.metrics("cnn")
            assert metrics["requests"]["completed"] == 1

    def test_raising_batch_observer_does_not_kill_the_worker(self, cnn, rng):
        """An ``on_batch`` hook that raises must not end the serving thread."""
        calls = []

        def hook(name, requests):
            calls.append(name)
            if len(calls) == 1:
                raise RuntimeError("observer bug")

        x = rng.standard_normal(CNN_SHAPE).astype(np.float32)
        with ModelServer(max_batch_size=4, max_delay_ms=0.0, on_batch=hook) as server:
            server.register("cnn", cnn)
            first = server.predict("cnn", x, timeout=60)
            second = server.submit("cnn", x).result(timeout=10)
            assert server.drain(timeout=10)
        np.testing.assert_array_equal(first, second)
        assert calls == ["cnn", "cnn"]
        (event,) = server.events.events(kind="batch_observer_failed")
        assert event["model"] == "cnn"
        assert "observer bug" in event["error"]


# --------------------------------------------------------------------------- #
# thread-safety of shared state
# --------------------------------------------------------------------------- #
    def test_untraceable_model_fails_its_requests_and_the_server_keeps_serving(
        self, cnn, rng
    ):
        from .parity import UntraceableNet

        server = ModelServer(max_batch_size=4, max_delay_ms=1.0)
        server.register("untraceable", UntraceableNet(image_size=12))
        server.register("compiled", cnn)
        with server:
            for _ in range(2):  # the lane survives the refusal and refuses again
                future = server.submit(
                    "untraceable", rng.standard_normal(CNN_SHAPE).astype(np.float32)
                )
                with pytest.raises(PlanTraceError, match="division"):
                    future.result(timeout=60)
            logits = server.predict(
                "compiled", rng.standard_normal(CNN_SHAPE).astype(np.float32), timeout=60
            )
            assert logits.shape == (4,)
            assert server.metrics("untraceable")["requests"]["failed"] == 2
            assert server.metrics("compiled")["requests"]["completed"] == 1


class TestThreadSafety:
    def test_no_grad_is_thread_local(self):
        from repro.nn.tensor import is_grad_enabled, no_grad

        inside = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                inside.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(timeout=10)
            # A worker serving under no_grad must not disable graph recording
            # for a concurrently-training thread.
            assert is_grad_enabled()
            x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
            (x * 2.0).sum().backward()
            assert x.grad is not None
        finally:
            release.set()
            thread.join()

    def test_shared_model_float_and_integer_serve_concurrently(self, cnn, rng):
        # Two engines over ONE model object (the supported float+integer
        # pairing) toggle the model's train/eval mode; the per-model lock
        # must keep concurrent lanes from corrupting each other.
        server = ModelServer(max_batch_size=8, max_delay_ms=5.0)
        server.register("float", cnn)
        server.register("int", cnn, mode="integer")
        inputs = [rng.standard_normal(CNN_SHAPE).astype(np.float32) for _ in range(8)]
        got = {"float": [None] * 8, "int": [None] * 8}
        with server:
            threads = [
                threading.Thread(
                    target=lambda name, i: got[name].__setitem__(
                        i, server.predict(name, inputs[i], timeout=60)
                    ),
                    args=(name, i),
                )
                for i in range(8)
                for name in ("float", "int")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not cnn.training  # eval mode restored despite interleaving
        want_float = InferenceEngine(cnn, batch_size=64)
        want_int = InferenceEngine(cnn, mode="integer", batch_size=64)
        for i, x in enumerate(inputs):
            np.testing.assert_allclose(
                got["float"][i], want_float.predict_logits(x[np.newaxis])[0],
                rtol=1e-5, atol=1e-6,
            )
            np.testing.assert_allclose(
                got["int"][i], want_int.predict_logits(x[np.newaxis])[0],
                rtol=1e-5, atol=1e-6,
            )

    def test_undersized_custom_engine_refused(self, cnn):
        server = ModelServer(max_batch_size=32)
        with pytest.raises(ValueError, match="single backend call"):
            server.register("cnn", engine=InferenceEngine(cnn, batch_size=8))
        server.register("cnn", engine=InferenceEngine(cnn, batch_size=32))
        server.stop(drain=False)


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #
class TestServerMetrics:
    def test_snapshot_shape_and_consistency(self, cnn, rng):
        server = ModelServer(max_batch_size=4, max_delay_ms=5.0)
        server.register("cnn", cnn)
        futures = [
            server.submit("cnn", rng.standard_normal(CNN_SHAPE).astype(np.float32))
            for _ in range(9)
        ]
        with server:
            for future in futures:
                future.result(timeout=60)
            snapshot = server.metrics("cnn")

        assert snapshot["requests"]["admitted"] == 9
        assert snapshot["requests"]["completed"] == 9
        assert snapshot["samples_completed"] == 9
        latency = snapshot["latency_ms"]
        assert 0 <= latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        occupancy = snapshot["batches"]["occupancy_histogram"]
        assert sum(int(k) * v for k, v in occupancy.items()) == 9
        assert snapshot["batches"]["served"] == sum(occupancy.values())
        assert snapshot["throughput_rps"] > 0
        assert snapshot["queue_depth"] == 0

    def test_aggregate_metrics_and_json_export(self, cnn, rng):
        import json

        server = ModelServer(max_batch_size=4, max_delay_ms=1.0)
        server.register("float", cnn)
        server.register("int", cnn, mode="integer")
        with server:
            x = rng.standard_normal(CNN_SHAPE).astype(np.float32)
            server.predict("float", x, timeout=60)
            server.predict("int", x, timeout=60)
            payload = json.loads(server.metrics_json())
        assert payload["server"]["requests_completed"] == 2
        assert set(payload["models"]) == {"float", "int"}
        assert payload["server"]["models_hosted"]["int"]["mode"] == "integer"


# --------------------------------------------------------------------------- #
# ServerMetrics: aggregation and torn-read safety (the cluster poller's view)
# --------------------------------------------------------------------------- #
class TestServerMetricsMergeAndConsistency:
    def test_merged_sums_counters_histograms_and_highwater(self):
        from repro.serve import ServerMetrics

        a, b = ServerMetrics(16), ServerMetrics(16)
        a.record_admitted(queue_depth=3)
        a.record_completion(0.010, 0.002, samples=1)
        a.record_batch(1, 0.005)
        b.record_admitted(queue_depth=7)
        b.record_admitted(queue_depth=1)
        b.record_completion(0.030, 0.004, samples=2)
        b.record_batch(2, 0.002)
        b.record_batch(2, 0.003)
        b.record_failed()

        merged = ServerMetrics.merged([a, b])
        counters = merged.counters()
        assert counters["admitted"] == 3
        assert counters["completed"] == 2
        assert counters["failed"] == 1
        assert counters["samples"] == 3
        assert counters["batches"] == 3
        snapshot = merged.snapshot()
        assert snapshot["batches"]["occupancy_histogram"] == {"1": 1, "2": 2}
        assert snapshot["queue_depth_highwater"] == 7
        assert snapshot["latency_ms"]["max"] == 30.0
        # Inputs are not mutated by aggregation.
        assert a.counters()["admitted"] == 1
        assert b.counters()["admitted"] == 2

    def test_merge_into_self_is_refused(self):
        from repro.serve import ServerMetrics

        metrics = ServerMetrics(8)
        with pytest.raises(ValueError):
            metrics.merge(metrics)

    def test_merge_keeps_lifetime_stats_beyond_window_capacity(self):
        from repro.serve import ServerMetrics

        a, b = ServerMetrics(4), ServerMetrics(4)
        for k in range(10):
            a.record_completion(0.001 * (k + 1), 0.0, samples=1)
            b.record_completion(0.002 * (k + 1), 0.0, samples=1)
        merged = ServerMetrics.merged([a, b])
        assert merged.counters()["completed"] == 20
        # max survives aggregation even though the windows are bounded
        assert merged.snapshot()["latency_ms"]["max"] == 20.0

    def test_snapshot_totals_are_consistent_under_concurrent_recording(self):
        """A process-boundary poller must never observe a torn update.

        Every record_completion adds one request and one sample under one
        lock; any snapshot taken concurrently must therefore show
        samples_completed == requests.completed — a mismatch is exactly the
        mid-update torn read the cluster poller cannot tolerate.
        """
        from repro.serve import ServerMetrics

        metrics = ServerMetrics(1024)
        stop = threading.Event()

        def recorder():
            while not stop.is_set():
                metrics.record_admitted(queue_depth=1)
                metrics.record_completion(0.001, 0.0005, samples=1)

        threads = [threading.Thread(target=recorder) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                snapshot = metrics.snapshot()
                assert snapshot["samples_completed"] == snapshot["requests"]["completed"]
                counters = metrics.counters()
                assert counters["samples"] == counters["completed"]
                assert counters["admitted"] >= counters["completed"]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

    def test_merge_under_concurrent_recording_does_not_deadlock(self):
        from repro.serve import ServerMetrics

        parts = [ServerMetrics(64) for _ in range(3)]
        stop = threading.Event()

        def recorder(part):
            while not stop.is_set():
                part.record_admitted(queue_depth=1)
                part.record_completion(0.001, 0.0, samples=1)

        threads = [threading.Thread(target=recorder, args=(part,)) for part in parts]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                merged = ServerMetrics.merged(parts)
                counters = merged.counters()
                assert counters["admitted"] >= counters["completed"]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
