"""Span acceptance: traced requests through live servers.

The core ISSUE 8 contract — a request through a 2-shard cluster yields a
span whose queue_wait/batch/wire/execute stages sum to within 10% of the
observed end-to-end latency — lives here, pinned against both server
classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import SPAN_STAGES
from repro.serve import InferenceEngine, ModelServer
from repro.serve.chaos import DispatchFaults
from repro.serve.cluster import ClusterServer
from repro.utils import save_quantized_checkpoint

from ..serve.cluster_models import build_parity_model, build_simple

PARITY_SEED = 5
PARITY_SHAPE = (3, 8, 8)
SIMPLE_SHAPE = (3, 12, 12)


@pytest.fixture(scope="module")
def parity_checkpoint(tmp_path_factory):
    model = build_parity_model(PARITY_SEED)
    path = str(tmp_path_factory.mktemp("obs-cluster") / "parity.npz")
    return save_quantized_checkpoint(
        path,
        model,
        model_factory="tests.serve.cluster_models:build_parity_model",
        factory_kwargs={"seed": PARITY_SEED},
    )


class TestModelServerSpans:
    def _server(self, **kwargs):
        engine = InferenceEngine(build_simple(seed=0), batch_size=16)
        server = ModelServer(max_batch_size=8, max_delay_ms=0.0, **kwargs)
        server.register("simple", engine=engine)
        return server

    def test_completed_span_stages_sum_to_e2e(self):
        rng = np.random.default_rng(0)
        with self._server() as server:
            server.predict("simple", rng.standard_normal(SIMPLE_SHAPE).astype(np.float32))
            future = server.submit(
                "simple",
                rng.standard_normal(SIMPLE_SHAPE).astype(np.float32),
                trace_id="ms-1",
            )
            future.result(timeout=60)
            span = server.spans.find("ms-1")
        assert span is not None
        assert span["status"] == "completed"
        assert span["model"] == "simple"
        # The in-process path has no wire hop; the other stages must be there.
        for stage in ("queue_wait", "batch", "execute"):
            assert stage in span["stages_ms"]
        assert abs(span["total_ms"] - span["e2e_ms"]) <= 0.10 * span["e2e_ms"]

    def test_generated_trace_ids_when_caller_supplies_none(self):
        rng = np.random.default_rng(1)
        with self._server() as server:
            server.predict("simple", rng.standard_normal(SIMPLE_SHAPE).astype(np.float32))
            spans = server.spans.spans()
        assert len(spans) == 1
        assert spans[0]["trace_id"]  # auto-generated, non-empty

    def test_tracing_can_be_disabled(self):
        rng = np.random.default_rng(2)
        with self._server(trace=False) as server:
            server.predict("simple", rng.standard_normal(SIMPLE_SHAPE).astype(np.float32))
            assert len(server.spans) == 0

    def test_telemetry_targets_shape(self):
        with self._server() as server:
            targets = server.telemetry_targets()
        assert len(targets) == 1
        assert targets[0]["labels"] == {"model": "simple"}
        assert targets[0]["queue_depth"] == 0
        assert targets[0]["metrics"].parts == 1


class TestClusterSpans:
    def test_two_shard_span_has_full_chain_within_ten_percent(self, parity_checkpoint):
        rng = np.random.default_rng(0)
        with ClusterServer(max_batch_size=8, max_delay_ms=0.0) as cluster:
            cluster.register("m", parity_checkpoint, shards=2)
            # Two requests back to back, each held briefly before the wire so
            # both are in flight: least-outstanding routing puts one on each
            # fresh shard, and server-wide request ids keep the spans apart.
            cluster.fault_injector = DispatchFaults(delay_p=1.0, delay_s=0.05)
            pair = [
                cluster.submit(
                    "m",
                    rng.standard_normal(PARITY_SHAPE).astype(np.float32),
                    trace_id=f"cl-pair-{index}",
                )
                for index in range(2)
            ]
            for pending in pair:
                pending.result(timeout=60)
            cluster.fault_injector = None
            pair_spans = [cluster.spans.find(f"cl-pair-{index}") for index in range(2)]
            for _ in range(3):  # warm both shards past first-request costs
                cluster.predict(
                    "m", rng.standard_normal(PARITY_SHAPE).astype(np.float32), timeout=60
                )
            future = cluster.submit(
                "m",
                rng.standard_normal(PARITY_SHAPE).astype(np.float32),
                trace_id="cl-1",
            )
            future.result(timeout=60)
            span = cluster.spans.find("cl-1")

            targets = cluster.telemetry_targets()

        assert span is not None
        assert span["status"] == "completed"
        assert span["variant"] == "m"
        for stage in SPAN_STAGES:
            assert stage in span["stages_ms"], f"missing {stage}"
        # The acceptance contract: the stage chain accounts for the request's
        # end-to-end life to within 10%.
        assert abs(span["total_ms"] - span["e2e_ms"]) <= 0.10 * span["e2e_ms"]
        # Worker-side execute came back over the wire and is non-trivial.
        assert span["stages_ms"]["execute"] > 0.0
        assert {s["shard"] for s in pair_spans} == {0, 1}
        assert pair_spans[0]["request_id"] != pair_spans[1]["request_id"]

        assert len(targets) == 2
        assert {t["labels"]["shard"] for t in targets} == {"0", "1"}
        assert all(t["labels"]["variant"] == "m" for t in targets)

    def test_cluster_tracing_can_be_disabled(self, parity_checkpoint):
        rng = np.random.default_rng(1)
        with ClusterServer(max_batch_size=8, max_delay_ms=0.0, trace=False) as cluster:
            cluster.register("m", parity_checkpoint, shards=1)
            cluster.predict(
                "m", rng.standard_normal(PARITY_SHAPE).astype(np.float32), timeout=60
            )
            assert len(cluster.spans) == 0
