"""Micro-benchmark: batched model server vs naive per-request serving loop.

Replays the same Poisson request trace (single-sample requests, exponential
inter-arrival times, offered load beyond saturation) through two serving
paths and writes ``benchmarks/BENCH_serving.json``:

* **per-request baseline** — the pre-frontend idiom: one thread popping
  requests in arrival order and calling ``InferenceEngine.predict_logits``
  on each single sample.  This path already enjoys every engine optimization
  (compiled plan, weight cache, staleness-gated refresh) — what it cannot do
  is batch, so every request pays the single-sample GEMM shapes that starve
  BLAS.
* **batched server** — :class:`repro.serve.ModelServer` with client threads
  replaying the same trace; the dynamic batcher coalesces the backlog into
  micro-batches before they hit the same engine kernels.

Throughput is completed requests per second of makespan (first arrival to
last completion).  The CI floor asserts the batched server clears
``SERVING_MIN_SPEEDUP`` times the baseline.  Set
``REPRO_BENCH_SERVING_SHORT=1`` (CI does) for a sub-minute run.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np

from repro.backend import get_backend
from repro.models import vgg11
from repro.nn import Tensor
from repro.serve import InferenceEngine, ModelServer

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT_PATH = os.path.join(HERE, "BENCH_serving.json")

# Acceptance floor (ISSUE 3): batched server vs per-request loop on the trace.
# Recalibrated in ISSUE 6: the per-request baseline rides the same serving
# kernels, and the chunked/calibrated conv schedules sped batch-1 inference
# up more than batch-32 (both improved in absolute terms), so the pure
# batching advantage this floor guards is structurally smaller now.
SERVING_MIN_SPEEDUP = 2.2

SHORT = os.environ.get("REPRO_BENCH_SERVING_SHORT", "").strip() not in ("", "0")
NUM_REQUESTS = 96 if SHORT else 256
REPEATS = 3
MEAN_INTERARRIVAL_S = 0.0002  # offered load far beyond single-stream capacity
MAX_BATCH_SIZE = 48
MAX_DELAY_MS = 4.0
NUM_CLIENTS = 4
INPUT_SHAPE = (3, 16, 16)  # small per-request tensors: where batching matters


def build_model():
    """VGG11 at half width on 16x16 crops with a mixed 4/2-bit assignment."""
    rng = np.random.default_rng(0)
    model = vgg11(num_classes=10, width_multiplier=0.5, input_size=16, seed=0)
    free = [name for name, layer in model.quantizable_layers().items() if not layer.pinned]
    model.apply_assignment(
        {name: (4 if index % 2 == 0 else 2) for index, name in enumerate(free)}
    )
    model(Tensor(rng.standard_normal((8, *INPUT_SHAPE)).astype(np.float32)))  # BN stats
    model.eval()
    return model


def make_trace(rng) -> np.ndarray:
    """Cumulative arrival offsets (seconds) of a Poisson request process."""
    return np.cumsum(rng.exponential(MEAN_INTERARRIVAL_S, size=NUM_REQUESTS))


def run_baseline(engine, requests, arrivals) -> tuple:
    """Serve the trace one request at a time, in arrival order."""
    logits = [None] * NUM_REQUESTS
    start = time.perf_counter()
    for index in range(NUM_REQUESTS):
        delay = arrivals[index] - (time.perf_counter() - start)
        if delay > 0:
            time.sleep(delay)
        logits[index] = engine.predict_logits(requests[index : index + 1])[0]
    return time.perf_counter() - start, np.stack(logits)


def run_server(engine, requests, arrivals) -> tuple:
    """Serve the trace through the batched server with concurrent clients.

    The engine arrives pre-traced (as does the baseline's) so both paths
    measure steady-state serving, not one-off plan compilation.
    """
    server = ModelServer(max_batch_size=MAX_BATCH_SIZE, max_delay_ms=MAX_DELAY_MS)
    server.register("bench", engine=engine)
    futures = [None] * NUM_REQUESTS
    with server:
        start = time.perf_counter()

        def client(worker):
            for index in range(worker, NUM_REQUESTS, NUM_CLIENTS):
                delay = arrivals[index] - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                futures[index] = server.submit("bench", requests[index])

        clients = [
            threading.Thread(target=client, args=(worker,)) for worker in range(NUM_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        logits = np.stack([future.result(timeout=120) for future in futures])
        makespan = time.perf_counter() - start
        snapshot = server.metrics("bench")
    return makespan, logits, snapshot


def main() -> int:
    print(f"building VGG11 w=0.5 on {INPUT_SHAPE} (short={SHORT})...")
    model = build_model()
    rng = np.random.default_rng(0)
    requests = rng.standard_normal((NUM_REQUESTS, *INPUT_SHAPE)).astype(np.float32)
    arrivals = make_trace(rng)

    baseline_engine = InferenceEngine(model, batch_size=MAX_BATCH_SIZE)
    baseline_engine.predict_logits(requests[:1])  # trace + verify outside timing
    server_engine = InferenceEngine(model, batch_size=MAX_BATCH_SIZE)
    server_engine.predict_logits(requests[:1])

    best_baseline = float("inf")
    best_server = float("inf")
    baseline_logits = server_logits = snapshot = None
    for _ in range(REPEATS):
        makespan, logits = run_baseline(baseline_engine, requests, arrivals)
        if makespan < best_baseline:
            best_baseline, baseline_logits = makespan, logits
        makespan, logits, metrics = run_server(server_engine, requests, arrivals)
        if makespan < best_server:
            best_server, server_logits, snapshot = makespan, logits, metrics

    baseline_rps = NUM_REQUESTS / best_baseline
    server_rps = NUM_REQUESTS / best_server
    speedup = server_rps / baseline_rps
    agreement = float(
        (baseline_logits.argmax(axis=-1) == server_logits.argmax(axis=-1)).mean()
    )

    report = {
        "workload": (
            f"VGG11 width=0.5, {INPUT_SHAPE} inputs, mixed 4/2-bit assignment, "
            f"Poisson trace of {NUM_REQUESTS} single-sample requests "
            f"(mean inter-arrival {MEAN_INTERARRIVAL_S * 1e3:.2f} ms)"
        ),
        "machine": {"cpu_count": os.cpu_count(), "backend": get_backend().name},
        "short_mode": SHORT,
        "floors": {"serving_min_speedup": SERVING_MIN_SPEEDUP},
        "config": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_delay_ms": MAX_DELAY_MS,
            "clients": NUM_CLIENTS,
        },
        "cases": {
            "poisson_trace": {
                "baseline_rps": round(baseline_rps, 1),
                "server_rps": round(server_rps, 1),
                "speedup": round(speedup, 2),
                "baseline_ms_per_request": round(best_baseline / NUM_REQUESTS * 1e3, 3),
                "server_ms_per_request": round(best_server / NUM_REQUESTS * 1e3, 3),
                "prediction_agreement": agreement,
            }
        },
        "server_metrics": snapshot,
    }
    with open(OUTPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    occupancy = snapshot["batches"]["occupancy_mean"]
    latency = snapshot["latency_ms"]
    print(
        f"baseline: {baseline_rps:.0f} req/s   server: {server_rps:.0f} req/s   "
        f"speedup {speedup:.2f}x (floor {SERVING_MIN_SPEEDUP}x)"
    )
    print(
        f"server telemetry: batch occupancy {occupancy:.1f} samples, "
        f"latency p50 {latency['p50']:.1f} ms / p95 {latency['p95']:.1f} ms / "
        f"p99 {latency['p99']:.1f} ms, agreement {agreement:.3f}"
    )
    print(f"wrote {OUTPUT_PATH}")
    if speedup < SERVING_MIN_SPEEDUP:
        print(
            f"FAIL: batched server is only {speedup:.2f}x the per-request "
            f"baseline (floor {SERVING_MIN_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
