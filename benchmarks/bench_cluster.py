"""Micro-benchmark: process-sharded cluster vs the single-process ModelServer.

Replays the same Poisson request trace (single-sample requests, exponential
inter-arrival times, offered load beyond saturation) through two serving
paths on a small workload (`cluster_workload.GilBoundNet`) whose compiled
plan is still Python-bound: at batch 1 the per-step dispatch and glue
outweigh the GEMMs, and threads cannot parallelise that under the GIL.  It
writes ``benchmarks/BENCH_cluster.json``:

* **single-process baseline** — :class:`repro.serve.ModelServer`: the PR 3
  frontend, one worker thread driving the compiled engine.  Batching works;
  the GIL caps the whole host at roughly one core.
* **cluster** — :class:`repro.serve.cluster.ClusterServer` with
  ``CLUSTER_SHARDS`` worker processes booted from a quantized checkpoint,
  each running the identical compiled engine behind the binary wire
  protocol.

Throughput is completed requests per second of makespan.  The CI floor
(``CLUSTER_MIN_SPEEDUP``) asserts the cluster clears 2x the single process —
**enforced only when enough CPU cores are available for the shards to
actually run in parallel** (``floor_enforced`` in the report); on a 1-2 core
box the numbers are reported but cannot gate.  Whether this workload's
compiled plan clears the floor on 3 or more cores is unverified.  Set
``REPRO_BENCH_CLUSTER_SHORT=1`` (CI does) for a sub-minute run.

**Chaos mode** (``REPRO_BENCH_CHAOS=1``, or ``REPRO_BENCH_CHAOS_SHORT=1``
for the ≤60 s CI smoke, or ``--chaos``) replaces the throughput race with a
survivability run: a seeded bursty trace of mixed batch sizes, priorities
and deadlines (:mod:`repro.serve.chaos.trafficgen`) plays against a 2-shard
cluster while a :class:`~repro.serve.chaos.faults.FaultPlan` SIGKILLs
workers mid-flight.  The run writes ``benchmarks/BENCH_chaos.json`` and
gates on the **survivability contract**:

* zero lost requests — every admitted, non-expired request resolves with a
  result or a typed rejection (``WorkerCrashed`` leaking to a caller while
  retry budget remained is a lost request);
* bitwise-correct responses — every completed micro-batch is re-computed
  through a local reference engine *in the exact served composition* (row
  results are not bitwise-stable across different batch packings, so the
  check rides the router's ``on_batch`` hook where the composition is
  known);
* bounded p99 — the kill storm may cost restarts, not unbounded tail
  latency (``CHAOS_MAX_P99_S``);
* complete spans — every completed request resolves to a server-side span
  with the full queue_wait/batch/wire/execute stage chain, and no
  run_trace-issued trace id is orphaned (ISSUE 8: telemetry must survive the
  same storm the requests do).

``--metrics-port N`` (or ``REPRO_METRICS_PORT``) additionally mounts a
Prometheus exporter on the cluster under test, scrapes it (twice in chaos
mode — before and after the storm), lints the exposition text and records
the verdict in the report.  Port 0 picks any free port.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --chaos
    PYTHONPATH=src python benchmarks/bench_cluster.py --chaos --metrics-port 0
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from cluster_workload import INPUT_SHAPE, build_workload_model  # noqa: E402

from repro.backend import get_backend  # noqa: E402
from repro.obs import (  # noqa: E402
    SPAN_STAGES,
    BurnRateRule,
    MetricsExporter,
    SLOEngine,
    SLOPoller,
    check_counters_monotonic,
    default_objectives,
    get_logger,
    lint_exposition,
    log_event,
    make_flight_recorder,
    scrape,
    server_view,
)
from repro.serve import InferenceEngine, ModelServer  # noqa: E402
from repro.serve.cluster import BreakerPolicy, ClusterServer  # noqa: E402
from repro.serve.chaos import (  # noqa: E402
    DispatchFaults,
    FaultPlan,
    FrameFaults,
    KillStormEvent,
    TrafficSpec,
    generate_trace,
    run_trace,
)
from repro.utils import save_quantized_checkpoint  # noqa: E402

OUTPUT_PATH = os.path.join(HERE, "BENCH_cluster.json")
CHAOS_OUTPUT_PATH = os.path.join(HERE, "BENCH_chaos.json")
#: Dumped by the SLO engine's on_firing hook during the kill storm; CI uploads
#: it as an artifact when the chaos smoke raises an alert.
FLIGHT_RECORDER_PATH = os.path.join(HERE, "chaos_flight_recorder.json")

# Acceptance floor (ISSUE 5): cluster vs single-process ModelServer on the
# GIL-bound trace, when the cores exist to parallelise across.
CLUSTER_MIN_SPEEDUP = 2.0
#: Cores needed before the floor is meaningful: the shards must be able to
#: run concurrently with each other (and the router).
MIN_CORES_FOR_FLOOR = 3

SHORT = os.environ.get("REPRO_BENCH_CLUSTER_SHORT", "").strip() not in ("", "0")

# Chaos mode (see run_chaos): survivability instead of throughput.
CHAOS_SHORT = os.environ.get("REPRO_BENCH_CHAOS_SHORT", "").strip() not in ("", "0")
CHAOS = (
    CHAOS_SHORT
    or os.environ.get("REPRO_BENCH_CHAOS", "").strip() not in ("", "0")
    or "--chaos" in sys.argv[1:]
)
CHAOS_SEED = int(os.environ.get("REPRO_BENCH_CHAOS_SEED", "20260808"))
CHAOS_REQUESTS = 160 if CHAOS_SHORT else 480
#: Survivability contract: p99 end-to-end latency bound under the kill storm.
CHAOS_MAX_P99_S = 20.0

def _parse_metrics_port(argv) -> "int | None":
    """``--metrics-port N`` / ``--metrics-port=N`` / REPRO_METRICS_PORT env."""
    for index, arg in enumerate(argv):
        if arg == "--metrics-port" and index + 1 < len(argv):
            return int(argv[index + 1])
        if arg.startswith("--metrics-port="):
            return int(arg.split("=", 1)[1])
    env = os.environ.get("REPRO_METRICS_PORT", "").strip()
    return int(env) if env else None


#: When set, the bench mounts a Prometheus exporter on the cluster under
#: test, scrapes it, and records the lint verdict in the report (0 = any
#: free port; the chosen port is printed).
METRICS_PORT = _parse_metrics_port(sys.argv[1:])


def _mount_exporter(source):
    if METRICS_PORT is None:
        return None
    exporter = MetricsExporter(source, port=METRICS_PORT)
    exporter.start()
    print(f"metrics exporter listening on {exporter.url}")
    return exporter


def _scrape_report(exporter):
    """One scrape → lint verdict dict for the bench report (None when unmounted)."""
    if exporter is None:
        return None
    text = scrape(exporter.url)
    problems = lint_exposition(text)
    return {
        "url": exporter.url,
        "bytes": len(text),
        "lint_problems": problems,
        "lint_passed": not problems,
        "text": text,
    }


NUM_REQUESTS = 96 if SHORT else 256
REPEATS = 2 if SHORT else 3
MEAN_INTERARRIVAL_S = 0.0002  # offered load far beyond one process's capacity
MAX_BATCH_SIZE = 16
MAX_DELAY_MS = 2.0
NUM_CLIENTS = 4


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


CLUSTER_SHARDS = max(2, min(4, available_cores()))


def make_trace(rng) -> np.ndarray:
    """Cumulative arrival offsets (seconds) of a Poisson request process."""
    return np.cumsum(rng.exponential(MEAN_INTERARRIVAL_S, size=NUM_REQUESTS))


def replay_trace(submit, requests, arrivals):
    """Drive ``submit(index) -> future`` from NUM_CLIENTS client threads."""
    futures = [None] * NUM_REQUESTS
    start = time.perf_counter()

    def client(worker):
        for index in range(worker, NUM_REQUESTS, NUM_CLIENTS):
            delay = arrivals[index] - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            futures[index] = submit(index)

    clients = [threading.Thread(target=client, args=(k,)) for k in range(NUM_CLIENTS)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    logits = np.stack([future.result(timeout=300) for future in futures])
    return time.perf_counter() - start, logits


def run_single_process(model, requests, arrivals):
    """The in-process ModelServer: one worker thread driving the compiled engine."""
    engine = InferenceEngine(model, batch_size=max(64, MAX_BATCH_SIZE))
    engine.predict_logits(requests[:1])  # trace outside timing
    server = ModelServer(max_batch_size=MAX_BATCH_SIZE, max_delay_ms=MAX_DELAY_MS)
    server.register("bench", engine=engine)
    with server:
        makespan, logits = replay_trace(
            lambda index: server.submit("bench", requests[index]), requests, arrivals
        )
        snapshot = server.metrics("bench")
    return makespan, logits, snapshot


def run_cluster(checkpoint_path, requests, arrivals):
    """The same trace through CLUSTER_SHARDS worker processes."""
    with ClusterServer(
        max_batch_size=MAX_BATCH_SIZE,
        max_delay_ms=MAX_DELAY_MS,
        request_timeout_s=120.0,
    ) as cluster:
        cluster.register(
            "bench",
            checkpoint_path,
            shards=CLUSTER_SHARDS,
            max_shards=CLUSTER_SHARDS,
        )
        cluster.predict("bench", requests[0], timeout=120)  # first-request warmth
        exporter = _mount_exporter(cluster)
        try:
            makespan, logits = replay_trace(
                lambda index: cluster.submit("bench", requests[index]), requests, arrivals
            )
            snapshot = cluster.metrics("bench")
            http_report = _scrape_report(exporter)
            if http_report is not None:
                http_report.pop("text", None)
                snapshot["metrics_http"] = http_report
        finally:
            if exporter is not None:
                exporter.close()
    return makespan, logits, snapshot


class BitwiseChecker:
    """Re-computes every served micro-batch in its exact composition.

    Logits rows are *not* bitwise-stable across batch packings (BLAS picks
    different kernels/blockings by shape), so an offline per-request
    reference cannot certify the wire.  The router's ``on_batch`` hook sees
    the exact request list each worker stacked, so re-running that stack
    through a local reference engine and comparing row-for-row is a true
    bitwise check of everything the worker and the protocol did.
    """

    def __init__(self, engine: InferenceEngine) -> None:
        self._engine = engine
        self._lock = threading.Lock()
        self.checked = 0
        self.mismatched = 0

    def __call__(self, variant_name, requests) -> None:
        stacked = (
            requests[0].inputs
            if len(requests) == 1
            else np.concatenate([r.inputs for r in requests], axis=0)
        )
        with self._lock:
            expected = self._engine.predict_logits(stacked)
        offset = 0
        for request in requests:
            rows = expected[offset : offset + request.num_samples]
            offset += request.num_samples
            if request.future.exception() is not None:
                continue  # expired mid-flight: no result to check
            got = request.future.result()
            want = rows[0] if request.squeeze else rows
            self.checked += 1
            if not np.array_equal(got, want):
                self.mismatched += 1


def run_chaos(model, checkpoint_path) -> int:
    """Kill-storm survivability run; writes BENCH_chaos.json, 1 on violation."""
    if os.path.exists(FLIGHT_RECORDER_PATH):
        os.remove(FLIGHT_RECORDER_PATH)  # never report a stale bundle
    trace = generate_trace(
        TrafficSpec(
            variants=["bench"],
            arrivals="bursty",
            arrival_kwargs={"on_rate_hz": 150.0, "on_s": 0.25, "off_s": 0.35},
            num_requests=CHAOS_REQUESTS,
            batch_sizes=(1, 2, 4),
            batch_weights=(0.6, 0.25, 0.15),
            priorities=(0, 1),
            priority_weights=(0.75, 0.25),
            deadline_fraction=0.25,
            deadline_range_s=(0.5, 2.0),
        ),
        seed=CHAOS_SEED,
    )
    duration = float(trace[-1]["t"])
    storm = [
        KillStormEvent(at_s=duration * 0.25, variant="bench", kills=2),
        KillStormEvent(at_s=duration * 0.60, variant="bench", kills=1),
    ]
    if not CHAOS_SHORT:
        storm.append(KillStormEvent(at_s=duration * 0.85, variant="bench", kills=2))
    plan = FaultPlan(
        seed=CHAOS_SEED,
        dispatch_faults=DispatchFaults(delay_p=0.05, delay_s=0.02, seed=CHAOS_SEED),
        frame_faults=None
        if CHAOS_SHORT
        # Frame loss surfaces as request timeouts -> crash path -> retry;
        # only the long run pays those stalls.
        else FrameFaults(drop_send_p=0.003, drop_recv_p=0.003, seed=CHAOS_SEED),
        kill_storm=storm,
    )
    reference = InferenceEngine(model, batch_size=64).warmup()
    checker = BitwiseChecker(reference)

    print(
        f"chaos bench: {CHAOS_REQUESTS} requests over ~{duration:.1f}s, "
        f"{len(storm)} kill events, seed {CHAOS_SEED} (short={CHAOS_SHORT})"
    )
    with ClusterServer(
        max_batch_size=8,
        max_delay_ms=2.0,
        max_queue_depth=32,
        request_timeout_s=15.0,
        # The storm is *supposed* to kill workers repeatedly; the crash-loop
        # bound must stay far away or a failed shard loses its queue (which
        # the contract would rightly flag as lost requests).
        max_restarts=100,
        max_request_retries=8,
        breaker_policy=BreakerPolicy(failure_threshold=2, open_for_s=0.5),
        on_batch=checker,
    ) as cluster:
        cluster.register(
            "bench",
            checkpoint_path,
            shards=2,
            max_shards=2,
            chaos_latency_s=0.01,  # widen the in-flight window the storm targets
        )
        cluster.predict("bench", np.zeros(INPUT_SHAPE, dtype=np.float32), timeout=120)
        cluster.enable_model_health(shadow_sample_every=0)  # drift gauges, no shadow
        exporter = _mount_exporter(cluster)
        scrape_before = _scrape_report(exporter)

        # SLO acceptance (ISSUE 10): availability must stay silent through a
        # calm warmup, fire during the kill storm, and resolve once healthy
        # traffic returns.  Burn windows are scaled to bench time (seconds,
        # not the minutes a production rule would use).
        engine_ref: list = []
        slo = SLOEngine(
            server_view(cluster),
            default_objectives(
                availability_target=0.99,
                p99_bound_s=None,
                drift_bound=None,
                rules=(BurnRateRule(long_s=4.0, short_s=1.0, burn_threshold=2.0),),
                clear_after_s=1.0,
            ),
            on_firing=make_flight_recorder(
                cluster, FLIGHT_RECORDER_PATH, engine_ref=engine_ref
            ),
        )
        engine_ref.append(slo)
        calm_trace = generate_trace(
            TrafficSpec(
                variants=["bench"],
                arrivals="poisson",
                arrival_kwargs={"rate_hz": 60.0},
                num_requests=48 if CHAOS_SHORT else 96,
                batch_sizes=(1, 2),
                batch_weights=(0.8, 0.2),
                priorities=(0,),
                priority_weights=(1.0,),
            ),
            seed=CHAOS_SEED + 1,
        )
        for record in calm_trace:
            # Keep the calm phase's span trace ids disjoint from the storm's.
            record["id"] = int(record["id"]) + 1_000_000

        with SLOPoller(slo, interval_s=0.1):
            calm_outcomes = run_trace(
                cluster, calm_trace, INPUT_SHAPE, result_timeout_s=60.0
            )
            slo.evaluate()
            calm_transitions = list(slo.transitions())

            started = time.perf_counter()
            with plan.apply(cluster):
                outcomes = run_trace(
                    cluster, trace, INPUT_SHAPE, result_timeout_s=300.0
                )
            makespan = time.perf_counter() - started
            slo.evaluate()
            storm_transitions = list(slo.transitions())

            # Post-storm: healthy traffic until the alert clears (bounded).
            resolve_deadline = time.monotonic() + 30.0
            while (
                slo.state("availability") != "ok"
                and time.monotonic() < resolve_deadline
            ):
                try:
                    cluster.predict(
                        "bench", np.zeros(INPUT_SHAPE, dtype=np.float32), timeout=10
                    )
                except Exception:  # noqa: BLE001 - stragglers don't end the probe
                    pass
                time.sleep(0.05)
            slo.evaluate()
        slo_transitions = list(slo.transitions())
        slo_final_state = slo.state("availability")

        cluster.drain(timeout=60.0)
        snapshot = cluster.metrics("bench")
        scrape_after = _scrape_report(exporter)
        if exporter is not None:
            exporter.close()
        spans = cluster.spans.spans()
        spans_dropped = cluster.spans.dropped_total

    tally = {}
    for outcome in outcomes:
        tally[outcome.status] = tally.get(outcome.status, 0) + 1
    lost = [
        outcome
        for outcome in outcomes
        if outcome.status in ("crashed", "failed", "closed")
    ]
    completed_latencies = sorted(
        outcome.latency_s for outcome in outcomes if outcome.status == "completed"
    )
    p99_s = (
        float(np.percentile(completed_latencies, 99.0)) if completed_latencies else 0.0
    )
    merged = snapshot["merged"]
    restarts = sum(view["restarts"] for view in snapshot["shards"].values())

    # Span completeness: every completed outcome must have a server-side span
    # carrying the full queue_wait/batch/wire/execute chain, and no span with
    # a run_trace-issued id may lack a matching outcome (an orphan would mean
    # the kill storm detached a request from its telemetry).
    spans_by_id = {}
    for span in spans:
        spans_by_id.setdefault(span["trace_id"], []).append(span)
    missing_chain = []
    for outcome in outcomes:
        if outcome.status != "completed":
            continue
        candidates = spans_by_id.get(outcome.trace_id, [])
        if not any(
            span["status"] == "completed"
            and all(stage in span["stages_ms"] for stage in SPAN_STAGES)
            for span in candidates
        ):
            missing_chain.append(outcome.trace_id)
    outcome_ids = {outcome.trace_id for outcome in outcomes}
    outcome_ids |= {outcome.trace_id for outcome in calm_outcomes}
    orphan_spans = sorted(
        trace_id
        for trace_id in spans_by_id
        if trace_id.startswith("trace-") and trace_id not in outcome_ids
    )
    span_check = {
        "completed_outcomes": sum(1 for o in outcomes if o.status == "completed"),
        "spans_recorded": len(spans),
        "spans_dropped": int(spans_dropped),
        "missing_chain": missing_chain[:10],
        "missing_chain_count": len(missing_chain),
        "orphan_spans": orphan_spans[:10],
        "orphan_span_count": len(orphan_spans),
        "passed": not missing_chain and not orphan_spans and spans_dropped == 0,
    }

    fired_during_storm = any(
        t["kind"] == "slo_firing" for t in storm_transitions
    )
    resolved_after = (
        any(t["kind"] == "slo_resolved" for t in slo_transitions)
        and slo_final_state == "ok"
    )
    calm_lost = sum(1 for o in calm_outcomes if o.status != "completed")
    slo_check = {
        "objective": "availability",
        "rules": [{"long_s": 4.0, "short_s": 1.0, "burn_threshold": 2.0}],
        "calm_requests": len(calm_outcomes),
        "calm_incomplete": calm_lost,
        "calm_false_positives": len(calm_transitions),
        "fired_during_storm": fired_during_storm,
        "resolved_after_storm": resolved_after,
        "final_state": slo_final_state,
        "transitions": [
            {key: value for key, value in t.items() if key != "view"}
            for t in slo_transitions
        ],
        "flight_recorder": (
            os.path.basename(FLIGHT_RECORDER_PATH)
            if os.path.exists(FLIGHT_RECORDER_PATH)
            else None
        ),
        "passed": (
            not calm_transitions and fired_during_storm and resolved_after
        ),
    }

    contract = {
        "lost_requests": len(lost),
        "bitwise_checked": checker.checked,
        "bitwise_mismatched": checker.mismatched,
        "p99_s": round(p99_s, 4),
        "max_p99_s": CHAOS_MAX_P99_S,
        "span_completeness": span_check,
        "slo": slo_check,
        "passed": (
            not lost
            and checker.mismatched == 0
            and p99_s <= CHAOS_MAX_P99_S
            and span_check["passed"]
            and slo_check["passed"]
        ),
    }
    report = {
        "mode": "chaos",
        "short_mode": CHAOS_SHORT,
        "seed": CHAOS_SEED,
        "machine": {"cpu_count": os.cpu_count(), "backend": get_backend().name},
        "trace": {
            "requests": CHAOS_REQUESTS,
            "duration_s": round(duration, 3),
            "makespan_s": round(makespan, 3),
            "arrivals": "bursty",
        },
        "faults": {
            "kill_events": [
                {"at_s": round(event.at_s, 3), "kills": event.kills} for event in storm
            ],
            "frame_faults": plan.frame_faults is not None,
            "injected": plan.events,
            "dispatch_delays": plan.dispatch_faults.delays_injected,
        },
        "outcomes": tally,
        "counters": {
            "requests_expired": merged["requests"]["expired"],
            "requests_shed": merged["requests"]["shed"],
            "requests_retried": merged["requests"]["retried"],
            "breaker_open_total": merged["breaker_open_total"],
            "worker_restarts": restarts,
        },
        "contract": contract,
        "cluster_metrics": snapshot,
    }
    if scrape_before is not None and scrape_after is not None:
        monotonic_problems = check_counters_monotonic(
            scrape_before["text"], scrape_after["text"]
        )
        for entry in (scrape_before, scrape_after):
            entry.pop("text", None)
        report["metrics_http"] = {
            "before_storm": scrape_before,
            "after_storm": scrape_after,
            "counter_monotonic_problems": monotonic_problems,
            "counters_monotonic": not monotonic_problems,
        }
    with open(CHAOS_OUTPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(
        f"outcomes: {tally}   retried {merged['requests']['retried']}, "
        f"expired {merged['requests']['expired']}, shed {merged['requests']['shed']}, "
        f"restarts {restarts}, breaker opens {merged['breaker_open_total']}"
    )
    print(
        f"bitwise: {checker.mismatched}/{checker.checked} mismatched   "
        f"p99 {p99_s:.3f}s (bound {CHAOS_MAX_P99_S}s)"
    )
    print(
        f"spans: {span_check['spans_recorded']} recorded, "
        f"{span_check['missing_chain_count']} incomplete chains, "
        f"{span_check['orphan_span_count']} orphans, "
        f"{span_check['spans_dropped']} dropped"
    )
    print(
        f"slo: calm transitions {len(calm_transitions)}, "
        f"fired during storm {fired_during_storm}, "
        f"resolved after {resolved_after} (final state {slo_final_state}, "
        f"{len(slo_transitions)} transitions, "
        f"flight recorder {slo_check['flight_recorder']})"
    )
    print(f"wrote {CHAOS_OUTPUT_PATH}")
    if not contract["passed"]:
        for outcome in lost[:5]:
            print(
                f"LOST: record {outcome.record['id']} -> {outcome.status}: "
                f"{outcome.error}",
                file=sys.stderr,
            )
        print(
            f"FAIL: survivability contract violated "
            f"(lost={len(lost)}, bitwise_mismatched={checker.mismatched}, "
            f"p99={p99_s:.3f}s > {CHAOS_MAX_P99_S}s allowed "
            f"= {p99_s > CHAOS_MAX_P99_S}, "
            f"span_completeness={span_check['passed']}, "
            f"slo={slo_check['passed']})",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    cores = available_cores()
    floor_enforced = cores >= MIN_CORES_FOR_FLOOR
    if not floor_enforced:
        log_event(
            get_logger("bench.cluster"),
            logging.WARNING,
            "speedup_floor_not_enforced",
            cores=cores,
            min_cores_for_floor=MIN_CORES_FOR_FLOOR,
            detail=(
                "shards cannot run in parallel on this box; the numbers are "
                'report-only and the bench cannot gate ("floor_enforced": '
                "false in the report)"
            ),
        )
    model = build_workload_model()
    model.eval()

    if CHAOS:
        with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
            checkpoint = save_quantized_checkpoint(
                os.path.join(tmp, "workload.npz"),
                model,
                model_factory="cluster_workload:build_workload_model",
                factory_kwargs={},
            )
            return run_chaos(model, checkpoint)

    print(
        f"GIL-bound cluster bench: {NUM_REQUESTS} requests, "
        f"{CLUSTER_SHARDS} shards, {cores} cores available "
        f"(short={SHORT}, floor {'ENFORCED' if floor_enforced else 'report-only'})"
    )
    rng = np.random.default_rng(0)
    requests = rng.standard_normal((NUM_REQUESTS, *INPUT_SHAPE)).astype(np.float32)
    arrivals = make_trace(rng)

    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        checkpoint = save_quantized_checkpoint(
            os.path.join(tmp, "workload.npz"),
            model,
            model_factory="cluster_workload:build_workload_model",
            factory_kwargs={},
        )
        best_single = best_cluster = float("inf")
        single_logits = cluster_logits = None
        single_snapshot = cluster_snapshot = None
        for _ in range(REPEATS):
            makespan, logits, snapshot = run_single_process(model, requests, arrivals)
            if makespan < best_single:
                best_single, single_logits, single_snapshot = makespan, logits, snapshot
            makespan, logits, snapshot = run_cluster(checkpoint, requests, arrivals)
            if makespan < best_cluster:
                best_cluster, cluster_logits, cluster_snapshot = makespan, logits, snapshot

    single_rps = NUM_REQUESTS / best_single
    cluster_rps = NUM_REQUESTS / best_cluster
    speedup = cluster_rps / single_rps
    agreement = float(
        (single_logits.argmax(axis=-1) == cluster_logits.argmax(axis=-1)).mean()
    )

    report = {
        "workload": (
            f"GilBoundNet (compiled plan), "
            f"{INPUT_SHAPE} inputs, Poisson trace of {NUM_REQUESTS} single-sample "
            f"requests (mean inter-arrival {MEAN_INTERARRIVAL_S * 1e3:.2f} ms)"
        ),
        "machine": {"cpu_count": os.cpu_count(), "backend": get_backend().name},
        "short_mode": SHORT,
        "floors": {
            "cluster_min_speedup": CLUSTER_MIN_SPEEDUP,
            "floor_enforced": floor_enforced,
            "min_cores_for_floor": MIN_CORES_FOR_FLOOR,
            "cores_available": cores,
        },
        "config": {
            "cluster_shards": CLUSTER_SHARDS,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_delay_ms": MAX_DELAY_MS,
            "clients": NUM_CLIENTS,
        },
        "cases": {
            "gil_bound_poisson_trace": {
                "single_process_rps": round(single_rps, 1),
                "cluster_rps": round(cluster_rps, 1),
                "speedup": round(speedup, 2),
                "single_ms_per_request": round(best_single / NUM_REQUESTS * 1e3, 3),
                "cluster_ms_per_request": round(best_cluster / NUM_REQUESTS * 1e3, 3),
                "prediction_agreement": agreement,
            }
        },
        "single_process_metrics": single_snapshot,
        "cluster_metrics": cluster_snapshot,
    }
    with open(OUTPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    merged = cluster_snapshot["merged"]
    print(
        f"single process: {single_rps:.0f} req/s   cluster[{CLUSTER_SHARDS}]: "
        f"{cluster_rps:.0f} req/s   speedup {speedup:.2f}x "
        f"(floor {CLUSTER_MIN_SPEEDUP}x, {'enforced' if floor_enforced else 'report-only'})"
    )
    print(
        f"cluster telemetry: occupancy {merged['batches']['occupancy_mean']:.1f} samples, "
        f"latency p50 {merged['latency_ms']['p50']:.1f} / "
        f"p95 {merged['latency_ms']['p95']:.1f} ms, agreement {agreement:.3f}"
    )
    print(f"wrote {OUTPUT_PATH}")
    if floor_enforced and speedup < CLUSTER_MIN_SPEEDUP:
        print(
            f"FAIL: cluster is only {speedup:.2f}x the single-process server "
            f"(floor {CLUSTER_MIN_SPEEDUP}x on {cores} cores)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
