"""The traced run: per-layer self time and counts, and the tracing overhead.

The closed-loop phases (training, offline inference) run once untraced and
once with every layer wrapped; the difference in their busy time is the
tracing overhead.  A shorter traced serving ladder follows, for the
frontend, plan and cluster numbers.  End-to-end metrics never come from
this run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from perfbench import layers, phases
from perfbench.tracer import Tracer, install

#: Spans kept in memory and written out at the end of a traced run.
SPAN_CAPACITY = 50_000
#: Requests per ladder block, as a share of the untraced run's.
LADDER_SHARE = 0.25


def closed_loop(seed: int, sizes, tracer=None):
    """One training run and one offline block; returns them and their busy time."""
    training = phases.training_summary([phases.train_once(seed)])
    trained = tracer.totals() if tracer is not None else None
    model = phases.frozen_model(seed)
    images = phases.request_images(seed)
    engines = phases.offline_engines(model)
    offline = phases.offline_block(engines, images, sizes.b1_calls // 4, sizes.b64_calls // 4)
    return training, trained, model, engines, offline, training["seconds"] + offline["seconds"]


def _calls(totals, layer: str) -> int:
    return totals.get(layer, {}).get("calls", 0)


def _workspace_allocations(stack) -> int:
    engine = getattr(stack, "engine", None)
    if engine is None or engine.plan is None or engine.plan.workspace is None:
        return 0
    return engine.plan.workspace.total_allocations


def hottest_steps(engine, images: np.ndarray, calls: int = 5):
    """Top-3 plan steps by share, from the engine's own step profiler."""
    engine.enable_step_profiling(True)
    engine.plan.reset_profile()
    batch = images[: phases.OFFLINE_BATCH]
    for _ in range(calls):
        engine.predict_logits(batch)
    timings = engine.plan_report()["step_timings"] or []
    engine.enable_step_profiling(False)
    return sorted(timings, key=lambda entry: -entry["share"])[:3]


def cluster_stage_ms(stack, stage: str) -> float:
    if not isinstance(stack, phases.ClusterStack):
        return 0.0
    spans = stack.cluster.spans.spans(status="completed")
    values = [span["stages_ms"].get(stage, 0.0) for span in spans]
    return float(np.mean(values)) if values else 0.0


def measure(args, sizes, workdir: str, header):
    untraced_s = closed_loop(args.seed, sizes)[-1]
    tracer = Tracer(SPAN_CAPACITY)
    uninstall = install(tracer, layers.targets())
    try:
        training, trained, model, engines, offline, traced_s = closed_loop(args.seed, sizes, tracer)
        images = phases.request_images(args.seed)
        expected = phases.reference_top1(model, images)
        stack = phases.build_stack(args.workload, args.seed, images, workdir)
        try:
            before = tracer.totals()
            batches_before = stack.frontend_metrics()["batches"]["served"]
            allocations_before = _workspace_allocations(stack)
            rounds = phases.rounds_scaled(sizes.share * LADDER_SHARE)
            blocks = [block for blocks in rounds for block in blocks]
            serving = phases.serving_summary(
                stack, phases.run_blocks(stack, images, expected, args.seed, blocks)
            )
            after = tracer.totals()
            frontend = stack.frontend_metrics()
            batches = frontend["batches"]["served"] - batches_before
            allocations = _workspace_allocations(stack) - allocations_before
            wire_ms = cluster_stage_ms(stack, "wire")
            execute_ms = cluster_stage_ms(stack, "execute")
            queue_ms = cluster_stage_ms(stack, "queue_wait")
            cluster_view = (
                stack.cluster.metrics(phases.MODEL_NAME)
                if isinstance(stack, phases.ClusterStack)
                else None
            )
        finally:
            stack.close()
    finally:
        uninstall()
    steps = hottest_steps(engines[0], images)

    requests = serving["requests"]
    quantize_calls = _calls(after, "quant.weight_quantize") - _calls(before, "quant.weight_quantize")
    serving_refreshes = _calls(after, "plan.refresh") - _calls(before, "plan.refresh")
    values = layers.kernel_metrics(after, header)
    values.update(
        {
            "quant.weight_quantize_calls_per_request": quantize_calls / requests,
            "core.bits_changed": training["bits_changed"],
            "plan.refresh_calls_per_epoch": _calls(trained, "plan.refresh") / training["epochs"],
            "plan.refresh_calls_serving": float(serving_refreshes),
            "plan.steady_state_allocations": float(
                engines[0].plan_report()["steady_state_allocations"]
            ),
            "plan.workspace_allocations_per_batch": allocations / batches if batches else 0.0,
            "plan.top_steps_pct": 100.0 * sum(step["share"] for step in steps),
            "frontend.queue_wait_p50_ms": frontend["queue_wait_ms"]["p50"],
            "frontend.queue_wait_p99_ms": frontend["queue_wait_ms"]["p99"],
            "frontend.batch_occupancy_mean": frontend["batches"]["occupancy_mean"],
            "frontend.batch_service_p50_ms": frontend["batch_service_ms"]["p50"],
            "frontend.rejected": float(frontend["requests"]["rejected"]),
            "frontend.shed": float(frontend["requests"]["shed"]),
            "frontend.expired": float(frontend["requests"]["expired"]),
            "frontend.failed_ratio": serving["failed"] / requests,
            "frontend.gen_lag_ms": max(rung["gen_lag_p99_ms"] for rung in serving["rungs"]),
            "cluster.wire_ms": wire_ms,
            "cluster.execute_ms": execute_ms,
            "cluster.queue_wait_ms": queue_ms,
            "cluster.restarts": float(
                sum(shard["restarts"] for shard in cluster_view["shards"].values())
                if cluster_view
                else 0
            ),
            "cluster.retries": float(
                cluster_view["merged"]["requests"]["retried"] if cluster_view else 0
            ),
            "trace_overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        }
    )
    metrics = {
        name: (values[name], unit, _samples(name, after, requests))
        for name, unit in layers.PER_LAYER_UNITS.items()
    }

    problems = training["problems"] + offline["problems"] + serving["problems"]
    if quantize_calls:
        problems.append(f"serving re-quantized weights {quantize_calls} times")
    if serving_refreshes:
        problems.append(f"serving refreshed the plan {serving_refreshes} times after warmup")

    lines = [
        f"tracing overhead on the closed-loop phases: untraced {untraced_s:.3f} s, "
        f"traced {traced_s:.3f} s"
    ]
    for layer, share in layers.top_layers(after):
        lines.append(
            f"top self time: {layer:<24} {share:5.1f}%  {layers.peak_share(layer, after, header)}"
        )
    for step in steps:
        lines.append(
            f"top plan step: {step['key']} ({step['kind']}, route {step['route']}) "
            f"{100.0 * step['share']:.1f}%"
        )
    path = os.path.join(os.path.dirname(workdir), f"spans-{args.workload}-{args.seed}.json")
    write_spans(tracer, path)
    lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")
    attempted = training["steps"] + offline["predicts"] + requests
    return metrics, attempted, serving["failed"], problems, lines


def _samples(name: str, totals, requests: int) -> int:
    """Calls behind a per-call metric; requests for frontend and cluster ones."""
    if name.startswith(("frontend.", "cluster.")):
        return requests
    layer = "engine.predict" if name == "engine.overhead_ms" else name.rsplit("_", 1)[0]
    return int(totals.get(layer, {}).get("calls", 0)) or 1


def write_spans(tracer: Tracer, path: str) -> None:
    origin = min((span[2] for span in tracer.spans), default=time.perf_counter())
    rows = [
        [layer, thread, round((start - origin) * 1e3, 4), round((end - origin) * 1e3, 4), parent]
        for layer, thread, start, end, parent in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["layer", "thread", "start_ms", "end_ms", "parent"], "spans": rows}, handle)
