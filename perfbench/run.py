"""The repository benchmark: BMPQ training, offline inference and serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_poisson --seed 1 --seconds 35 --trace 0

Every run executes three phases on ResNet18 (width 0.125, 3x32x32 inputs):

1. ``train_bmpq``: BMPQ training from scratch, four times with one seed;
   the runs must agree bitwise.
2. ``infer_offline``: closed-loop batch-1 and batch-64 predicts on warmed
   engines, float and integer mode.
3. serving: an open-loop Poisson ladder through ``ModelServer``
   (``--workload serve_poisson``) or a one-shard ``ClusterServer``
   (``--workload serve_cluster``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
closed-loop phases untraced, then again with every layer's entry points
wrapped, plus a shorter traced ladder, and prints the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
are the machine header and a readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("serve_poisson", "serve_cluster")
#: End-to-end metric -> unit, as declared in BENCHMARK.json.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s",
    "b1_p50_ms": "ms",
    "b64_images_per_s": "1/s",
    "int_b64_images_per_s": "1/s",
    "p50_ms_low": "ms",
    "max_rps_at_slo": "1/s",
}
#: One BLAS thread: with the load generator and the serving worker, busy
#: threads never exceed the two cores of the reference machine.
BLAS_THREADS = 1
#: ``--seconds`` this sizing is tuned for; other values scale the number of
#: predicts and requests (never the training epochs) proportionally.
REFERENCE_SECONDS = 35.0
SETUP_REPEATS = 5
B1_CALLS = 2000
B64_CALLS = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment() -> None:
    """Fix BLAS threads and clear program switches before numpy is imported."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    for variable in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[variable]
    # Spawned cluster workers inherit this search path.
    sys.path[:0] = [ROOT, SRC]


def stop_children() -> None:
    """End every process this run started, and wait for each.

    Cluster workers are stopped by ``ClusterServer.stop``; any left by a
    failed run are killed here.  Spawning a worker also starts
    multiprocessing's resource tracker, which would otherwise outlive this
    process until it noticed the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=10.0)
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Sizes:
    """Predicts and requests per phase for a given ``--seconds``."""

    def __init__(self, seconds: float) -> None:
        self.share = seconds / REFERENCE_SECONDS
        self.b1_calls = max(100, int(B1_CALLS * self.share))
        self.b64_calls = max(5, int(B64_CALLS * self.share))


def measure(args, sizes: Sizes, workdir: str):
    """The untraced run: every end-to-end metric.

    The phases interleave in rounds: a training run, then a round of ladder
    blocks, each preceded by a small offline block.  A burst of noise from
    other tenants of the machine then lands on some blocks of a metric
    rather than all of them, and each metric takes its best block (see
    ``phases.offline_summary``).
    """
    from perfbench import phases

    model = phases.frozen_model(args.seed)
    images = phases.request_images(args.seed)
    expected = phases.reference_top1(model, images)
    engines = phases.offline_engines(model)
    rounds = phases.rounds_scaled(sizes.share)
    ladder_blocks = sum(len(blocks) for blocks in rounds)
    b1_calls = max(20, sizes.b1_calls // ladder_blocks)
    b64_calls = max(2, sizes.b64_calls // ladder_blocks)
    runs, offline_blocks, served = [], [], []
    stack, setup_seconds = phases.timed_setups(
        args.workload, args.seed, images, workdir, SETUP_REPEATS
    )
    try:
        for blocks in rounds:
            runs.append(phases.train_once(args.seed))
            for block in blocks:
                offline_blocks.append(phases.offline_block(engines, images, b1_calls, b64_calls))
                served += phases.run_blocks(
                    stack, images, expected, args.seed, [block], first=len(served)
                )
        serving = phases.serving_summary(stack, served)
    finally:
        stack.close()
    training = phases.training_summary(runs)
    offline = phases.offline_summary(offline_blocks)
    low, best = serving["rungs"][0], serving["best"]
    values = {
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "train_samples_per_s": (training["samples_per_s"], training["epochs"]),
        "b1_p50_ms": (offline["b1_p50_ms"], offline["b1"]["n"]),
        "b64_images_per_s": (offline["b64_images_per_s"], offline["b64_calls"]),
        "int_b64_images_per_s": (offline["int_b64_images_per_s"], offline["b64_calls"]),
        "p50_ms_low": (low["p50_ms"], low["count"]),
        "max_rps_at_slo": (best["achieved_rps"], best["count"]) if best else (0.0, 0),
    }
    metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in E2E_UNITS.items()}
    lines = [
        f"train_bmpq: {training['epochs']} epochs, final bits {training['final_bits']}, "
        f"losses {[round(loss, 4) for loss in training['losses']]}, "
        f"{training['bits_changed']:.1f} layers re-assigned per interval",
        f"infer_offline: batch-1 p50 {offline['b1_p50_ms']:.3f} ms, "
        f"p{offline['b1']['tail_p']:.4g} {offline['b1']['tail']:.3f} ms over {offline['b1']['n']} calls",
    ]
    for rung in serving["rungs"]:
        lines.append(
            f"ladder {rung['rate']:>5} req/s: n={rung['count']} in {rung['blocks']} blocks, "
            f"p50 {rung['p50_ms']:.2f} ms "
            f"p{rung['tail_p']:.4g} {rung['tail_ms']:.2f} ms, achieved {rung['achieved_rps']:.0f}/s, "
            f"failed {rung['failed']}, backlog {'grows' if rung['backlog_grows'] else 'steady'}, "
            f"generator lag p99 {rung['gen_lag_p99_ms']:.2f} ms, top-1 mismatches {rung['mismatched']}"
        )
    lines.append(
        f"SLO: p99 <= {phases.SLO_MS} ms; best rung {best['rate'] if best else None} req/s; "
        f"top-1 agreement {serving['agreement']:.5f}"
    )
    attempted = training["steps"] + offline["predicts"] + serving["requests"]
    problems = training["problems"] + offline["problems"] + serving["problems"]
    return metrics, attempted, serving["failed"], problems, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    pin_environment()
    from perfbench import machine  # noqa: E402 - numpy must see the BLAS pin
    from repro.backend import get_backend

    header = machine.header(BLAS_THREADS, get_backend().name, args.workload, args.seed)
    print("machine: " + json.dumps(header))
    sizes = Sizes(args.seconds)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # A terminated run still unwinds through the finally below.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        if args.trace:
            from perfbench import traced

            metrics, attempted, failed, problems, lines = traced.measure(args, sizes, workdir, header)
        else:
            metrics, attempted, failed, problems, lines = measure(args, sizes, workdir)
    except Exception:  # noqa: BLE001 - report any failure without a result line
        traceback.print_exc()
        return 1
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<42} {value:>14.4f} {unit:<8} n={samples}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
