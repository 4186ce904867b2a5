"""Which entry points the traced run wraps, and the per-layer metrics.

Layer names follow the repository's packages: ``data``, ``nn``, ``quant``,
``core``, ``backend``, ``plan``/``engine`` (``repro.serve``),
``frontend`` (``repro.serve.frontend``) and ``cluster``
(``repro.serve.cluster``).  FLOPs and bytes are computed from operand
shapes, not counted by hardware.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.backend import get_backend
from repro.core import trainer as trainer_module
from repro.core.policy import BitWidthPolicy
from repro.data import DataLoader
from repro.nn import SGD, Tensor
from repro.nn.modules import BatchNorm2d, Module
from repro.quant.pact import PACT
from repro.quant.qmodules import QuantizedLayer
from repro.serve import ClusterServer, InferenceEngine, InferencePlan, ModelServer

from perfbench.tracer import Target


def _gemm_flops(k_of):
    """2 * output elements * reduction length; ``k_of(args)`` gives the latter."""
    return lambda args, out: 2.0 * out.size * k_of(args)


def _im2col_bytes(args, result) -> float:
    return float(args[1].nbytes + result[0].nbytes)


def targets() -> List[Target]:
    backend = type(get_backend())
    return [
        ("data.batch", DataLoader, "__iter__", "iter", None),
        ("nn.forward", Module, "__call__", "call", None),
        ("nn.backward", Tensor, "backward", "call", None),
        ("nn.batch_norm", BatchNorm2d, "forward", "call", None),
        ("nn.optimizer", SGD, "step", "call", None),
        ("quant.weight_quantize", QuantizedLayer, "quantized_weight", "call", None),
        ("quant.pact", PACT, "forward", "call", None),
        ("core.nbg", trainer_module, "layer_nbg_from_grad", "call", None),
        ("core.ilp", BitWidthPolicy, "assign", "call", None),
        ("backend.im2col", backend, "im2col", "call", _im2col_bytes),
        ("backend.col2im", backend, "col2im", "call", None),
        # (oc, F) x (N, F, P): reduction over F.
        ("backend.gemm", backend, "conv2d_cols", "call", _gemm_flops(lambda a: a[1].shape[1])),
        # (N, oc, P) x (N, F, P) -> (oc, F): reduction over N * P.
        (
            "backend.gemm",
            backend,
            "conv2d_grad_weight",
            "call",
            _gemm_flops(lambda a: a[1].shape[0] * a[1].shape[2]),
        ),
        # (oc, F)^T x (N, oc, P): reduction over oc.
        ("backend.gemm", backend, "conv2d_grad_cols", "call", _gemm_flops(lambda a: a[1].shape[0])),
        ("backend.gemm", backend, "matmul", "call", _gemm_flops(lambda a: a[1].shape[-1])),
        ("backend.moments", backend, "moments", "call", None),
        ("backend.int_conv", backend, "int_conv2d", "call", _gemm_flops(lambda a: a[2].shape[1])),
        ("backend.int_conv", backend, "int_conv2d_cm", "call", _gemm_flops(lambda a: a[2].shape[1])),
        ("backend.residual_add", backend, "residual_add", "call", None),
        ("plan.run", InferencePlan, "run", "call", None),
        ("plan.refresh", InferencePlan, "refresh", "call", None),
        ("engine.predict", InferenceEngine, "predict_logits", "call", None),
        ("frontend.submit", ModelServer, "submit", "call", None),
        ("cluster.submit", ClusterServer, "submit", "call", None),
    ]


def _row(totals, layer: str) -> Dict[str, float]:
    return totals.get(layer, {"self_s": 0.0, "calls": 0, "work": 0.0})


def ms_per_call(totals, layer: str) -> float:
    row = _row(totals, layer)
    return 1e3 * row["self_s"] / row["calls"] if row["calls"] else 0.0


def rate(totals, layer: str, scale: float = 1e9) -> float:
    """Work per second of self time (GFLOP/s or GB/s with the default scale)."""
    row = _row(totals, layer)
    return row["work"] / row["self_s"] / scale if row["self_s"] else 0.0


def top_layers(totals, count: int = 3) -> List[Tuple[str, float]]:
    """The layers with the largest share of all traced self time (percent)."""
    total = sum(row["self_s"] for row in totals.values())
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_s"])[:count]
    return [(layer, 100.0 * row["self_s"] / total if total else 0.0) for layer, row in ranked]


#: Per-layer metric name -> unit, in report order (as in BENCHMARK.json).
PER_LAYER_UNITS: Dict[str, str] = {
    "data.batch_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.batch_norm_ms": "ms",
    "nn.optimizer_ms": "ms",
    "quant.weight_quantize_ms": "ms",
    "quant.weight_quantize_calls": "count",
    "quant.weight_quantize_calls_per_request": "count",
    "quant.pact_ms": "ms",
    "core.nbg_ms": "ms",
    "core.ilp_ms": "ms",
    "core.ilp_calls": "count",
    "core.bits_changed": "count",
    "backend.im2col_ms": "ms",
    "backend.col2im_ms": "ms",
    "backend.gemm_ms": "ms",
    "backend.moments_ms": "ms",
    "backend.int_conv_ms": "ms",
    "backend.residual_add_ms": "ms",
    "backend.gemm_gflops": "GFLOP/s",
    "backend.gemm_pct_peak": "%",
    "backend.int_conv_pct_peak": "%",
    "backend.im2col_gbps": "GB/s",
    "plan.run_ms": "ms",
    "plan.refresh_ms": "ms",
    "plan.refresh_calls_per_epoch": "count",
    "plan.refresh_calls_serving": "count",
    "plan.steady_state_allocations": "count",
    "plan.workspace_allocations_per_batch": "count",
    "plan.top_steps_pct": "%",
    "engine.overhead_ms": "ms",
    "frontend.queue_wait_p50_ms": "ms",
    "frontend.queue_wait_p99_ms": "ms",
    "frontend.batch_occupancy_mean": "count",
    "frontend.batch_service_p50_ms": "ms",
    "frontend.rejected": "count",
    "frontend.shed": "count",
    "frontend.expired": "count",
    "frontend.failed_ratio": "ratio",
    "frontend.gen_lag_ms": "ms",
    "cluster.wire_ms": "ms",
    "cluster.execute_ms": "ms",
    "cluster.queue_wait_ms": "ms",
    "cluster.restarts": "count",
    "cluster.retries": "count",
    "trace_overhead_pct": "%",
}


def kernel_metrics(totals, peaks: Dict[str, float]) -> Dict[str, float]:
    """Self time per call of every wrapped layer, plus kernel rates."""
    gemm_gflops = rate(totals, "backend.gemm")
    return {
        "data.batch_ms": ms_per_call(totals, "data.batch"),
        "nn.forward_ms": ms_per_call(totals, "nn.forward"),
        "nn.backward_ms": ms_per_call(totals, "nn.backward"),
        "nn.batch_norm_ms": ms_per_call(totals, "nn.batch_norm"),
        "nn.optimizer_ms": ms_per_call(totals, "nn.optimizer"),
        "quant.weight_quantize_ms": ms_per_call(totals, "quant.weight_quantize"),
        "quant.weight_quantize_calls": float(_row(totals, "quant.weight_quantize")["calls"]),
        "quant.pact_ms": ms_per_call(totals, "quant.pact"),
        "core.nbg_ms": ms_per_call(totals, "core.nbg"),
        "core.ilp_ms": ms_per_call(totals, "core.ilp"),
        "core.ilp_calls": float(_row(totals, "core.ilp")["calls"]),
        "backend.im2col_ms": ms_per_call(totals, "backend.im2col"),
        "backend.col2im_ms": ms_per_call(totals, "backend.col2im"),
        "backend.gemm_ms": ms_per_call(totals, "backend.gemm"),
        "backend.moments_ms": ms_per_call(totals, "backend.moments"),
        "backend.int_conv_ms": ms_per_call(totals, "backend.int_conv"),
        "backend.residual_add_ms": ms_per_call(totals, "backend.residual_add"),
        "backend.gemm_gflops": gemm_gflops,
        "backend.gemm_pct_peak": 100.0 * gemm_gflops / peaks["sgemm_gflops"],
        "backend.int_conv_pct_peak": 100.0 * rate(totals, "backend.int_conv") / peaks["sgemm_gflops"],
        "backend.im2col_gbps": rate(totals, "backend.im2col"),
        "plan.run_ms": ms_per_call(totals, "plan.run"),
        "plan.refresh_ms": ms_per_call(totals, "plan.refresh"),
        "engine.overhead_ms": ms_per_call(totals, "engine.predict"),
    }


def peak_share(layer: str, totals, peaks: Dict[str, float]) -> str:
    """``% of peak`` text for layers with a computed work count."""
    if layer in ("backend.gemm", "backend.int_conv"):
        return f"{100.0 * rate(totals, layer) / peaks['sgemm_gflops']:.1f}% of sgemm peak"
    if layer == "backend.im2col":
        return f"{100.0 * rate(totals, layer) / peaks['memcpy_gbps']:.1f}% of memcpy peak"
    return "no peak"
