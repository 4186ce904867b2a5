"""The machine header printed with every result.

Peak figures are calibrated once per run on this process's BLAS setting:
one large float32 GEMM gives the GFLOP/s ceiling, one large copy the
bytes-per-second ceiling (bytes read plus bytes written).  The per-layer
``% of peak`` figures divide by these.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict

import numpy as np

GEMM_SIZE = 768
COPY_BYTES = 64 * 2**20


def _best_seconds(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate() -> Dict[str, float]:
    """GFLOP/s of one large sgemm and GB/s of one large copy."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_SIZE, GEMM_SIZE)).astype(np.float32)
    b = rng.standard_normal((GEMM_SIZE, GEMM_SIZE)).astype(np.float32)
    out = np.empty_like(a)
    gemm_s = _best_seconds(lambda: np.matmul(a, b, out=out))
    src = np.ones(COPY_BYTES // 4, dtype=np.float32)
    dst = np.empty_like(src)
    copy_s = _best_seconds(lambda: np.copyto(dst, src))
    return {
        "sgemm_gflops": 2.0 * GEMM_SIZE**3 / gemm_s / 1e9,
        "memcpy_gbps": 2.0 * COPY_BYTES / copy_s / 1e9,
    }


def blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def header(blas_threads: int, backend: str, workload: str, seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "blas": blas_library(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "workload": workload,
        "seed": seed,
        **calibrate(),
    }
