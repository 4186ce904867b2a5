"""Shared utilities: logging, checkpoints, timing."""

from .logging import LogEntry, RunLogger
from .serialization import (
    CheckpointFormatError,
    QUANTIZED_CHECKPOINT_VERSION,
    QuantizedCheckpoint,
    checkpoint_bits,
    load_checkpoint,
    load_quantized_checkpoint,
    save_checkpoint,
    save_quantized_checkpoint,
)
from .timing import (
    RollingHistogram,
    best_mean_seconds,
    percentile,
)

__all__ = [
    "LogEntry",
    "RunLogger",
    "CheckpointFormatError",
    "QUANTIZED_CHECKPOINT_VERSION",
    "QuantizedCheckpoint",
    "checkpoint_bits",
    "load_checkpoint",
    "load_quantized_checkpoint",
    "save_checkpoint",
    "save_quantized_checkpoint",
    "RollingHistogram",
    "best_mean_seconds",
    "percentile",
]
