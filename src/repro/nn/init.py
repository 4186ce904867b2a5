"""Weight initialization schemes for the :mod:`repro.nn` substrate.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is fully reproducible, which matters for the BMPQ benchmarks that
compare sensitivity orderings across runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "calculate_fan",
    "kaiming_normal",
    "kaiming_uniform",
    "zeros",
    "ones",
]


def calculate_fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Convolution weights are (out_channels, in_channels, kh, kw); linear
    weights are (out_features, in_features).
    """
    if len(shape) < 2:
        raise ValueError(f"fan calculation requires at least 2 dimensions, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator, nonlinearity: str = "relu") -> np.ndarray:
    """He-normal initialization suited to ReLU-family activations."""
    fan_in, _ = calculate_fan(shape)
    gain = np.sqrt(2.0) if nonlinearity == "relu" else 1.0
    std = gain / np.sqrt(fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, nonlinearity: str = "relu") -> np.ndarray:
    """He-uniform initialization."""
    fan_in, _ = calculate_fan(shape)
    gain = np.sqrt(2.0) if nonlinearity == "relu" else 1.0
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
