"""Model factories for cluster tests, importable from spawned workers.

Cluster workers rebuild their model from the checkpoint's factory spec
(``"module:callable"``), so everything here must be resolvable by a *fresh*
interpreter — module-level callables only, addressed as
``tests.serve.cluster_models:<name>``.  The checkpoint state (weights, bits,
PACT alphas, BN statistics) overwrites whatever the factory initialised, so
factories only need to reproduce the architecture.
"""

from __future__ import annotations

from repro.models import simple_cnn

from .parity import UntraceableNet, random_quantized_model


def build_parity_model(seed: int, image_size: int = 8, num_classes: int = 4):
    """A seeded random quantized CNN (conv/BN/PACT/residual mix) — model only."""
    model, _shape = random_quantized_model(
        seed, image_size=image_size, num_classes=num_classes
    )
    return model


def build_simple(seed: int = 0, num_classes: int = 4, input_size: int = 12, channels: int = 4):
    return simple_cnn(
        num_classes=num_classes, input_size=input_size, channels=channels, seed=seed
    )


def build_untraceable(channels: int = 4, image_size: int = 8):
    """A model the plan compiler refuses (a division join)."""
    return UntraceableNet(channels=channels, image_size=image_size)
