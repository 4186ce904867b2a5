"""The GIL-bound serving workload for ``bench_cluster.py``.

Lives in its own module (not in the benchmark script) so cluster worker
processes can rebuild the model from the checkpoint's factory spec
(``"cluster_workload:build_workload_model"``) — the benchmark directory is
on ``sys.path`` in both the parent and the spawned children.

The workload serves from its compiled plan, like every model in the repo.
The convolutions are small enough that the plan's Python step dispatch and
glue outweigh the BLAS time at the bench's batch sizes, so extra *threads*
cannot speed it up but extra *processes* can.  Whether the cluster clears
its 2x floor over the single process on 3 or more cores is unverified.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import QuantizableModel
from repro.nn.modules import GlobalAvgPool2d
from repro.quant.qmodules import QConv2d, QLinear

IMAGE_SIZE = 10
INPUT_SHAPE = (3, IMAGE_SIZE, IMAGE_SIZE)
NUM_CLASSES = 6


class GilBoundNet(QuantizableModel):
    """Two quantized conv branches joined multiplicatively, then mixed."""

    def __init__(self, channels: int = 6, image_size: int = IMAGE_SIZE, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.input_size = image_size
        self.input_channels = 3
        self.branch_a = QConv2d(3, channels, 3, padding=1, bias=False, bits=4, rng=rng)
        self.branch_b = QConv2d(3, channels, 3, padding=1, bias=False, bits=4, rng=rng)
        self.mixer = QConv2d(channels, channels, 3, padding=1, bias=False, bits=4, rng=rng)
        self.register_qlayer("branch_a", self.branch_a)
        self.register_qlayer("branch_b", self.branch_b)
        self.register_qlayer("mixer", self.mixer)
        self.pool = GlobalAvgPool2d()
        self.classifier = QLinear(channels, NUM_CLASSES, bits=8, pinned=True, rng=rng)
        self.register_qlayer("classifier", self.classifier, pinned=True, pinned_bits=8)

    def forward(self, x):
        gated = self.branch_a(x) * self.branch_b(x)
        return self.classifier(self.pool(self.mixer(gated)))


def build_workload_model(channels: int = 6, seed: int = 0) -> GilBoundNet:
    return GilBoundNet(channels=channels, seed=seed)
