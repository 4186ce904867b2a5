"""repro — a full reproduction of BMPQ (DATE 2022).

BMPQ: Bit-Gradient Sensitivity-Driven Mixed-Precision Quantization of DNNs
from Scratch (Kundu et al.).  The package contains the paper's contribution
(:mod:`repro.core`) together with every substrate it depends on: a NumPy
autodiff/CNN stack (:mod:`repro.nn`), quantizers and PACT (:mod:`repro.quant`),
quantizable VGG/ResNet models (:mod:`repro.models`), datasets and loaders
(:mod:`repro.data`), the baselines the paper compares against
(:mod:`repro.baselines`) and analysis/reporting helpers
(:mod:`repro.analysis`).  Array math is executed by a pluggable backend
(:mod:`repro.backend`): ``"fast"`` (vectorized, default) or ``"numpy"``
(loop-level reference), selectable globally (:func:`set_backend`), per scope
(:func:`use_backend`) or per run (``BMPQConfig.backend``).

Quickstart::

    from repro import BMPQConfig, BMPQTrainer, build_model
    from repro.data import DataLoader, synthetic_cifar10

    model = build_model("vgg16", width_multiplier=0.125, num_classes=10)
    train = DataLoader(synthetic_cifar10(True), batch_size=64, shuffle=True)
    test = DataLoader(synthetic_cifar10(False), batch_size=64)
    config = BMPQConfig(epochs=6, epoch_interval=2, target_average_bits=4.0)
    result = BMPQTrainer(model, train, test, config).train()
    print(result.final_bit_vector, result.compression_ratio_fp32)
"""

from . import analysis, backend, baselines, core, data, models, nn, quant, serve, utils
from .core import (
    BMPQConfig,
    BMPQResult,
    BMPQTrainer,
    BitWidthPolicy,
    EpochIntervalSchedule,
    LayerSpec,
    SensitivityTracker,
    evaluate_model,
    solve_bit_assignment,
)
from .backend import (
    ArrayBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from .models import build_model, available_models
from .serve import (
    Autoscaler,
    ClusterServer,
    InferenceEngine,
    InferencePlan,
    ModelRegistry,
    ModelServer,
    ServerOverloaded,
)

__version__ = "1.4.0"

__all__ = [
    "analysis",
    "backend",
    "baselines",
    "core",
    "data",
    "models",
    "nn",
    "quant",
    "serve",
    "utils",
    "BMPQConfig",
    "BMPQResult",
    "BMPQTrainer",
    "BitWidthPolicy",
    "EpochIntervalSchedule",
    "LayerSpec",
    "SensitivityTracker",
    "evaluate_model",
    "solve_bit_assignment",
    "build_model",
    "available_models",
    "Autoscaler",
    "ClusterServer",
    "InferenceEngine",
    "InferencePlan",
    "ModelRegistry",
    "ModelServer",
    "ServerOverloaded",
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "__version__",
]
