"""NumPy-based deep-learning substrate used by the BMPQ reproduction.

The subpackage provides a self-contained replacement for the pieces of
PyTorch the paper depends on: a reverse-mode autodiff :class:`Tensor`, CNN
layers, the cross-entropy loss, SGD and the multi-step learning-rate schedule.
"""

from .tensor import Tensor, no_grad, is_grad_enabled, unbroadcast
from . import functional
from . import init
from .modules import (
    AvgPool2d,
    BatchNorm2d,
    ChannelSlice,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
)
from .loss import CrossEntropyLoss, accuracy
from .optim import SGD, MultiStepLR

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "functional",
    "init",
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "Sigmoid",
    "Identity",
    "ChannelSlice",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "CrossEntropyLoss",
    "accuracy",
    "SGD",
    "MultiStepLR",
]
