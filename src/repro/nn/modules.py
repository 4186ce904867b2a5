"""Layer/module abstraction for the NumPy DNN substrate.

:class:`Module` provides parameter registration, train/eval mode switching,
recursive traversal and state-dict (de)serialization.  The concrete layers
(`Conv2d`, `Linear`, `BatchNorm2d`, pooling, activations, `Sequential`) are the
building blocks used by the quantizable VGG/ResNet models in
:mod:`repro.models`.  Parameter and buffer storage is allocated through the
active :class:`~repro.backend.ArrayBackend`; the layer math itself lives in
:mod:`repro.nn.functional`, which dispatches per call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..backend import get_backend
from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
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
]


class Parameter(Tensor):
    """A tensor that is registered as a learnable module parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network layers.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; the base class discovers them automatically for parameter
    iteration, mode switching and serialization.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # forward dispatch
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield attr, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{attr}.{index}", item

    def children(self) -> Iterator["Module"]:
        for _, child in self.named_children():
            yield child

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self.named_children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}.{attr}" if prefix else attr), value
        for name, child in self.named_children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        """Unique learnable parameters (deduplicated when a module is shared)."""
        seen = set()
        unique: List[Parameter] = []
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                unique.append(param)
        return unique

    def num_parameters(self) -> int:
        """Total number of learnable scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # mode / gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters(prefix):
            state[name] = param.data.copy()
        for name, module in self.named_modules(prefix):
            for buf_name, buffer in getattr(module, "_buffers", {}).items():
                key = f"{name}.{buf_name}" if name else buf_name
                state[key] = buffer.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers: Dict[str, Tuple["Module", np.ndarray]] = {}
        for name, module in self.named_modules():
            for buf_name, buffer in getattr(module, "_buffers", {}).items():
                key = f"{name}.{buf_name}" if name else buf_name
                buffers[key] = (module, buffer)
        for key, value in state.items():
            if key in params:
                if params[key].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: "
                        f"expected {params[key].data.shape}, got {value.shape}"
                    )
                params[key].data = value.astype(np.float32).copy()
                params[key].bump_version()
            elif key in buffers:
                owner, buffer = buffers[key]
                buffer[...] = value
                owner.stats_version += 1
            else:
                raise KeyError(f"unexpected key {key!r} in state dict")

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {child!r}" for name, child in self.named_children()]
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def append(self, module: Module) -> "Sequential":
        self.layers.append(module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Conv2d(Module):
    """Standard (full-precision) 2-D convolution layer."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        stride: Union[int, Tuple[int, int]] = 1,
        padding: Union[int, Tuple[int, int]] = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_normal((out_channels, in_channels, kh, kw), gen), name="weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), gen), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalization for (N, C, H, W) activations."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        backend = get_backend()
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self._buffers = {
            "running_mean": backend.zeros((num_features,), dtype=np.float32),
            "running_var": backend.ones((num_features,), dtype=np.float32),
        }
        #: Bumped whenever the running statistics change through the module
        #: (a training-mode forward, ``load_state_dict``): the buffers'
        #: counterpart of ``Tensor.version``.  Writing them in place from
        #: outside is not seen, like a weight mutated without
        #: ``bump_version()``.
        self.stats_version = 0

    @property
    def running_mean(self) -> np.ndarray:
        return self._buffers["running_mean"]

    @property
    def running_var(self) -> np.ndarray:
        return self._buffers["running_var"]

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            self.stats_version += 1  # F.batch_norm updates the stats in place
        return F.batch_norm(
            x,
            self.weight,
            self.bias,
            self._buffers["running_mean"],
            self._buffers["running_var"],
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Sigmoid(Module):
    """Logistic sigmoid activation — the gate nonlinearity of attention blocks."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class Identity(Module):
    """Pass-through module, useful as a placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class ChannelSlice(Module):
    """Select a contiguous channel range ``x[:, start:stop]``.

    The split primitive behind grouped/depthwise convolutions: each group
    slices its input channels, convolves them, and the group outputs are
    re-joined with :meth:`Tensor.cat` along the channel axis.  As a module
    (rather than inline indexing) the slice is visible to the plan tracer,
    which compiles it to a zero-copy view step.
    """

    def __init__(self, start: int, stop: int) -> None:
        super().__init__()
        if start < 0 or stop <= start:
            raise ValueError(f"invalid channel range [{start}, {stop})")
        self.start = int(start)
        self.stop = int(stop)

    def forward(self, x: Tensor) -> Tensor:
        return x[:, self.start : self.stop]

    def __repr__(self) -> str:
        return f"ChannelSlice({self.start}, {self.stop})"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)

    def __repr__(self) -> str:
        return f"Flatten(start_dim={self.start_dim})"


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
