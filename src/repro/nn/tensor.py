"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  It provides a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records the operations
applied to it and can back-propagate gradients through the resulting
computational graph.  The design intentionally mirrors the small core of
PyTorch's autograd that the BMPQ paper relies on:

* every differentiable operation creates a new :class:`Tensor` whose
  ``_backward`` closure knows how to scatter the incoming gradient to the
  operation's inputs;
* :meth:`Tensor.backward` performs a reverse topological traversal,
  accumulates gradients into ``Tensor.grad`` and releases each node once
  its closure has run (see :meth:`Tensor.retain_grad`);
* broadcasting is handled explicitly by :func:`unbroadcast`, so gradients of
  broadcast operands always have the operand's original shape.

Only the operators actually needed by quantized CNN training are implemented;
convolution, pooling and batch-norm live in :mod:`repro.nn.functional` and are
built on top of the primitives defined here.

Elementwise transcendentals and matrix products are dispatched through the
active :class:`~repro.backend.ArrayBackend` so that swapping the backend
(see :func:`repro.backend.use_backend`) changes the numerics of the whole
autograd graph in one place.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import get_backend

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence, "Tensor"]


# Per-thread switch used by ``no_grad`` to disable graph construction, e.g.
# during evaluation passes of the trainer.  Thread-local (like PyTorch's grad
# mode) so the model server's worker threads can serve under ``no_grad``
# without toggling a process-wide flag out from under a concurrent trainer.
class _GradMode(threading.local):
    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad``: inside the context newly created tensors do not
    record a backward graph, which makes pure inference passes cheaper.  The
    switch is per-thread, so one thread's inference pass never disables graph
    construction for the others.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return ``True`` when tensors currently record a backward graph."""
    return _GRAD_MODE.enabled


# Gradients a closure defers (see ``Tensor._accumulate_deferred``) run on one
# background thread, so a conv's weight gradient overlaps the input-gradient
# chain that everything else waits on.  Per thread, a running ``backward()``
# keeps its queue of pending gradients here: tensor -> entries in
# accumulation order (futures, and inline gradients that arrived after one).
class _DeferredGrads(threading.local):
    def __init__(self) -> None:
        self.pending: Optional[Dict["Tensor", List]] = None


_DEFERRED = _DeferredGrads()
_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _grad_executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    if _EXECUTOR is None:
        with _EXECUTOR_LOCK:
            if _EXECUTOR is None:
                _EXECUTOR = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-grad")
    return _EXECUTOR


def _reset_executor_after_fork() -> None:
    # A forked child inherits the executor object but not its thread.
    global _EXECUTOR, _EXECUTOR_LOCK
    _EXECUTOR = None
    _EXECUTOR_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_executor_after_fork)


def _released_graph(grad: np.ndarray) -> None:
    """``_backward`` of a node whose closure already ran in a ``backward()``."""
    raise RuntimeError(
        "backward() reached a node of a graph that an earlier backward() "
        "already released; run the forward pass again to build a new graph"
    )


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    When an operand of shape ``shape`` was broadcast up to the shape of
    ``grad`` during the forward pass, the chain rule requires summing the
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    arr = np.asarray(data, dtype=dtype)
    return arr


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float32`` by default.
    requires_grad:
        When ``True`` the tensor accumulates gradients during
        :meth:`backward`.
    name:
        Optional human-readable identifier used in debugging and error
        messages.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "retains_grad", "name", "version", "_backward", "_parents"
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.retains_grad = False
        self.name = name
        self.version = 0
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad or _parents else ()
        self._backward = _backward

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def retain_grad(self) -> None:
        """Keep this tensor's ``.grad`` after :meth:`backward` releases it.

        Mirrors ``torch.Tensor.retain_grad``: a leaf always keeps its
        gradient, but backward drops a non-leaf's once the node's closure
        has run, unless the non-leaf was marked with this call.
        """
        self.retains_grad = True

    def bump_version(self) -> int:
        """Mark the payload as changed and return the new version.

        Anything that replaces or mutates ``data`` outside the autograd graph
        (optimizer steps, checkpoint loading, manual weight surgery) must call
        this so version-keyed consumers — most importantly the quantized-weight
        cache in :mod:`repro.quant.qmodules` — know to recompute.
        """
        self.version += 1
        return self.version

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make_result(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        name: Optional[str] = None,
    ) -> "Tensor":
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, name=name)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, handover: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use).

        By default the first gradient is copied, because the caller may
        share it: ``add`` passes one gradient to both parents, ``reshape``
        and ``transpose`` pass views, and the STE passes the quantized
        weight's own ``.grad``, which NBG reads later.  ``handover=True``
        is for an array the closure allocated itself and does not read
        again: it becomes ``self.grad`` (or joins the deferred queue) as is,
        and later gradients are added into it in place.  A handed-over view
        (a padded conv gradient's interior) is still copied when it becomes
        ``self.grad``, so every gradient stays contiguous, as a reduction
        over it needs to keep its bits, and does not pin its larger base.
        """
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        pending = _DEFERRED.pending
        if pending is not None and self in pending:
            # Queue behind the deferred gradient, keeping the summation order.
            pending[self].append(grad if handover else grad.copy())
            return
        self._add_grad(grad, handover)

    def _add_grad(self, grad: np.ndarray, handover: bool = False) -> None:
        if self.grad is None:
            self.grad = grad if handover and grad.flags.c_contiguous else grad.copy()
        else:
            self.grad += grad

    def _accumulate_deferred(self, compute: Callable[[], np.ndarray]) -> None:
        """Accumulate ``compute()``, off the calling thread inside ``backward()``.

        Inside a running :meth:`backward` the gradient is computed on the
        background gradient thread and added when the backward joins it;
        called anywhere else (a closure run directly) it is computed inline.
        ``compute`` returns a freshly allocated array, which is handed over.
        """
        if not self.requires_grad:
            return
        pending = _DEFERRED.pending
        if pending is None:
            self._accumulate(compute(), handover=True)
            return
        pending.setdefault(self, []).append(_grad_executor().submit(compute))

    @staticmethod
    def _join_deferred(pending: Dict["Tensor", List]) -> None:
        """Add every queued gradient in order; re-raise the first failure.

        Every entry is owned by the queue (a deferred result, or an inline
        gradient copied or handed over on arrival), so each is handed over.
        """
        error: Optional[Exception] = None
        for tensor, entries in pending.items():
            for entry in entries:
                try:
                    grad = entry.result() if isinstance(entry, Future) else entry
                except Exception as exc:  # re-raised below, once every entry is done
                    error = error or exc
                    continue
                if error is None:
                    tensor._add_grad(
                        unbroadcast(np.asarray(grad, dtype=tensor.data.dtype), tensor.data.shape),
                        handover=True,
                    )
        pending.clear()
        if error is not None:
            raise error

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Closures run in reverse topological order on the calling thread,
        except the gradients they defer (a conv's weight gradient): those
        run on one background thread while the input-gradient chain goes
        on.  A node with a deferred gradient still pending is held back,
        and so is every node it feeds.  After the chain the deferred
        gradients are joined and added — each tensor sums its gradients in
        the same order as a fully inline pass, so the bits match — and the
        held-back nodes then run in their original order.
        ``backward()`` returns with every leaf's and every retained ``.grad``
        set; the graph is released: once a node's closure has run, the node
        drops its closure, its parents and, unless :meth:`retain_grad`
        marked it, its ``.grad``, as PyTorch does by default.  Another
        ``backward()`` that reaches a released node raises ``RuntimeError``.
        An exception raised on the gradient thread is re-raised here.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only defined "
                    f"for scalar tensors, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()

        def build(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        build(self)

        self._accumulate(grad)
        previous = _DEFERRED.pending
        pending: Dict[Tensor, List] = {}
        _DEFERRED.pending = pending
        try:
            nodes = topo[::-1]
            while nodes:
                held: List[Tensor] = []
                blocked = set()
                for node in nodes:
                    if node in pending or node in blocked:
                        held.append(node)
                        blocked.update(node._parents)
                    elif node._backward is not None:
                        if node.grad is not None:
                            node._backward(node.grad)
                        node._backward = _released_graph
                        node._parents = ()
                        if not node.retains_grad:
                            node.grad = None
                self._join_deferred(pending)
                nodes = held
        finally:
            for entries in pending.values():
                for entry in entries:
                    if isinstance(entry, Future):
                        entry.cancel()
            _DEFERRED.pending = previous

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make_result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_result(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return self._make_result(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make_result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make_result(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 2-D operands and batched left operand."""
        other = self._ensure(other)
        backend = get_backend()
        out_data = backend.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if other.data.ndim == 2 and self.data.ndim == 2:
                self._accumulate(backend.matmul(grad, other.data.T))
                other._accumulate(backend.matmul(self.data.T, grad))
            else:
                # General case: rely on swapaxes for batched matmul.
                self._accumulate(backend.matmul(grad, np.swapaxes(other.data, -1, -2)))
                other._accumulate(backend.matmul(np.swapaxes(self.data, -1, -2), grad))

        return self._make_result(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = get_backend().exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = get_backend().log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = get_backend().sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return self._make_result(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        backend = get_backend()
        out_data = backend.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * backend.sign(self.data))

        return self._make_result(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, handover=True)

        return self._make_result(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = get_backend().tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make_result(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + get_backend().exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        out_data = get_backend().clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = get_backend().maximum(self.data, other.data)
        self_mask = self.data >= other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * self_mask)
            other._accumulate(grad * (~self_mask))

        return self._make_result(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make_result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties, matching NumPy-style subgradient.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(g * mask / np.maximum(counts, 1.0))

        return self._make_result(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make_result(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make_result(out_data, (self,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onward (batch-friendly)."""
        lead = self.data.shape[:start_dim]
        return self.reshape(*lead, -1)

    def pad2d(self, padding: Tuple[int, int], mode: str = "constant") -> "Tensor":
        """Zero/reflect pad the last two (spatial) dimensions."""
        ph, pw = padding
        if ph == 0 and pw == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(ph, ph), (pw, pw)]
        out_data = np.pad(self.data, pad_width, mode=mode)

        def backward(grad: np.ndarray) -> None:
            slices = [slice(None)] * (self.data.ndim - 2) + [
                slice(ph, ph + self.data.shape[-2]),
                slice(pw, pw + self.data.shape[-1]),
            ]
            self._accumulate(grad[tuple(slices)])

        return self._make_result(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        gen = rng if rng is not None else np.random.default_rng()
        return Tensor(gen.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        requires = _GRAD_MODE.enabled and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    @staticmethod
    def cat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

        requires = _GRAD_MODE.enabled and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out
