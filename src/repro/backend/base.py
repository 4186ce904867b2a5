"""The :class:`ArrayBackend` interface and the active-backend registry.

Every array operation the training stack performs — elementwise math,
matrix products, im2col patch extraction, pooling-window views, gradient
scatters — is obtained through the *active backend* rather than called on
``numpy`` directly.  This gives the repository a single seam where the
numerics can be swapped wholesale: a bit-exact reference implementation
(:class:`~repro.backend.numpy_backend.NumpyBackend`), a vectorized fast
path (:class:`~repro.backend.fast_numpy.FastNumpyBackend`), and later
sharded or accelerator-resident implementations, all without touching the
autograd graph, the quantizers or the training loop.

The registry mirrors the ``no_grad`` switch in :mod:`repro.nn.tensor`:

* :func:`get_backend` returns the active backend (the process-wide default
  is ``"fast"``);
* :func:`set_backend` replaces it permanently;
* :func:`use_backend` is a re-entrant context manager for scoped swaps,
  which is how the trainer honours ``BMPQConfig.backend`` per run.

Backends are stateless from the caller's point of view: any scratch
buffers or geometry caches they keep internally must never change the
numbers they return.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

IntPair = Tuple[int, int]
#: The ``(callable, args)`` numpy calls a compiled plan replays, and a bound
#: kernel: its output array and the calls that fill it (see
#: :meth:`ArrayBackend.bind_int_conv2d`).
Calls = Tuple[Tuple[Callable, tuple], ...]
Bound = Tuple[np.ndarray, Calls]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def _output_hw(shape, kernel: IntPair, stride: IntPair, padding: IntPair) -> IntPair:
    return (
        conv_output_size(shape[2], kernel[0], stride[0], padding[0]),
        conv_output_size(shape[3], kernel[1], stride[1], padding[1]),
    )


#: Accumulators of at most this many elements get full-size per-channel
#: operands from :func:`expand_channel_operands` (at most 64 KiB each).  On
#: ResNet18-w0.125 (2 cores, 1 BLAS thread) full-size operands cut a batch-1
#: run's epilogues by 0.05 ms (float) and 0.10 ms (integer), but saved under
#: 1% of a batch-64 run while taking 19-38 MiB per bound shape, so larger
#: accumulators keep broadcast operands.
EXPAND_MAX_ELEMENTS = 16384


def expand_channel_operands(acc: np.ndarray, operands) -> Tuple[np.ndarray, ...]:
    """The per-channel ``operands`` (each broadcastable to ``acc``) a bound
    call applies to ``acc``: full-size copies while ``acc`` is small.

    numpy runs a ufunc with a broadcast operand through its buffered
    iterator, which allocates its buffers and takes 2-3x the time of the
    same ufunc on equal shapes.  The expanded operands hold the same values,
    so the products and sums are the same bits.  Only for bound schedules,
    which keep the copies across runs; a per-call kernel would pay for them
    on every call.
    """
    if acc.size > EXPAND_MAX_ELEMENTS:
        return tuple(operands)
    return tuple(
        op if op.ndim == 0 else np.ascontiguousarray(np.broadcast_to(op, acc.shape))
        for op in operands
    )


def _copy_result(out: np.ndarray, kernel: Callable, args: tuple) -> None:
    np.copyto(out, kernel(*args))


def _bind_per_call(workspace, key, shape, dtype, kernel: Callable, *args) -> Bound:
    """One call that runs a per-call ``kernel`` and copies its result into
    an arena buffer."""
    out = workspace.buffer((key, "acc"), shape, dtype)
    return out, ((_copy_result, (out, kernel, args)),)


class ArrayBackend:
    """Abstract dispatch surface for every array op used by the stack.

    The generic elementwise/linear-algebra methods have NumPy defaults so a
    backend only has to override the structured kernels it accelerates
    (im2col/col2im, the conv products, pooling windows and scatters).
    Subclasses must set :attr:`name`.
    """

    #: Registry key; also what ``BMPQConfig.backend`` / ``--backend`` accept.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # creation / casting
    # ------------------------------------------------------------------ #
    def asarray(self, data, dtype=None) -> np.ndarray:
        return np.asarray(data, dtype=dtype)

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=np.float32) -> np.ndarray:
        return np.ones(shape, dtype=dtype)

    def zeros_like(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def empty(self, shape, dtype=np.float32) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def pad2d(self, x: np.ndarray, ph: int, pw: int) -> np.ndarray:
        """Zero-pad the two trailing (spatial) axes."""
        if not (ph or pw):
            return x
        pad_width = [(0, 0)] * (x.ndim - 2) + [(ph, ph), (pw, pw)]
        return np.pad(x, pad_width, mode="constant")

    # ------------------------------------------------------------------ #
    # elementwise
    # ------------------------------------------------------------------ #
    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def abs(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x)

    def sign(self, x: np.ndarray) -> np.ndarray:
        return np.sign(x)

    def clip(self, x: np.ndarray, low, high, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.clip(x, low, high, out=out)

    def round(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.round(x, out=out)

    def maximum(self, a, b) -> np.ndarray:
        return np.maximum(a, b)

    def where(self, cond, a, b) -> np.ndarray:
        return np.where(cond, a, b)

    # ------------------------------------------------------------------ #
    # linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def einsum(self, spec: str, *operands: np.ndarray) -> np.ndarray:
        return np.einsum(spec, *operands)

    # ------------------------------------------------------------------ #
    # scatter
    # ------------------------------------------------------------------ #
    def add_at(self, target: np.ndarray, index, values: np.ndarray) -> None:
        np.add.at(target, index, values)

    # ------------------------------------------------------------------ #
    # convolution kernels (the hot path; backends specialise these)
    # ------------------------------------------------------------------ #
    def im2col(
        self,
        x: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
        reuse: bool = False,
    ) -> Tuple[np.ndarray, IntPair]:
        """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, oh*ow).

        ``reuse=True`` tells the backend the caller will not hold on to the
        result past the next backend call with the same geometry, so a
        scratch buffer may be recycled.  Callers that capture the columns in
        an autograd closure must pass ``reuse=False``.
        """
        raise NotImplementedError

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        """Fold columns produced by :meth:`im2col` back into an image gradient."""
        raise NotImplementedError

    def conv2d_cols(self, w_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Forward product ``(oc, F) x (N, F, P) -> (N, oc, P)``."""
        raise NotImplementedError

    def conv2d_grad_weight(self, grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Weight gradient ``(N, oc, P) x (N, F, P) -> (oc, F)``."""
        raise NotImplementedError

    def conv2d_grad_cols(self, w_mat: np.ndarray, grad_mat: np.ndarray) -> np.ndarray:
        """Input-column gradient ``(oc, F) x (N, oc, P) -> (N, F, P)``."""
        raise NotImplementedError

    def conv2d_grad_input(
        self,
        w_mat: np.ndarray,
        grad_mat: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        """Input gradient ``(oc, F) x (N, oc, P) -> (N, C, H, W)`` of a conv.

        The default folds the full input-column gradient back into the
        image; a fast backend may fuse the two steps, but must return the
        same bits as this composition on its own kernels.
        """
        cols = self.conv2d_grad_cols(w_mat, grad_mat)
        return self.col2im(cols, input_shape, kernel, stride, padding)

    def conv2d_forward(
        self,
        x: np.ndarray,
        w_mat: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        """Convolution ``(oc, F) x (N, C, H, W) -> (N, oc, oh*ow)``.

        The default unfolds ``x`` and multiplies; a fast backend may fuse the
        two steps so the full column tensor never exists, but must return
        the same bits as this composition on its own kernels.
        """
        cols, _ = self.im2col(x, kernel, stride, padding, reuse=True)
        return self.conv2d_cols(w_mat, cols)

    def conv2d_grad_weight_from_input(
        self,
        x: np.ndarray,
        grad_mat: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        """Weight gradient ``(N, oc, P) x (N, C, H, W) -> (oc, F)`` of a conv.

        Re-derives the columns from the layer input, so the autograd graph
        keeps ``x`` instead of the ``kh*kw`` times larger column tensor.  The
        default unfolds and reduces; a fast backend may fuse the two steps,
        but must return the same bits as this composition on its own kernels.
        """
        cols, _ = self.im2col(x, kernel, stride, padding, reuse=True)
        return self.conv2d_grad_weight(grad_mat, cols)

    # ------------------------------------------------------------------ #
    # integer GEMM kernels (the serving hot path)
    # ------------------------------------------------------------------ #
    def int_conv2d(
        self,
        x: np.ndarray,
        w_mat: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
        scale=None,
        bias=None,
    ) -> np.ndarray:
        """Convolution of an (N, C, H, W) input with a pre-packed weight matrix.

        ``w_mat`` has shape ``(oc, C*kh*kw)`` and typically holds integer
        weight *codes*; the per-tensor (scalar) or per-channel (``(oc,)``)
        ``scale`` is distributed out of the accumulation and applied once to
        the accumulator, followed by an optional per-channel ``bias``.  This
        is the deployment contract of Eq. 3-5: store codes, accumulate codes
        against the activations, rescale afterwards.

        The default is the exactness reference: the accumulation runs in
        float64 so integer code products up to 16 bits are exact.  Fast
        backends override this with float32 BLAS.  Compiled plans call the
        bind-time form, :meth:`bind_int_conv2d`, instead.
        """
        n = x.shape[0]
        oc = w_mat.shape[0]
        cols, (oh, ow) = self.im2col(x.astype(np.float64), kernel, stride, padding)
        acc = np.einsum("of,nfp->nop", w_mat.astype(np.float64), cols, optimize=True)
        if scale is not None:
            scale_arr = np.asarray(scale, dtype=np.float64)
            acc = acc * (scale_arr.reshape(1, -1, 1) if scale_arr.ndim else scale_arr)
        if bias is not None:
            acc = acc + np.asarray(bias, dtype=np.float64).reshape(1, -1, 1)
        return acc.reshape(n, oc, oh, ow).astype(np.float32)

    def int_conv2d_cm(
        self,
        x_cm: np.ndarray,
        w_mat: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
        scale=None,
        bias=None,
    ) -> np.ndarray:
        """Channel-major variant of :meth:`int_conv2d`: (C, N, H, W) in and
        (oc, N, oh, ow) out.

        Keeping the batch inside the column axis lets a fast backend express
        the whole convolution as one ``(oc, F) @ (F, N*oh*ow)`` GEMM instead
        of N small batched products, and lets a compiled inference plan chain
        convolutions without any inter-layer transposes.  The reference
        implementation simply round-trips through :meth:`int_conv2d`.
        """
        x = np.ascontiguousarray(np.moveaxis(x_cm, 0, 1))
        out = self.int_conv2d(x, w_mat, kernel, stride, padding, scale=scale, bias=bias)
        return np.ascontiguousarray(np.moveaxis(out, 1, 0))

    def residual_add(self, acc: np.ndarray, identity: np.ndarray) -> np.ndarray:
        """Residual join ``acc + identity`` of a reference plan.

        ``identity`` may be a transposed (layout-permuted) view; the result
        is bitwise-identical either way.  Optimized plans bind the same
        ``np.add`` into their arena instead.
        """
        return acc + identity

    def residual_mul(self, acc: np.ndarray, gate: np.ndarray) -> np.ndarray:
        """Gating join ``acc * gate`` of a reference plan — the
        multiplicative sibling of :meth:`residual_add` behind
        attention-style ``value * sigmoid(gate)`` joins."""
        return acc * gate

    def int_linear(self, x: np.ndarray, w: np.ndarray, scale=None, bias=None) -> np.ndarray:
        """Fully connected product ``x @ w.T`` with post-accumulation rescale.

        ``w`` is ``(out_features, in_features)`` — integer codes or already
        scaled weights; ``scale`` is a scalar or ``(out_features,)`` vector.
        Float64 reference; fast backends override with a single float32 GEMM.
        """
        acc = x.astype(np.float64) @ w.astype(np.float64).T
        if scale is not None:
            acc = acc * np.asarray(scale, dtype=np.float64)
        if bias is not None:
            acc = acc + np.asarray(bias, dtype=np.float64)
        return acc.astype(np.float32)

    # ------------------------------------------------------------------ #
    # pooling kernels
    # ------------------------------------------------------------------ #
    def pool_windows(
        self, x: np.ndarray, kernel: IntPair, stride: IntPair
    ) -> np.ndarray:
        """Window tensor of shape (N, C, oh, ow, kh, kw) over ``x``.

        The result may be a read-only view; callers must not write to it.
        """
        raise NotImplementedError

    def avg_pool_backward(
        self,
        grad: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
    ) -> np.ndarray:
        """Scatter an average-pool gradient uniformly over each window."""
        raise NotImplementedError

    def pool_max(self, x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
        """Forward-only max pooling over the two trailing axes.

        Unlike :meth:`pool_windows` (which the training path needs for its
        argmax bookkeeping) this returns only the pooled values, so fast
        backends may reduce with strided slice maxima instead of
        materialising a 6-D window tensor.  The two leading axes are treated
        as batch, so it serves both the (N, C, H, W) and channel-major
        layouts.
        """
        return self.pool_windows(x, kernel, stride).max(axis=(-1, -2))

    def pool_avg(self, x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
        """Forward-only average pooling over the two trailing axes."""
        return self.pool_windows(x, kernel, stride).mean(axis=(-1, -2))

    def max_pool_backward(
        self,
        grad: np.ndarray,
        argmax: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
    ) -> np.ndarray:
        """Scatter a max-pool gradient to each window's argmax position.

        ``argmax`` holds flat (kh*kw) indices per (n, c, oh, ow) window.
        """
        n, c, h, w = input_shape
        _, _, oh, ow = argmax.shape
        kh, kw = kernel
        sh, sw = stride
        grad_input = self.zeros(input_shape, dtype=grad.dtype)
        ki = argmax // kw
        kj = argmax % kw
        n_idx, c_idx, i_idx, j_idx = np.indices((n, c, oh, ow))
        rows = i_idx * sh + ki
        cols = j_idx * sw + kj
        self.add_at(grad_input, (n_idx, c_idx, rows, cols), grad)
        return grad_input

    # ------------------------------------------------------------------ #
    # bind-time kernels (compiled plans)
    # ------------------------------------------------------------------ #
    # A compiled plan binds each step once per input shape.  A bind-time
    # kernel works out its geometry, arena buffers and operand views up
    # front and returns ``(out, calls)``: the output array and the
    # ``(callable, args)`` numpy calls that fill it.  The plan replays the
    # calls on every later run at that shape, so none of this runs on the
    # hot path.  ``x`` must be the very array the calls read at run time (an
    # arena buffer or a view of one); ``workspace``/``key`` are the plan's
    # :class:`~repro.serve.workspace.PlanWorkspace` and the step's key.  The
    # defaults wrap the per-call kernel as one call that writes into an
    # arena buffer, so a backend that overrides none of them replays its
    # per-call numbers exactly.
    def bind_int_conv2d(
        self, x, w_mat, kernel: IntPair, stride: IntPair, padding: IntPair,
        scale, bias, workspace, key,
    ) -> Bound:
        """Bind-time :meth:`int_conv2d` (batch-major, no layout reroute)."""
        oh, ow = _output_hw(x.shape, kernel, stride, padding)
        shape = (x.shape[0], w_mat.shape[0], oh, ow)
        return _bind_per_call(
            workspace, key, shape, np.float32,
            self.int_conv2d, x, w_mat, kernel, stride, padding, scale, bias,
        )

    def bind_int_conv2d_cm(
        self, x_cm, w_mat, kernel: IntPair, stride: IntPair, padding: IntPair,
        scale, bias, workspace, key,
    ) -> Bound:
        """Bind-time :meth:`int_conv2d_cm`."""
        oh, ow = _output_hw(x_cm.shape, kernel, stride, padding)
        shape = (w_mat.shape[0], x_cm.shape[1], oh, ow)
        return _bind_per_call(
            workspace, key, shape, np.float32,
            self.int_conv2d_cm, x_cm, w_mat, kernel, stride, padding, scale, bias,
        )

    def bind_int_linear(self, x, w, scale, bias, workspace, key) -> Bound:
        """Bind-time :meth:`int_linear`."""
        shape = x.shape[:-1] + (w.shape[0],)
        return _bind_per_call(workspace, key, shape, np.float32, self.int_linear, x, w, scale, bias)

    def bind_pool_max(self, x, kernel: IntPair, stride: IntPair, workspace, key) -> Bound:
        """Bind-time :meth:`pool_max`."""
        shape = x.shape[:2] + _output_hw(x.shape, kernel, stride, (0, 0))
        return _bind_per_call(workspace, key, shape, x.dtype, self.pool_max, x, kernel, stride)

    def bind_pool_avg(self, x, kernel: IntPair, stride: IntPair, workspace, key) -> Bound:
        """Bind-time :meth:`pool_avg`."""
        shape = x.shape[:2] + _output_hw(x.shape, kernel, stride, (0, 0))
        return _bind_per_call(workspace, key, shape, x.dtype, self.pool_avg, x, kernel, stride)

    # ------------------------------------------------------------------ #
    # normalization statistics
    # ------------------------------------------------------------------ #
    def moments(self, x: np.ndarray, axes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel (mean, biased variance) over ``axes``."""
        return x.mean(axis=axes), x.var(axis=axes)

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def clear_cache(self) -> None:
        """Drop any scratch buffers / memoised geometry (no-op by default)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------------- #
# registry / active-backend switch
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, ArrayBackend] = {}
_ACTIVE: Optional[ArrayBackend] = None
_DEFAULT_NAME = "fast"


def register_backend(backend: ArrayBackend, default: bool = False) -> ArrayBackend:
    """Add ``backend`` to the registry (optionally as the process default)."""
    global _DEFAULT_NAME
    _REGISTRY[backend.name] = backend
    if default:
        _DEFAULT_NAME = backend.name
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`set_backend` / ``BMPQConfig.backend``."""
    return tuple(sorted(_REGISTRY))


def _resolve(backend: Union[str, ArrayBackend, None]) -> ArrayBackend:
    if backend is None:
        return _REGISTRY[_DEFAULT_NAME]
    if isinstance(backend, ArrayBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown array backend {backend!r}; available: {', '.join(available_backends())}"
        ) from None


def get_backend() -> ArrayBackend:
    """Return the active backend (initialising to the default on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _REGISTRY[_DEFAULT_NAME]
    return _ACTIVE


def set_backend(backend: Union[str, ArrayBackend]) -> ArrayBackend:
    """Make ``backend`` (a name or instance) the process-wide active backend."""
    global _ACTIVE
    _ACTIVE = _resolve(backend)
    return _ACTIVE


class use_backend:
    """Context manager that activates a backend for the enclosed scope.

    Mirrors :class:`repro.nn.tensor.no_grad`; nesting is safe and the
    previous backend is restored on exit even if an exception escapes::

        with use_backend("numpy"):
            loss = model(x)          # reference numerics

    ``use_backend(None)`` is a no-op scope that keeps whatever backend is
    active — it lets callers thread an optional per-run override
    (``BMPQConfig.backend``) without clobbering a global
    :func:`set_backend` choice when no override was given.
    """

    def __init__(self, backend: Union[str, ArrayBackend, None]) -> None:
        self._target = None if backend is None else _resolve(backend)
        self._previous: Optional[ArrayBackend] = None

    def __enter__(self) -> ArrayBackend:
        global _ACTIVE
        self._previous = get_backend()
        if self._target is not None:
            _ACTIVE = self._target
        return get_backend()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
