"""Vectorized NumPy backend: the default for training and benchmarks.

Five ideas buy the speedup over the reference backend:

* **Direct column fills** — every column builder (``im2col`` in both modes
  and the serving-path batch- and channel-major columns) is filled
  straight from the unpadded input with ``kh*kw`` strided slice copies from
  the memoised :meth:`_window_slices` table, instead of a Python loop per
  output position or a padded copy of the input.  Padding positions are
  never written, so the zero border is an invariant of the zeroed column
  buffer.  Pooling windows stay a zero-copy ``as_strided`` view.
* **One chunked column schedule** — a few samples' columns are filled into
  one chunk-sized buffer, zeroed once, and each chunk goes to a GEMM while
  it is cache-resident.  The training kernels :meth:`conv2d_forward` and
  :meth:`conv2d_grad_weight_from_input` walk :meth:`_conv_chunks` on
  thread-local scratch, so training never builds (or keeps in its autograd
  graph) the full ``(N, F, P)`` column tensor: the weight gradient re-fills
  each chunk from the layer input.  Compiled plans bind the same schedule
  once per batch shape (:meth:`bind_int_conv2d`).  Pointwise convs skip the
  fill.  Both training kernels give the bits of their ``im2col``
  compositions.
* **Col2im-free input gradient** — :meth:`conv2d_grad_input` never builds
  the full ``(N, F, P)`` input-column gradient.  For stride-1 convs it runs
  the GEMM a few samples at a time into an offset-major, zero-extended
  layout in which each kernel offset lands on the padded input gradient as
  ONE contiguous slice-add per sample; a fold pays NumPy's per-row cost on
  every image row of every plane for every offset.  Strided convs scatter
  through the same window table as the fill.  Both give the bits of
  ``col2im(conv2d_grad_cols(...))``.
* **BLAS dispatch** — the conv forward/backward contractions are expressed
  as (batched) ``matmul`` calls so they hit BLAS instead of ``einsum``'s
  generic C loop.
* **Bound serving kernels** — the ``bind_*`` forms work out a compiled
  plan step's geometry, window slices, chunk bounds and
  :class:`~repro.serve.workspace.PlanWorkspace` buffers once and return
  the slice copies, ``matmul(..., out)`` GEMMs and in-place epilogue calls
  the plan replays, so a steady-state plan run does no set-up work and
  allocates nothing.
* **Scratch-buffer & geometry caching** — per (shape, kernel, stride,
  padding) signature the output geometry is memoised and the column and
  chunk buffers are recycled across iterations (``im2col`` only when the
  caller signals the columns are transient, ``reuse=True``).  Scratch
  buffers are **thread-local**: two engines (or a server's worker threads,
  two trainers, or a trainer and the autograd engine's weight-gradient
  thread) running on the shared backend instance can never alias each
  other's scratch.

The numbers produced are identical to :class:`NumpyBackend` up to float32
summation order; ``tests/backend/test_backend_parity.py`` pins the
tolerance.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from .base import ArrayBackend, IntPair, conv_output_size, expand_channel_operands

__all__ = ["FastNumpyBackend"]

# Scratch buffers are only worth keeping for a bounded set of geometries
# (one per distinct conv/pool layer signature); evict FIFO past this.
_MAX_CACHE_ENTRIES = 128


class FastNumpyBackend(ArrayBackend):
    """`as_strided` + BLAS implementation with buffer/geometry caches."""

    name = "fast"

    def __init__(self) -> None:
        self._geometry: Dict[Tuple, Tuple[int, int]] = {}
        self._tls = threading.local()
        self._calibrated_cm_max_positions: Optional[int] = None
        self._calibrated_batched_max_fan_in: Optional[int] = None
        self._call_arena = _CallArena(self)

    # ------------------------------------------------------------------ #
    # caches
    # ------------------------------------------------------------------ #
    @property
    def _scratch(self) -> Dict[Tuple, np.ndarray]:
        # Thread-local: scratch keys are shared per geometry, so a single
        # process-wide dict would let two threads serving through the same
        # backend instance alias (and corrupt) each other's column buffers.
        store = getattr(self._tls, "scratch", None)
        if store is None:
            store = {}
            self._tls.scratch = store
        return store

    def _output_geometry(
        self, shape: Tuple[int, ...], kernel: IntPair, stride: IntPair, padding: IntPair
    ) -> Tuple[int, int]:
        key = (shape, kernel, stride, padding)
        geometry = self._geometry.get(key)
        if geometry is None:
            _, _, h, w = shape
            geometry = (
                conv_output_size(h, kernel[0], stride[0], padding[0]),
                conv_output_size(w, kernel[1], stride[1], padding[1]),
            )
            if len(self._geometry) >= _MAX_CACHE_ENTRIES:
                # The geometry cache is shared across threads; a concurrent
                # eviction racing this one must not raise.
                try:
                    self._geometry.pop(next(iter(self._geometry)), None)
                except (StopIteration, RuntimeError):
                    pass
            self._geometry[key] = geometry
        return geometry

    def _scratch_buffer(
        self, key: Tuple, shape: Tuple[int, ...], dtype, zero_on_alloc: bool = False
    ) -> np.ndarray:
        scratch = self._scratch
        buffer = scratch.get(key)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.zeros(shape, dtype=dtype) if zero_on_alloc else np.empty(shape, dtype=dtype)
            if len(scratch) >= _MAX_CACHE_ENTRIES:
                scratch.pop(next(iter(scratch)))
            scratch[key] = buffer
        return buffer

    def clear_cache(self) -> None:
        self._geometry.clear()
        self._scratch.clear()

    # ------------------------------------------------------------------ #
    # convolution kernels
    # ------------------------------------------------------------------ #
    def im2col(
        self,
        x: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
        reuse: bool = False,
    ) -> Tuple[np.ndarray, IntPair]:
        geometry = self._output_geometry(x.shape, kernel, stride, padding)
        if reuse:
            return self._nchw_columns(x, kernel, stride, padding), geometry
        # The caller keeps these columns (an autograd closure), so they get
        # a fresh zeroed buffer; the fill is the same direct slice copy.
        n, c, h, w = x.shape
        kh, kw = kernel
        oh, ow = geometry
        cols = np.zeros((n, c, kh, kw, oh, ow), dtype=x.dtype)
        for i, j, oi, oj, ri, rj in self._window_slices(h, w, oh, ow, kernel, stride, padding):
            cols[:, :, i, j, oi, oj] = x[:, :, ri, rj]
        return cols.reshape(n, c * kh * kw, oh * ow), geometry

    def _scatter_windows(self, cols: np.ndarray, out: np.ndarray, kernel: IntPair,
                         stride: IntPair, padding: IntPair) -> None:
        """Add ``cols`` (m, c*kh*kw, oh*ow) into the (m, c, h, w) image ``out``.

        The adjoint of the direct column fill: one strided slice-add per
        in-bounds kernel offset, straight into the unpadded image, in the
        same offset order as a padded fold (so the sums are bitwise equal).
        """
        m, c, h, w = out.shape
        kh, kw = kernel
        oh, ow = self._output_geometry(out.shape, kernel, stride, padding)
        cols6 = cols.reshape(m, c, kh, kw, oh, ow)
        for i, j, oi, oj, ri, rj in self._window_slices(h, w, oh, ow, kernel, stride, padding):
            out[:, :, ri, rj] += cols6[:, :, i, j, oi, oj]

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        image = np.zeros(input_shape, dtype=cols.dtype)
        self._scatter_windows(cols, image, kernel, stride, padding)
        return image

    def conv2d_grad_input(
        self,
        w_mat: np.ndarray,
        grad_mat: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        if stride != (1, 1):
            # Strided kernel offsets do not map to one shift of the image, so
            # the grad-cols are scattered window by window, straight into
            # the unpadded gradient.  Chunking measured slower here: the
            # scatter's cost is per call and per row, not per byte.
            grad_input = np.zeros(input_shape, dtype=np.result_type(w_mat.dtype, grad_mat.dtype))
            self._scatter_windows(np.matmul(w_mat.T, grad_mat), grad_input, kernel, stride, padding)
            return grad_input
        # Stride 1: the grad-cols value of kernel offset (i, j) at output
        # (row, col) adds to padded input (row + i, col + j).  Each sample's
        # grad-cols are laid out offset-major, (kh*kw, c, hp, wp), with rows
        # zero-extended from ow to wp and planes from oh to hp, so offset
        # (i, j) is ONE contiguous run per sample, added onto the padded
        # image shifted by i*wp + j.  NumPy adds a contiguous run at memory
        # speed but pays per row for a strided one.  Where a run crosses a
        # row or plane edge it adds extension zeros, which change no bit,
        # and what it cuts off at the image end is zeros too.  Extension
        # entries are zeroed at allocation and never written (the keys pin
        # the geometry).  The offset-major weight keeps conv2d_grad_cols'
        # transposed BLAS call, so every value is computed as before.
        # Chunks of a few samples keep a chunk's grad-cols cache resident
        # between GEMM and scatter; per-sample GEMMs are independent, so
        # chunking changes no bit.
        n, c, h, w = input_shape
        kh, kw = kernel
        ph, pw = padding
        oh, ow = self._output_geometry(input_shape, kernel, stride, padding)
        oc, fan_in = w_mat.shape
        dtype = np.result_type(w_mat.dtype, grad_mat.dtype)
        step = self._CONV_CHUNK_SAMPLES
        hp, wp = h + 2 * ph, w + 2 * pw
        kk = kh * kw
        image_size = c * hp * wp
        w_t = np.ascontiguousarray(w_mat.reshape(oc, c, kk).transpose(0, 2, 1)).reshape(oc, fan_in).T
        padded = np.zeros((n, image_size), dtype=dtype)
        ext_shape = (step, oc, oh, wp)
        ext = self._scratch_buffer(
            ("gi_ext", ext_shape, ow, grad_mat.dtype.str), ext_shape, grad_mat.dtype,
            zero_on_alloc=True,
        )
        shape = (step, kk, image_size)
        cols = self._scratch_buffer(
            ("gi_cols", shape, (c, hp, wp, oh), dtype.str), shape, dtype, zero_on_alloc=True
        )
        products = cols.reshape(step, fan_in, hp * wp)[:, :, : oh * wp]
        grad4 = grad_mat.reshape(n, oc, oh, ow)
        for s in range(0, n, step):
            m = min(step, n - s)
            ext[:m, :, :, :ow] = grad4[s : s + m]
            np.matmul(w_t, ext[:m].reshape(m, oc, oh * wp), out=products[:m])
            images = padded[s : s + m]
            for i in range(kh):
                for j in range(kw):
                    start = i * wp + j
                    images[:, start:] += cols[:m, i * kw + j, : image_size - start]
        padded = padded.reshape(n, c, hp, wp)
        if ph or pw:
            return padded[:, :, ph : ph + h, pw : pw + w]
        return padded

    def conv2d_forward(
        self,
        x: np.ndarray,
        w_mat: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        # The chunked schedule of compiled plans, on thread-local scratch:
        # per-sample GEMMs are independent, so each chunk's product lands
        # bit for bit where the whole-batch matmul would put it.
        n = x.shape[0]
        oc, fan_in = w_mat.shape
        oh, ow = self._output_geometry(x.shape, kernel, stride, padding)
        out = np.empty((n, oc, oh * ow), dtype=np.result_type(w_mat.dtype, x.dtype))
        step = self._conv_chunk_samples(n, fan_in, oh * ow)
        for s, cols in self._conv_chunks(x, kernel, stride, padding, step):
            np.matmul(w_mat, cols, out=out[s : s + step])
        return out

    def conv2d_grad_weight_from_input(
        self,
        x: np.ndarray,
        grad_mat: np.ndarray,
        kernel: IntPair,
        stride: IntPair,
        padding: IntPair,
    ) -> np.ndarray:
        # Re-fill each chunk's columns from ``x`` and reduce its per-sample
        # products.  ``np.sum`` over the leading axis adds samples in order,
        # so carrying the running total into a chunk's first product makes
        # the chunked sums the bits of the whole-batch ``.sum(axis=0)``.
        n, c = x.shape[:2]
        oc = grad_mat.shape[1]
        kh, kw = kernel
        fan_in = c * kh * kw
        dtype = np.result_type(grad_mat.dtype, x.dtype)
        step = self._conv_chunk_samples(n, fan_in, grad_mat.shape[2])
        shape = (step, oc, fan_in)
        products = self._scratch_buffer(("gw_prod", shape, dtype.str), shape, dtype)
        grad_w = np.zeros((oc, fan_in), dtype=dtype)
        for s, cols in self._conv_chunks(x, kernel, stride, padding, step):
            chunk = products[: cols.shape[0]]
            np.matmul(grad_mat[s : s + step], cols.transpose(0, 2, 1), out=chunk)
            if s:
                chunk[0] += grad_w
            np.sum(chunk, axis=0, out=grad_w)
        return grad_w

    def conv2d_cols(self, w_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # (oc, F) @ (N, F, P) broadcasts to batched BLAS -> (N, oc, P).
        return np.matmul(w_mat, cols)

    def conv2d_grad_weight(self, grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # sum_n grad[n] @ cols[n]^T via batched BLAS, then reduce the batch.
        return np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)

    def conv2d_grad_cols(self, w_mat: np.ndarray, grad_mat: np.ndarray) -> np.ndarray:
        return np.matmul(w_mat.T, grad_mat)

    # ------------------------------------------------------------------ #
    # integer GEMM kernels
    # ------------------------------------------------------------------ #
    # Below this many output positions per sample, the batched per-sample
    # GEMMs are too small to use BLAS well and the channel-major single-GEMM
    # route wins even after paying two layout transposes.  This class-level
    # value is the portable default; ``cm_max_positions`` resolves the
    # effective threshold (env override, then per-machine calibration).
    _CM_MAX_POSITIONS = 64
    # The plan compiler's layout split keys on *fan-in* (c*kh*kw), not
    # positions: with the direct column fills, N per-sample GEMMs beat the
    # single wide channel-major GEMM whenever the K dimension is skinny,
    # at every spatial size — and lose once the fan-in is large enough for
    # one wide sgemm to pay off.
    _BATCHED_MAX_FAN_IN = 192
    # Chunked batched schedule (compiled plans and training): fill a few
    # samples' columns, multiply, repeat.  The chunk's column block stays
    # cache-resident for its GEMM instead of streaming the whole batch's
    # columns through memory twice, and one chunk-sized buffer serves every
    # chunk of every same-geometry conv.  Only worth it when the column
    # block is big enough to spill cache (wide-ish fan-in at many output
    # positions); tiny fills are dominated by call overhead.
    _CONV_CHUNK_SAMPLES = 4
    _CONV_CHUNK_MIN_FAN_IN = 64
    _CONV_CHUNK_MIN_POSITIONS = 256

    @property
    def cm_max_positions(self) -> int:
        """The effective batched-vs-channel-major crossover threshold.

        Resolution order: the ``REPRO_CM_MAX_POSITIONS`` environment variable
        (must parse as a non-negative integer) pins it; otherwise a value
        measured by :meth:`calibrate_cm_max_positions` (the serving engine
        calls this during ``warmup()``); otherwise the class default.
        """
        env = os.environ.get("REPRO_CM_MAX_POSITIONS")
        if env is not None and env.strip():
            value = int(env)
            if value < 0:
                raise ValueError(
                    f"REPRO_CM_MAX_POSITIONS must be non-negative, got {value}"
                )
            return value
        if self._calibrated_cm_max_positions is not None:
            return self._calibrated_cm_max_positions
        return self._CM_MAX_POSITIONS

    @property
    def batched_max_fan_in(self) -> int:
        """The fan-in crossover for the plan compiler's layout split.

        Convolutions whose fan-in (``c*kh*kw``, the GEMM's K dimension) is at
        most this run batch-major in compiled plans; wider ones run
        channel-major.  A calibrated value (see
        :meth:`calibrate_cm_max_positions`) replaces the class default once
        the serving engine has warmed up.
        """
        if self._calibrated_batched_max_fan_in is not None:
            return self._calibrated_batched_max_fan_in
        return self._BATCHED_MAX_FAN_IN

    def calibrate_cm_max_positions(self, force: bool = False) -> int:
        """Measure the batched-vs-channel-major crossovers on this machine.

        Two thresholds are recorded.  :attr:`cm_max_positions` — the largest
        output-position count where the channel-major route wins *including*
        its output transpose — drives the per-call rerouting inside
        :meth:`int_conv2d` (module path, integer sessions), timed on a
        representative (c=16, k=3) layer across a ladder of spatial sizes.
        :attr:`batched_max_fan_in` — the largest fan-in where the bare
        batched kernel beats the bare channel-major GEMM — drives the plan
        compiler's layout split, timed at a serving-representative batch
        across a ladder of channel widths (spatial size barely moves this
        crossover; the GEMM's K dimension does).  The measurement runs once
        per process (the result is cached; pass ``force=True`` to
        re-measure) and is skipped entirely when ``REPRO_CM_MAX_POSITIONS``
        pins the threshold.
        """
        if os.environ.get("REPRO_CM_MAX_POSITIONS", "").strip():
            return self.cm_max_positions
        if self._calibrated_cm_max_positions is not None and not force:
            return self._calibrated_cm_max_positions
        rng = np.random.default_rng(0)
        n, c, oc = 8, 16, 16
        w_mat = rng.integers(-7, 8, size=(oc, c * 9)).astype(np.float32)
        kernel, stride, padding = (3, 3), (1, 1), (1, 1)

        def best_of(fn, repeats: int = 3) -> float:
            fn()  # warm the scratch buffers out of the measurement
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        threshold = 0
        for hw in (4, 8, 12, 16, 24):
            x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
            x_cm = np.ascontiguousarray(x.transpose(1, 0, 2, 3))

            def batched(x=x):
                cols = self._nchw_columns(x, kernel, stride, padding)
                np.matmul(w_mat, cols)

            def channel_major(x_cm=x_cm):
                out_cm = self.int_conv2d_cm(x_cm, w_mat, kernel, stride, padding)
                np.ascontiguousarray(out_cm.transpose(1, 0, 2, 3))

            if best_of(channel_major) <= best_of(batched):
                threshold = hw * hw
        self._calibrated_cm_max_positions = threshold

        fan_threshold = 0
        nb, hwb = 32, 16
        for cb in (4, 8, 16, 24):
            wb = rng.integers(-7, 8, size=(cb, cb * 9)).astype(np.float32)
            xb = rng.standard_normal((nb, cb, hwb, hwb)).astype(np.float32)
            xb_cm = np.ascontiguousarray(xb.transpose(1, 0, 2, 3))
            accb = np.empty((nb, cb, hwb * hwb), dtype=np.float32)
            step = self._conv_chunk_samples(nb, cb * 9, hwb * hwb)

            def batched_kernel(xb=xb, wb=wb, accb=accb, step=step):
                # Mirror the compiled plan's schedule: chunked when the
                # geometry qualifies, monolithic otherwise.
                for s, cols in self._conv_chunks(xb, kernel, stride, padding, step):
                    np.matmul(wb, cols, out=accb[s : s + step])

            def cm_kernel(xb_cm=xb_cm, wb=wb):
                self.int_conv2d_cm(xb_cm, wb, kernel, stride, padding)

            if best_of(batched_kernel) <= best_of(cm_kernel):
                fan_threshold = cb * 9
        self._calibrated_batched_max_fan_in = fan_threshold
        return threshold

    @staticmethod
    @functools.lru_cache(maxsize=512)
    def _window_slices(h, w, oh, ow, kernel: IntPair, stride: IntPair, padding: IntPair):
        """Per kernel offset: matching (output-window, strided-input) slices.

        The direct column fills copy one strided input region per in-bounds
        kernel offset; out-of-bounds (padding) positions are simply never
        written, so a zero-initialised column buffer keeps its zero border as
        an invariant across reuse.  Memoised: the slice math costs ~10us in
        Python per call, which the chunked schedule would otherwise pay once
        per chunk per conv per inference.
        """
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        slices = []
        for i in range(kh):
            for j in range(kw):
                oi_s = max(0, -(-(ph - i) // sh))
                oi_e = min(oh, -(-(h + ph - i) // sh))
                oj_s = max(0, -(-(pw - j) // sw))
                oj_e = min(ow, -(-(w + pw - j) // sw))
                if oi_s >= oi_e or oj_s >= oj_e:
                    continue
                r0 = oi_s * sh + i - ph
                c0 = oj_s * sw + j - pw
                r1 = r0 + (oi_e - oi_s - 1) * sh + 1
                c1 = c0 + (oj_e - oj_s - 1) * sw + 1
                slices.append(
                    (
                        i,
                        j,
                        slice(oi_s, oi_e),
                        slice(oj_s, oj_e),
                        slice(r0, r1, sh),
                        slice(c0, c1, sw),
                    )
                )
        return tuple(slices)

    def _nchw_columns(self, x: np.ndarray, kernel: IntPair, stride: IntPair,
                      padding: IntPair) -> np.ndarray:
        """Batch-major column tensor ``(n, c*kh*kw, oh*ow)``, filled directly.

        Instead of padding the input and copying a 6-D strided window view,
        each of the kh*kw kernel offsets contributes one strided slice copy
        from the *unpadded* input into a zero-initialised column buffer whose
        key pins the full geometry, so the fill is bitwise-identical to the
        padded-window copy at a fraction of the memory traffic.
        """
        n, c, h, w = x.shape
        kh, kw = kernel
        oh, ow = self._output_geometry(x.shape, kernel, stride, padding)
        shape = (n, c, kh, kw, oh, ow)
        key = ("i2c_nb", shape, stride, padding, (h, w), x.dtype.str)
        cols = self._scratch_buffer(key, shape, x.dtype, zero_on_alloc=True)
        for i, j, oi, oj, ri, rj in self._window_slices(h, w, oh, ow, kernel, stride, padding):
            cols[:, :, i, j, oi, oj] = x[:, :, ri, rj]
        return cols.reshape(n, c * kh * kw, oh * ow)

    def _conv_chunk_samples(self, n: int, fan_in: int, positions: int) -> int:
        """Samples per chunk of the batch-major schedule (the whole batch if unchunked)."""
        if (
            n > self._CONV_CHUNK_SAMPLES
            and fan_in >= self._CONV_CHUNK_MIN_FAN_IN
            and positions >= self._CONV_CHUNK_MIN_POSITIONS
        ):
            return self._CONV_CHUNK_SAMPLES
        return max(n, 1)

    def _conv_chunks(self, x: np.ndarray, kernel: IntPair, stride: IntPair, padding: IntPair,
                     step: int):
        """Yield ``(start, cols)``: the ``(m, c*kh*kw, oh*ow)`` columns of each
        run of ``step`` samples of ``x``, in sample order.

        The column loop of the training kernels (the forward and the weight
        gradient).  Every chunk is filled into one chunk-sized thread-local
        scratch buffer that is zeroed once and keeps its zero border, so the
        full ``(N, F, P)`` column tensor never exists when ``step < N``.  A
        pointwise conv's columns ARE the (strided) input: no fill, the chunks
        are views.  The buffer is overwritten by the next chunk, so consume
        each before advancing.  :meth:`bind_int_conv2d` binds the same
        schedule for the integer kernels.
        """
        n, c, h, w = x.shape
        kh, kw = kernel
        oh, ow = self._output_geometry(x.shape, kernel, stride, padding)
        if (kh, kw) == (1, 1) and padding == (0, 0):
            sh, sw = stride
            sub = x if (sh, sw) == (1, 1) else x[:, :, ::sh, ::sw]
            cols = self._pointwise_cols(sub).reshape(n, c, oh * ow)
            for s in range(0, n, step):
                yield s, cols[s : s + step]
            return
        shape = (step, c, kh, kw, oh, ow)
        buffer_key = ("i2c_nb", shape, stride, padding, (h, w), x.dtype.str)
        buffer = self._scratch_buffer(buffer_key, shape, x.dtype, zero_on_alloc=True)
        cols = buffer.reshape(step, c * kh * kw, oh * ow)
        slices = self._window_slices(h, w, oh, ow, kernel, stride, padding)
        for s in range(0, n, step):
            xs = x[s : s + step]
            m = xs.shape[0]
            for i, j, oi, oj, ri, rj in slices:
                buffer[:m, :, i, j, oi, oj] = xs[:, :, ri, rj]
            yield s, cols[:m]

    def _pointwise_cols(self, sub: np.ndarray) -> np.ndarray:
        """2-D column view/copy ``(lead, rest)`` of a 1x1 convolution's
        (strided) input, channel- or batch-major."""
        shape = (sub.shape[0], int(np.prod(sub.shape[1:])))
        if sub.flags["C_CONTIGUOUS"]:
            return sub.reshape(shape)
        buf = self._scratch_buffer(("pw", shape, sub.dtype), shape, sub.dtype)
        np.copyto(buf.reshape(sub.shape), sub)
        return buf

    # The per-call integer and pooling kernels (IntegerInferenceSession,
    # calibration) are their bind-time forms, bound on a _CallArena and
    # replayed once: one implementation of each kernel.
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
        # Small spatial maps reroute to the channel-major GEMM (the positions
        # threshold; compiled plans choose per conv instead).
        oh, ow = self._output_geometry(x.shape, kernel, stride, padding)
        if x.shape[0] > 1 and oh * ow <= self.cm_max_positions:
            out_cm = self.int_conv2d_cm(
                x.transpose(1, 0, 2, 3), w_mat, kernel, stride, padding,
                scale=scale, bias=bias,
            )
            return np.ascontiguousarray(out_cm.transpose(1, 0, 2, 3))
        return self._call(self.bind_int_conv2d, x, w_mat, kernel, stride, padding, scale, bias)

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
        return self._call(
            self.bind_int_conv2d_cm, x_cm, w_mat, kernel, stride, padding, scale, bias
        )

    def int_linear(self, x: np.ndarray, w: np.ndarray, scale=None, bias=None) -> np.ndarray:
        return self._call(self.bind_int_linear, x, w, scale, bias)

    def _call(self, bind, *args) -> np.ndarray:
        out, calls = bind(*args, self._call_arena, None)
        for fn, call_args in calls:
            fn(*call_args)
        return out

    # ------------------------------------------------------------------ #
    # pooling kernels
    # ------------------------------------------------------------------ #
    def pool_windows(self, x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
        oh, ow = self._output_geometry(x.shape, kernel, stride, (0, 0))
        kh, kw = kernel
        sh, sw = stride
        n, c = x.shape[:2]
        s = x.strides
        return np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, kh, kw),
            strides=(s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
            writeable=False,
        )

    def avg_pool_backward(
        self,
        grad: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel: IntPair,
        stride: IntPair,
    ) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        oh, ow = self._output_geometry(input_shape, kernel, stride, (0, 0))
        grad_input = np.zeros(input_shape, dtype=grad.dtype)
        scaled = grad * grad.dtype.type(1.0 / (kh * kw))
        for i in range(kh):
            for j in range(kw):
                grad_input[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += scaled
        return grad_input

    def pool_max(self, x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
        return self._call(self.bind_pool_max, x, kernel, stride)

    def pool_avg(self, x: np.ndarray, kernel: IntPair, stride: IntPair) -> np.ndarray:
        return self._call(self.bind_pool_avg, x, kernel, stride)

    # ------------------------------------------------------------------ #
    # bind-time kernels (compiled plans; see ArrayBackend.bind_int_conv2d)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _scale_bias_calls(acc: np.ndarray, scale, bias, channel_axis: int, workspace) -> list:
        """In-place calls applying the distributed scale and per-channel bias
        (operands expanded for a compiled plan's arena, not a _CallArena)."""
        shape = [1] * acc.ndim
        shape[channel_axis] = -1
        ops, calls = [], []
        for value, ufunc in ((scale, np.multiply), (bias, np.add)):
            if value is not None:
                arr = np.asarray(value, dtype=acc.dtype)
                ops.append(arr.reshape(shape) if arr.ndim else arr)
                calls.append(ufunc)
        if not isinstance(workspace, _CallArena):
            ops = expand_channel_operands(acc, ops)
        return [(ufunc, (acc, op, acc)) for ufunc, op in zip(calls, ops)]

    @staticmethod
    def _bind_pointwise_cols(sub: np.ndarray, workspace, key, calls: list) -> np.ndarray:
        """:meth:`_pointwise_cols` bound on the arena: a view of a contiguous
        ``sub``, else an arena buffer plus the call that copies into it."""
        shape = (sub.shape[0], int(np.prod(sub.shape[1:])))
        if sub.flags["C_CONTIGUOUS"]:
            return sub.reshape(shape)
        buf = workspace.buffer((key, "pw"), shape, sub.dtype)
        calls.append((np.copyto, (buf.reshape(sub.shape), sub)))
        return buf

    def bind_int_conv2d(self, x, w_mat, kernel, stride, padding, scale, bias, workspace, key):
        # The compiled plan already chose this conv's layout (its fan-in
        # split), so the batched kernel is bound as asked, in chunks of
        # _conv_chunk_samples.  The accumulation is float32 sgemm.  It is
        # NOT exact in integer mode: the weights are integer codes, but the
        # activations they multiply are dequantized floats (each PACT
        # staircase ends with ``x step``), so the products are not integers
        # and their rounding depends on the GEMM's shape.  See ROADMAP
        # "Codes end to end".
        n, c, h, w = x.shape
        kh, kw = kernel
        oc, fan_in = w_mat.shape
        oh, ow = self._output_geometry(x.shape, kernel, stride, padding)
        shape = (n, oc, oh * ow)
        out_dtype = np.result_type(w_mat.dtype, x.dtype)
        acc = workspace.buffer((key, "acc"), shape, out_dtype)
        step = self._conv_chunk_samples(n, fan_in, oh * ow)
        calls = []
        if (kh, kw) == (1, 1) and padding == (0, 0):
            sh, sw = stride
            sub = x if (sh, sw) == (1, 1) else x[:, :, ::sh, ::sw]
            cols = self._bind_pointwise_cols(sub, workspace, key, calls).reshape(n, c, oh * ow)
            for s in range(0, n, step):
                calls.append((np.matmul, (w_mat, cols[s : s + step], acc[s : s + step])))
        else:
            chunk = (step, c, kh, kw, oh, ow)
            buffer = workspace.zeroed(
                ("i2c_nb", chunk[1:], stride, padding, (h, w), x.dtype.str), chunk, x.dtype,
                0, calls,
            )
            cols = buffer.reshape(step, c * kh * kw, oh * ow)
            slices = self._window_slices(h, w, oh, ow, kernel, stride, padding)
            for s in range(0, n, step):
                xs = x[s : s + step]
                m = xs.shape[0]
                for i, j, oi, oj, ri, rj in slices:
                    calls.append((np.copyto, (buffer[:m, :, i, j, oi, oj], xs[:, :, ri, rj])))
                calls.append((np.matmul, (w_mat, cols[:m], acc[s : s + m])))
        calls += self._scale_bias_calls(acc, scale, bias, 1, workspace)
        return acc.reshape(n, oc, oh, ow), tuple(calls)

    def bind_int_conv2d_cm(self, x_cm, w_mat, kernel, stride, padding, scale, bias, workspace, key):
        # Channel-major columns put the batch inside the P axis, so the whole
        # convolution is ONE (oc, F) x (F, N*P) GEMM — far better BLAS shape
        # than N small batched products when oc and F are modest — and the
        # (oc, N, oh, ow) output feeds the next layer with zero transposes.
        # The accumulation is float32, as in bind_int_conv2d.
        c, n, h, w = x_cm.shape
        kh, kw = kernel
        oc = w_mat.shape[0]
        oh, ow = self._output_geometry((n, c, h, w), kernel, stride, padding)
        calls = []
        if (kh, kw) == (1, 1) and padding == (0, 0):
            # Pointwise (the ResNet downsample projection): the column matrix
            # IS the (strided) input, so there is no window fill.
            sh, sw = stride
            sub = x_cm if (sh, sw) == (1, 1) else x_cm[:, :, ::sh, ::sw]
            cols2d = self._bind_pointwise_cols(sub, workspace, key, calls)
        else:
            shape = (c, kh, kw, n, oh, ow)
            cols = workspace.zeroed(
                ("i2c_cm", (c, kh, kw, oh, ow), stride, padding, (h, w), x_cm.dtype.str),
                shape, x_cm.dtype, 3, calls,
            )
            for i, j, oi, oj, ri, rj in self._window_slices(h, w, oh, ow, kernel, stride, padding):
                calls.append((np.copyto, (cols[:, i, j, :, oi, oj], x_cm[:, :, ri, rj])))
            cols2d = cols.reshape(c * kh * kw, n * oh * ow)
        shape = (oc, cols2d.shape[1])
        out_dtype = np.result_type(w_mat.dtype, cols2d.dtype)
        acc = workspace.buffer((key, "acc"), shape, out_dtype)
        calls.append((np.matmul, (w_mat, cols2d, acc)))
        calls += self._scale_bias_calls(acc, scale, bias, 0, workspace)
        return acc.reshape(oc, n, oh, ow), tuple(calls)

    def bind_int_linear(self, x, w, scale, bias, workspace, key):
        out_dtype = np.result_type(x.dtype, w.dtype)
        shape = x.shape[:-1] + (w.shape[0],)
        acc = workspace.buffer((key, "acc"), shape, out_dtype)
        calls = [(np.matmul, (x, w.T, acc))]
        calls += self._scale_bias_calls(acc, scale, bias, acc.ndim - 1, workspace)
        return acc, tuple(calls)

    # kh*kw strided elementwise passes beat a reduction over a 6-D
    # as_strided view by a wide margin: each pass is a flat SIMD op over the
    # output-sized grid for one in-window offset.  The two leading axes are
    # batch, so the same kernels serve the NCHW and channel-major layouts.
    def _bind_pool(self, x, kernel, stride, workspace, key, combine):
        (kh, kw), (sh, sw) = kernel, stride
        oh, ow = self._output_geometry(x.shape, kernel, stride, (0, 0))
        windows = [
            x[..., i : i + sh * oh : sh, j : j + sw * ow : sw]
            for i in range(kh)
            for j in range(kw)
        ]
        shape = x.shape[:2] + (oh, ow)
        out = workspace.buffer((key, "pool"), shape, x.dtype)
        into_out = functools.partial(combine, out=out)  # maximum deprecates a positional out
        calls = [(np.copyto, (out, windows[0]))]
        calls += [(into_out, (out, window)) for window in windows[1:]]
        return out, calls

    def bind_pool_max(self, x, kernel, stride, workspace, key):
        out, calls = self._bind_pool(x, kernel, stride, workspace, key, np.maximum)
        return out, tuple(calls)

    def bind_pool_avg(self, x, kernel, stride, workspace, key):
        out, calls = self._bind_pool(x, kernel, stride, workspace, key, np.add)
        scale = np.asarray(1.0 / (kernel[0] * kernel[1]), dtype=out.dtype)
        calls.append((np.multiply, (out, scale, out)))
        return out, tuple(calls)


class _CallArena:
    """The arena a per-call kernel binds on.  Zero-bordered column blocks
    are thread-local scratch, one per full shape — their zero border is an
    invariant, so reuse is free; every other buffer is fresh, because the
    result leaves the call."""

    def __init__(self, backend: FastNumpyBackend) -> None:
        self._backend = backend

    def buffer(self, key, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeroed(self, key, shape, dtype, batch_axis: int, calls: list) -> np.ndarray:
        shape = tuple(shape)
        return self._backend._scratch_buffer((key, shape), shape, np.dtype(dtype), True)
