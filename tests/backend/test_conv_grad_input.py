"""The conv input-gradient kernel and the direct column fill, bit for bit.

``conv2d_grad_input`` must return exactly the bits of the two-step
``col2im(conv2d_grad_cols(...))`` it replaces on every backend, and the fast
backend's ``im2col``/``col2im`` must equal the loop-level reference and the
padded fold they replaced.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.backend import FastNumpyBackend, NumpyBackend

BACKENDS = {"numpy": NumpyBackend, "fast": FastNumpyBackend}

# (kernel, stride, padding) over k in {1, 3, 5}, s in {1, 2}, p in {0, 1, 2}.
GEOMETRIES = list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2)))
H, W, C, OC = 9, 7, 3, 4  # non-square input


def _output_hw(k, s, p):
    return (H + 2 * p - k) // s + 1, (W + 2 * p - k) // s + 1


def _padded_fold(cols, input_shape, k, s, p):
    """col2im as a fold into a padded image, one slice-add per kernel offset."""
    n, c, h, w = input_shape
    oh, ow = _output_hw(k, s, p)
    padded = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, k, k, oh, ow)
    for i in range(k):
        for j in range(k):
            padded[:, :, i : i + s * oh : s, j : j + s * ow : s] += cols6[:, :, i, j]
    return padded[:, :, p : p + h, p : p + w]


def _operands(rng, n, k, s, p):
    oh, ow = _output_hw(k, s, p)
    w_mat = rng.standard_normal((OC, C * k * k)).astype(np.float32)
    grad_mat = rng.standard_normal((n, OC, oh * ow)).astype(np.float32)
    return w_mat, grad_mat


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


@pytest.mark.parametrize("n", [1, 3, 5, 33])
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_grad_input_matches_two_step_composition(rng, backend_name, n):
    backend = BACKENDS[backend_name]()
    for k, s, p in GEOMETRIES:
        w_mat, grad_mat = _operands(rng, n, k, s, p)
        shape = (n, C, H, W)
        args = ((k, k), (s, s), (p, p))
        want = backend.col2im(backend.conv2d_grad_cols(w_mat, grad_mat), shape, *args)
        got = backend.conv2d_grad_input(w_mat, grad_mat, shape, *args)
        assert got.shape == shape and got.dtype == want.dtype
        assert _bits(got) == _bits(want), f"k={k} s={s} p={p} n={n}"


# ResNet18-w0.125 stride-1 layers: the BLAS kernel a GEMM runs on depends
# on its shape and operand layout, so the real sizes are pinned too.
RESNET_LAYERS = [(8, 8, 32), (16, 16, 16), (32, 32, 8), (64, 64, 4)]


@pytest.mark.parametrize("c,oc,hw", RESNET_LAYERS)
def test_grad_input_matches_on_resnet_layers(rng, c, oc, hw):
    fast = FastNumpyBackend()
    w_mat = rng.standard_normal((oc, c * 9)).astype(np.float32)
    grad_mat = rng.standard_normal((6, oc, hw * hw)).astype(np.float32)
    args = ((6, c, hw, hw), (3, 3), (1, 1), (1, 1))
    want = fast.col2im(fast.conv2d_grad_cols(w_mat, grad_mat), *args)
    assert _bits(fast.conv2d_grad_input(w_mat, grad_mat, *args)) == _bits(want)


@pytest.mark.parametrize(
    "first,second",
    [
        # Same chunk-column buffer shape (4, 9, 144), different (c, hp, wp, oh).
        (((2, 4, 4, 4), (3, 3), (1, 1)), ((2, 1, 12, 12), (3, 3), (0, 0))),
        # Same extended-gradient shape (4, oc, 6, 6), different ow.
        (((2, 3, 6, 6), (1, 1), (0, 0)), ((2, 3, 6, 4), (1, 3), (0, 1))),
    ],
)
def test_grad_input_scratch_keeps_zero_extension(rng, first, second):
    """A geometry sharing a scratch shape must not see another's stale data."""
    fast = FastNumpyBackend()
    results = []
    for shape, kernel, padding in (first, second):
        n, c, h, w = shape
        oh = h + 2 * padding[0] - kernel[0] + 1
        ow = w + 2 * padding[1] - kernel[1] + 1
        w_mat = rng.standard_normal((OC, c * kernel[0] * kernel[1])).astype(np.float32)
        grad_mat = rng.standard_normal((n, OC, oh * ow)).astype(np.float32)
        args = (shape, kernel, (1, 1), padding)
        got = fast.conv2d_grad_input(w_mat, grad_mat, *args)
        want = FastNumpyBackend().col2im(np.matmul(w_mat.T, grad_mat), *args)
        results.append(_bits(got) == _bits(want))
    assert results == [True, True]


@pytest.mark.parametrize("n", [1, 5])
def test_fast_col2im_matches_padded_fold(rng, n):
    fast = FastNumpyBackend()
    for k, s, p in GEOMETRIES:
        oh, ow = _output_hw(k, s, p)
        cols = rng.standard_normal((n, C * k * k, oh * ow)).astype(np.float32)
        shape = (n, C, H, W)
        got = fast.col2im(cols, shape, (k, k), (s, s), (p, p))
        assert _bits(got) == _bits(_padded_fold(cols, shape, k, s, p)), f"k={k} s={s} p={p}"


def test_grad_input_is_thread_safe_on_a_shared_backend(rng):
    """Two threads share one backend instance: scratch buffers must not alias."""
    fast = FastNumpyBackend()
    jobs = []
    for k, s, p in [(3, 1, 1), (3, 2, 1)]:
        for _ in range(2):
            w_mat, grad_mat = _operands(rng, 9, k, s, p)
            args = ((9, C, H, W), (k, k), (s, s), (p, p))
            want = fast.col2im(fast.conv2d_grad_cols(w_mat, grad_mat), *args)
            jobs.append((w_mat, grad_mat, args, _bits(want)))
    barrier = threading.Barrier(2)
    failures = []

    def worker(mine):
        barrier.wait()
        for _ in range(60):
            for w_mat, grad_mat, args, want in mine:
                if _bits(fast.conv2d_grad_input(w_mat, grad_mat, *args)) != want:
                    failures.append(args)

    # Same geometries, different data in each thread.
    threads = [threading.Thread(target=worker, args=(jobs[t::2],)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


@pytest.mark.parametrize("reuse", [False, True])
def test_fast_im2col_matches_reference(rng, reuse):
    fast, reference = FastNumpyBackend(), NumpyBackend()
    for k, s, p in GEOMETRIES:
        x = rng.standard_normal((3, C, H, W)).astype(np.float32)
        args = ((k, k), (s, s), (p, p))
        want, want_hw = reference.im2col(x, *args)
        got, got_hw = fast.im2col(x, *args, reuse=reuse)
        assert got_hw == want_hw
        assert _bits(got) == _bits(want), f"k={k} s={s} p={p}"


def test_im2col_without_reuse_returns_owned_columns(rng):
    """Columns captured by an autograd closure must survive later calls."""
    fast = FastNumpyBackend()
    x = rng.standard_normal((2, C, H, W)).astype(np.float32)
    first, _ = fast.im2col(x, (3, 3), (1, 1), (1, 1), reuse=False)
    kept = first.copy()
    fast.im2col(rng.standard_normal(x.shape).astype(np.float32), (3, 3), (1, 1), (1, 1), reuse=False)
    fast.im2col(rng.standard_normal(x.shape).astype(np.float32), (3, 3), (1, 1), (1, 1), reuse=True)
    np.testing.assert_array_equal(first, kept)
