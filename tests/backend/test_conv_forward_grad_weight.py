"""The fused conv forward and weight-gradient kernels, bit for bit.

``conv2d_forward`` and ``conv2d_grad_weight_from_input`` must return exactly
the bits of the compositions they replace in training,
``conv2d_cols(w, im2col(x))`` and ``conv2d_grad_weight(grad, im2col(x))``, on
every backend.  The fast backend runs them on its chunked schedule, so the
grid is also run with the chunk thresholds lowered to zero, which chunks
every geometry (and leaves a short tail chunk at n = 33).
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.backend import FastNumpyBackend, NumpyBackend
from repro.serve.workspace import PlanWorkspace


class ChunkEverywhere(FastNumpyBackend):
    _CONV_CHUNK_MIN_FAN_IN = 0
    _CONV_CHUNK_MIN_POSITIONS = 0


BACKENDS = {"numpy": NumpyBackend, "fast": FastNumpyBackend, "fast-chunked": ChunkEverywhere}

# (kernel, stride, padding) over k in {1, 3, 5}, s in {1, 2}, p in {0, 1, 2};
# k = 1, p = 0 covers the pointwise (strided) convs.
GEOMETRIES = list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2)))
H, W, C, OC = 9, 7, 3, 4  # non-square input


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def _operands(rng, n, c, h, w, oc, k, s, p):
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    w_mat = rng.standard_normal((oc, c * k * k)).astype(np.float32)
    grad_mat = rng.standard_normal((n, oc, oh * ow)).astype(np.float32)
    return x, w_mat, grad_mat


def _composed(backend, x, w_mat, grad_mat, args):
    cols, _ = backend.im2col(x, *args)
    return backend.conv2d_cols(w_mat, cols), backend.conv2d_grad_weight(grad_mat, cols)


def _fused(backend, x, w_mat, grad_mat, args):
    return (
        backend.conv2d_forward(x, w_mat, *args),
        backend.conv2d_grad_weight_from_input(x, grad_mat, *args),
    )


@pytest.mark.parametrize("n", [1, 3, 5, 33])
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_fused_kernels_match_compositions(rng, backend_name, n):
    backend = BACKENDS[backend_name]()
    for k, s, p in GEOMETRIES:
        x, w_mat, grad_mat = _operands(rng, n, C, H, W, OC, k, s, p)
        args = ((k, k), (s, s), (p, p))
        want_out, want_gw = _composed(backend, x, w_mat, grad_mat, args)
        got_out, got_gw = _fused(backend, x, w_mat, grad_mat, args)
        assert got_out.shape == want_out.shape and got_out.dtype == want_out.dtype
        assert got_gw.shape == want_gw.shape and got_gw.dtype == want_gw.dtype
        assert _bits(got_out) == _bits(want_out), f"forward k={k} s={s} p={p} n={n}"
        assert _bits(got_gw) == _bits(want_gw), f"grad weight k={k} s={s} p={p} n={n}"


# ResNet18-w0.125 layers at batch 32 (c, oc, hw, stride): the stem, layer1
# and layer2 entries that take the default chunked schedule, the unchunked
# small-spatial layers, and a strided pointwise shortcut.
RESNET_LAYERS = [
    (3, 8, 32, 1, 3), (8, 8, 32, 1, 3), (8, 16, 32, 2, 3), (16, 16, 16, 1, 3),
    (32, 32, 8, 1, 3), (64, 64, 4, 1, 3), (16, 32, 16, 2, 1),
]


@pytest.mark.parametrize("c,oc,hw,s,k", RESNET_LAYERS)
def test_fused_kernels_match_on_resnet_layers(rng, c, oc, hw, s, k):
    fast = FastNumpyBackend()
    p = k // 2
    x, w_mat, grad_mat = _operands(rng, 32, c, hw, hw, oc, k, s, p)
    args = ((k, k), (s, s), (p, p))
    want = _composed(fast, x, w_mat, grad_mat, args)
    got = _fused(fast, x, w_mat, grad_mat, args)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


def test_grad_weight_keeps_the_sum_order_of_negative_zeros():
    """The chunked reduction must start each chunk from the running sum, not
    from a fresh zero: an all -0.0 product sums to +0.0 in ``np.sum``."""
    fast = ChunkEverywhere()
    x = np.full((9, 2, 5, 5), -0.0, dtype=np.float32)
    grad_mat = np.ones((9, 3, 25), dtype=np.float32)
    args = ((3, 3), (1, 1), (1, 1))
    want = fast.conv2d_grad_weight(grad_mat, fast.im2col(x, *args)[0])
    assert _bits(fast.conv2d_grad_weight_from_input(x, grad_mat, *args)) == _bits(want)


def test_fused_kernels_are_thread_safe_on_a_shared_backend(rng):
    """Two threads share one backend instance: chunk buffers must not alias."""
    fast = ChunkEverywhere()
    jobs = []
    for k, s, p in [(3, 1, 1), (3, 2, 1), (1, 2, 0)]:
        for _ in range(2):
            x, w_mat, grad_mat = _operands(rng, 9, C, H, W, OC, k, s, p)
            args = ((k, k), (s, s), (p, p))
            want = _composed(FastNumpyBackend(), x, w_mat, grad_mat, args)
            jobs.append((x, w_mat, grad_mat, args, [_bits(a) for a in want]))
    barrier = threading.Barrier(2)
    failures = []

    def worker(mine):
        barrier.wait()
        for _ in range(40):
            for x, w_mat, grad_mat, args, want in mine:
                if [_bits(a) for a in _fused(fast, x, w_mat, grad_mat, args)] != want:
                    failures.append(args)

    # Same geometries, different data in each thread.
    threads = [threading.Thread(target=worker, args=(jobs[t::2],)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


def _replay(calls):
    for fn, args in calls:
        fn(*args)


@pytest.mark.parametrize("n", [4, 9, 33])
def test_plan_chunked_int_conv_matches_unchunked(rng, n):
    """The plan's bound chunk schedule on arena buffers, tail chunk included,
    against one unchunked GEMM (exact: small integer operands, scale 0.5)."""
    fast = FastNumpyBackend()
    x = rng.integers(0, 8, size=(n, 8, 20, 17)).astype(np.float32)
    w_mat = rng.integers(-7, 8, size=(16, 8 * 9)).astype(np.float32)
    args = ((3, 3), (1, 1), (1, 1))
    chunk = fast._conv_chunk_samples(n, w_mat.shape[1], 20 * 17)
    assert (chunk < n) == (n > 4)  # 9 and 33 run chunked, with a tail chunk

    def unchunked():
        cols = fast.im2col(x, *args)[0].reshape(n, w_mat.shape[1], -1)
        return (np.matmul(w_mat, cols) * np.float32(0.5)).reshape(n, 16, 20, 17)

    workspace = PlanWorkspace()
    for _ in range(2):  # the first bind lays the slabs out, the second views them
        workspace.begin_bind(n)
        out, calls = fast.bind_int_conv2d(x, w_mat, *args, 0.5, None, workspace, "conv")
        if workspace.end_bind():
            break
        workspace.allocate()
    _replay(calls)
    assert _bits(out) == _bits(unchunked())
    allocations = workspace.total_allocations
    # A replay reads the bound input afresh: new values, same calls.
    x[...] = rng.integers(0, 8, size=x.shape)
    _replay(calls)
    assert _bits(out) == _bits(unchunked())
    assert workspace.total_allocations == allocations
