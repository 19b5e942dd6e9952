"""The convolution kernels against scalar references.

Plain loops over output cells and kernel taps pin the semantics (zero
padding of (k//2)*dilation, cell-aligned output) for the forward values
and for the gradients (dx, dw, db); finite differences check that the
backward kernel differentiates the forward one.
"""

import tracemalloc

import numpy as np
import pytest

from crener import kernels


def scalar_conv(x, w, b, dilation):
    n, _, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[3]
    half = k // 2
    out = np.zeros((n, n, c_out), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            for co in range(c_out):
                acc = float(b[co])
                for a in range(k):
                    for c in range(k):
                        ii = i + (a - half) * dilation
                        jj = j + (c - half) * dilation
                        if 0 <= ii < n and 0 <= jj < n:
                            for ci in range(c_in):
                                acc += x[ii, jj, ci] * w[a, c, ci, co]
                out[i, j, co] = acc
    return out


def scalar_conv_backward(x, w, g, dilation):
    """(dx, dw, db) of `scalar_conv` for upstream gradient `g`."""
    n, _, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[3]
    half = k // 2
    dx = np.zeros(x.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(c_out, dtype=np.float64)
    for i in range(n):
        for j in range(n):
            for co in range(c_out):
                gv = float(g[i, j, co])
                db[co] += gv
                for a in range(k):
                    for c in range(k):
                        ii = i + (a - half) * dilation
                        jj = j + (c - half) * dilation
                        if 0 <= ii < n and 0 <= jj < n:
                            for ci in range(c_in):
                                dx[ii, jj, ci] += gv * w[a, c, ci, co]
                                dw[a, c, ci, co] += gv * x[ii, jj, ci]
    return dx, dw, db


@pytest.fixture
def case(rng):
    x = rng.normal(size=(6, 6, 3)).astype(np.float64)
    w = rng.normal(size=(3, 3, 3, 4)).astype(np.float64)
    b = rng.normal(size=(4,)).astype(np.float64)
    g = rng.normal(size=(6, 6, 4)).astype(np.float64)
    return x, w, b, g


@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numpy_forward_matches_scalar_reference(case, dilation, dtype):
    x, w, b, _ = (a.astype(dtype) for a in case)
    out = kernels.conv2d_forward(x, w, b, dilation)
    assert out.dtype == dtype
    tol = dict(rtol=1e-5, atol=1e-5) if dtype == np.float32 else dict(rtol=1e-12)
    np.testing.assert_allclose(out, scalar_conv(x, w, b, dilation), **tol)


@pytest.mark.parametrize("dilation", [5, 6, 10_000_000])
def test_forward_pads_only_as_far_as_a_real_cell(case, dilation):
    """At n = 6, dilation 5 leaves every tap one edge strip of real
    cells, and dilations 6 and 10^7 only the centre tap; taps that read
    padding alone are skipped, and the padding is not allocated: one
    n = 6 grid of 64 channels at dilation 10^7 allocates well under 1 MB."""
    x, w, b, _ = case
    np.testing.assert_allclose(kernels.conv2d_forward(x, w, b, dilation),
                               scalar_conv(x, w, b, dilation), rtol=1e-12)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 6, 64)).astype(np.float32)
    w = rng.normal(size=(3, 3, 64, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        kernels.conv2d_forward(x, w, np.zeros(16, np.float32), dilation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backends_agree(case, dilation, dtype):
    """The slice-and-matmul backward agrees with the scalar loops above."""
    x, w, _, g = (a.astype(dtype) for a in case)
    got = kernels.conv2d_backward(x, w, g, dilation)
    ref = scalar_conv_backward(x, w, g, dilation)
    tol = 1e-4 if dtype == np.float32 else 1e-10
    for a, bb in zip(got, ref):
        assert a.dtype == dtype
        np.testing.assert_allclose(a, bb, rtol=tol, atol=tol)


@pytest.mark.parametrize("cells", [10, 14, 49, 100, 10_000])
@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_blocked_backward_matches_scalar_reference(rng, monkeypatch, cells, dilation):
    """Whatever the block of cells the backward gathers at a time (rows of
    one grid, one grid, or several grids, with a short last block), it
    gives each grid's scalar-loop gradients, summed over the batch for dw
    and db."""
    monkeypatch.setattr(kernels, "_BACKWARD_CELLS", cells)
    x = rng.normal(size=(3, 7, 7, 3))
    w = rng.normal(size=(3, 3, 3, 4))
    g = rng.normal(size=(3, 7, 7, 4))
    dx, dw, db = kernels.conv2d_backward(x, w, g, dilation)
    refs = [scalar_conv_backward(x[i], w, g[i], dilation) for i in range(3)]
    np.testing.assert_allclose(dx, np.stack([r[0] for r in refs]), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(dw, sum(r[1] for r in refs), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(db, sum(r[2] for r in refs), rtol=1e-10, atol=1e-10)


def test_backward_matches_finite_differences(rng):
    x = rng.normal(size=(4, 4, 2))
    w = rng.normal(size=(3, 3, 2, 2))
    b = rng.normal(size=(2,))
    g = rng.normal(size=(4, 4, 2))
    dx, dw, db = kernels.conv2d_backward(x, w, g, 2)

    def loss(xv, wv, bv):
        return float((kernels.conv2d_forward(xv, wv, bv, 2) * g).sum())

    h = 1e-6
    for arr, grad in ((x, dx), (w, dw), (b, db)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss(x, w, b)
            flat[idx] = orig - h
            lm = loss(x, w, b)
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[idx]) < 1e-6 * max(1.0, abs(fd))
