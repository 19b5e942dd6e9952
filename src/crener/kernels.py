"""Hot numeric kernels: dilated 2D convolution forward and backward.

Both take (..., n, n, c_in) grids, with any number of leading batch
axes, and (k, k, c_in, c_out) kernels, and keep the spatial size as zero
padding of (k // 2) * dilation on each side would; a tap that would read
nothing but that padding is skipped.

* forward: each kernel tap is one matmul over a shifted slice of a
  zero-padded copy, so the arithmetic runs in BLAS; the copy is padded
  only as far as the furthest tap that reaches a real cell;
* backward: the upstream gradient is gathered into per-tap columns
  (im2col of g, k*k*c_out wide) a block of cells at a time, and one GEMM
  each gives the block's part of dx and dw.
"""

from __future__ import annotations

import numpy as np


def _window(size: int, shift: int) -> tuple[slice, slice] | None:
    """(destination, source) slices with source = destination + shift,
    both inside [0, size); None when they do not overlap."""
    if abs(shift) >= size:
        return None
    return slice(max(0, -shift), size - max(0, shift)), slice(max(0, shift), size + min(0, shift))


def _taps(rows: int, cols: int, k: int, dilation: int):
    """(a, c, out rows, in rows, out cols, in cols) per kernel tap, where
    output cell (i, j) reads input cell (i + (a - k//2)*dilation,
    j + (c - k//2)*dilation); taps that fall wholly in the padding are
    left out."""
    half = k // 2
    for a in range(k):
        row = _window(rows, (a - half) * dilation)
        if row is None:
            continue
        for c in range(k):
            col = _window(cols, (c - half) * dilation)
            if col is not None:
                yield a, c, row[0], row[1], col[0], col[1]


# Input cells per block of `conv2d_backward`'s im2col. A block of 1,024
# cells is 576 KB in float32 for the default 3 x 3 kernels of 16 channels,
# against 2.4 MB for the whole im2col of one n = 64 grid. Measured over the
# three dilations (float32, 64 input channels, one BLAS thread, 2-core
# Xeon): 5.3 ms against 6.0 ms whole at (61, 61), 78 against 114 ms at
# (16, 56, 56) and 1.7 against 1.6 ms at (8, 12, 12); blocks of 256 or 512
# cells were slower on all three.
_BACKWARD_CELLS = 1024


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """Same-size dilated convolution of (..., n, n, c_in) grids.

    Taps that read nothing but padding add nothing and are skipped, and
    the padded copy reaches only as far as the furthest tap left, so its
    size does not grow with the dilation. Every tap kept reads a whole
    (rows, cols) window of the copy, so its product has the shape, and the
    sums their order, that full padding gives.
    """
    rows, cols = x.shape[-3], x.shape[-2]
    k = w.shape[0]
    half = k // 2
    pad_r = min(half, (rows - 1) // dilation) * dilation
    pad_c = min(half, (cols - 1) // dilation) * dilation
    xp = np.zeros(x.shape[:-3] + (rows + 2 * pad_r, cols + 2 * pad_c, x.shape[-1]), dtype=x.dtype)
    xp[..., pad_r:pad_r + rows, pad_c:pad_c + cols, :] = x
    out = np.empty(x.shape[:-1] + b.shape, dtype=b.dtype)
    out[...] = b
    for a in range(k):
        top = (a - half) * dilation
        if abs(top) > pad_r:  # a tap row wholly in the padding
            continue
        for c in range(k):
            left = (c - half) * dilation
            if abs(left) <= pad_c:
                patch = xp[..., pad_r + top:pad_r + top + rows, pad_c + left:pad_c + left + cols, :]
                out += patch @ w[a, c]
    return out


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, dilation: int):
    """Gradients (dx, dw, db) of `conv2d_forward` given upstream grad `g`.

    Works over about `_BACKWARD_CELLS` input cells at a time: a block of
    whole grids of the batch, or of rows of one grid when a grid is larger.
    It gathers the block's part of g's im2col; then one GEMM gives the
    block's rows of dx and another adds its share of dw. So its scratch is
    one block, whatever the grid size or batch.
    """
    k, _, c_in, c_out = w.shape
    rows, cols = x.shape[-3], x.shape[-2]
    width = k * k * c_out
    w_cols = w.transpose(0, 1, 3, 2).reshape(width, c_in)
    xs = x.reshape((-1, rows, cols, c_in))
    gs = g.reshape((-1, rows, cols, c_out))
    dx = np.empty(xs.shape, dtype=x.dtype)
    dw = np.zeros((c_in, width), dtype=x.dtype)
    taps = list(_taps(rows, cols, k, dilation))
    grids = max(1, _BACKWARD_CELLS // (rows * cols))
    step = rows if grids > 1 else max(1, _BACKWARD_CELLS // cols)
    # g_cols[s, p, q, a, c, :] is the gradient of the output cell that read
    # input cell (lo + p, q) of grid first + s through tap (a, c).
    g_cols = np.empty((min(grids, len(xs)), min(step, rows), cols, k, k, c_out), dtype=g.dtype)
    for first in range(0, len(xs), grids):
        grid = slice(first, min(first + grids, len(xs)))
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            # Whole grids or rows of one grid: contiguous in dx, so the
            # reshape that `matmul` writes into is a view.
            block = g_cols[:grid.stop - first, :hi - lo]
            block.fill(0)
            for a, c, out_r, in_r, out_c, in_c in taps:
                top, bottom = max(in_r.start, lo), min(in_r.stop, hi)
                if top < bottom:
                    shift = out_r.start - in_r.start
                    block[:, top - lo:bottom - lo, in_c, a, c, :] = (
                        gs[grid, top + shift:bottom + shift, out_c, :])
            block = block.reshape(-1, width)
            np.matmul(block, w_cols, out=dx[grid, lo:hi].reshape(-1, c_in))
            dw += xs[grid, lo:hi].reshape(-1, c_in).T @ block
    dw = dw.reshape(c_in, k, k, c_out).transpose(1, 2, 0, 3)
    db = g.reshape(-1, c_out).sum(axis=0)
    return dx.reshape(x.shape), np.ascontiguousarray(dw), db
