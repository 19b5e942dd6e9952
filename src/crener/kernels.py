"""Hot numeric kernels: dilated 2D convolution forward and backward.

Both take (..., n, n, c_in) grids, with any number of leading batch
axes, and (k, k, c_in, c_out) kernels, and keep the spatial size via
zero padding of (k // 2) * dilation on each side.

* forward: each kernel tap is one matmul over a shifted slice of a
  zero-padded copy, so the arithmetic runs in BLAS;
* backward: the upstream gradient is gathered once into per-tap columns
  (im2col of g, k*k*c_out wide), and one GEMM each gives dx and dw.
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


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """Same-size dilated convolution of (..., n, n, c_in) grids."""
    rows, cols = x.shape[-3], x.shape[-2]
    k = w.shape[0]
    pad = (k // 2) * dilation
    xp = np.zeros(x.shape[:-3] + (rows + 2 * pad, cols + 2 * pad, x.shape[-1]), dtype=x.dtype)
    xp[..., pad:pad + rows, pad:pad + cols, :] = x
    out = np.broadcast_to(b, x.shape[:-1] + b.shape).copy()
    for a in range(k):
        for c in range(k):
            patch = xp[..., a * dilation:a * dilation + rows, c * dilation:c * dilation + cols, :]
            out += patch @ w[a, c]
    return out


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, dilation: int):
    """Gradients (dx, dw, db) of `conv2d_forward` given upstream grad `g`."""
    k, _, c_in, c_out = w.shape
    rows, cols = x.shape[-3], x.shape[-2]
    # g_cols[..., p, q, a, c, :] is the gradient of the output cell that
    # read input cell (p, q) through tap (a, c).
    g_cols = np.zeros(g.shape[:-1] + (k, k, c_out), dtype=g.dtype)
    for a, c, out_r, in_r, out_c, in_c in _taps(rows, cols, k, dilation):
        g_cols[..., in_r, in_c, a, c, :] = g[..., out_r, out_c, :]
    g_cols = g_cols.reshape(-1, k * k * c_out)
    dx = (g_cols @ w.transpose(0, 1, 3, 2).reshape(k * k * c_out, c_in)).reshape(x.shape)
    dw = (x.reshape(-1, c_in).T @ g_cols).reshape(c_in, k, k, c_out).transpose(1, 2, 0, 3)
    db = g.reshape(-1, c_out).sum(axis=0)
    return dx, np.ascontiguousarray(dw), db
