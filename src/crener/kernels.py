"""Hot numeric kernels: dilated 2D convolution forward and backward.

Both take (n, n, c_in) grids and (k, k, c_in, c_out) kernels and keep
the spatial size via zero padding of (k // 2) * dilation on each side.
Each kernel tap is one matmul over a shifted slice of a zero-padded
copy, so the arithmetic runs in BLAS.
"""

from __future__ import annotations

import numpy as np


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """Same-size dilated convolution of an (n, n, c_in) grid."""
    n = x.shape[0]
    k = w.shape[0]
    pad = (k // 2) * dilation
    xp = np.zeros((n + 2 * pad, n + 2 * pad, x.shape[2]), dtype=x.dtype)
    xp[pad:pad + n, pad:pad + n] = x
    out = np.broadcast_to(b, (n, n, b.shape[0])).copy()
    for a in range(k):
        for c in range(k):
            patch = xp[a * dilation:a * dilation + n, c * dilation:c * dilation + n]
            out += patch @ w[a, c]
    return out


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, dilation: int):
    """Gradients (dx, dw, db) of `conv2d_forward` given upstream grad `g`."""
    n = x.shape[0]
    k = w.shape[0]
    pad = (k // 2) * dilation
    xp = np.zeros((n + 2 * pad, n + 2 * pad, x.shape[2]), dtype=x.dtype)
    xp[pad:pad + n, pad:pad + n] = x
    gxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for a in range(k):
        for c in range(k):
            patch = xp[a * dilation:a * dilation + n, c * dilation:c * dilation + n]
            dw[a, c] = np.tensordot(patch, g, axes=([0, 1], [0, 1]))
            gxp[a * dilation:a * dilation + n, c * dilation:c * dilation + n] += g @ w[a, c].T
    dx = gxp[pad:pad + n, pad:pad + n]
    db = g.sum(axis=(0, 1))
    return dx, dw, db
