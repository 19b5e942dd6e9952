"""Minimal reverse-mode automatic differentiation over numpy arrays.

Implements exactly the operations the network needs. A Tensor wraps an
ndarray; every operation records a backward closure, and calling
``backward()`` on a scalar result walks the graph once in reverse
topological order, accumulating gradients into ``.grad``. The same code
runs in float32 (training default) and float64 (gradient-check mode).

The tape links nodes, not tensors (as PyTorch links ``grad_fn`` nodes).
A tensor that takes a gradient has a `_Node`: its backward closure (None
for a leaf), its parents' nodes, its gradient, and its shape and dtype.
A node holds no array of its own, and each closure captures at record
time the arrays its backward reads, never a parent tensor. So an interior
tensor's array is freed as soon as the forward drops it, unless a
consumer's closure reads it; round 0's tag-feature grid, which
`masked_max`'s backward does not read, and the index term that
`linear` adds as a bias are freed before the backward starts.

Operations accept any number of leading (batch) axes. Each op keeps only
what its backward reads. The grid-sized stages are single fused ops with
one output array each: `linear` (affine map, optionally followed by GELU,
which saves GELU's derivative rather than its input), `layer_norm` (CLN's
included), `masked_max` and `dilated_conv_gelu`; so are multi-head
`attention`, its relative-position score bias (`relative_scores`), every
other layer norm, and the per-cell `threshold_loss` that training sums.
GELU runs in place over cache-sized blocks of its array; its normal CDF is
a 7-term tanh form in float32 and a 24-term erfc form in float64
(`_normal_cdf_into`).
``backward()`` releases the tape as it walks it: once a node's closure
has run, the node drops its gradient, closure and parents, so the arrays
the closure saved are freed before the walk ends. Leaves keep ``.grad``,
which a tensor reads from and writes to its node.

Gradient ownership: a closure hands each parent its gradient through the
parent node's ``accumulate(g, owned)``. On the node's first write an owned
`g` becomes its ``.grad`` as it is; any other `g` is copied. Since
``backward()`` drops a node's ``.grad`` once the node's closure has run,
and each ``.grad`` is written only by accumulation, every interior
``.grad`` is exclusive to its node. So a closure may pass ``owned=True``
for an array it has just allocated, or for its own incoming `g` or a view
of it, provided each region of that memory goes to one parent only and
the closure reads it no more afterwards. A broadcast view, or a `g` handed
to two parents (as `add` does), is never owned by more than one of them.
`getitem` alone writes its parent node's ``.grad`` directly, adding `g`
into the region its index names, which that exclusivity makes safe.

Grad mode: inside ``with no_grad():`` operations record no tape. Each
result is a plain tensor with no node and ``requires_grad = False``, so
every intermediate array is freed as soon as nothing else refers to it,
and ``backward()`` raises. The arithmetic is the same in both modes.
Prediction runs its forward this way; training never does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels

_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# `_normal_cdf_into`'s float64 polynomial P, highest power of s first. P is the
# Chebyshev series of f(s) = z^2 + ln(erfc(z) / t) on s in (-1, 1], where
# t = (1 + s) / 2 and z = 2 / t - 2 (Numerical Recipes, 3rd ed., 2007,
# section 6.2, `erfccheb`), cut to its first 24 terms, rewritten in powers
# of s, with -ln 2 added to the constant term so that t * exp(-z^2 + P) is
# erfc(z) / 2. The series was computed once in 60-digit arithmetic with
# mpmath: c_k = (2 / N) * sum_j f(cos a_j) * cos(k a_j), a_j = pi (j + 1/2)
# / N, N = 96, c_0 halved. The first term dropped (|c_24| ~ 1.5e-15)
# bounds P's error, which is erfc's relative error.
_CDF_POLY_F64 = (
    2.980513364515168e-08, 7.992047577730608e-10, -2.895626567435524e-07,
    1.5975482569412025e-07, 1.283394915356199e-06, -1.7128780471140371e-06,
    -2.963484230959699e-06, 8.952692300720023e-06, 1.3989370477611051e-07,
    -3.0421097531594203e-05, 3.174693542327236e-05, 7.149530982602198e-05,
    -0.00017430412986925938, -9.376035760297014e-05, 0.0006736791352568864,
    -0.00014624252395767715, -0.002345812552995894, 0.0017589331171176884,
    0.008824938561312326, -0.00987268934319109, -0.04689561023132892,
    0.04734330684142489, 0.6726432239776583, -1.364941264616636,
)

# `_normal_cdf_into`'s float32 polynomial R, highest power of s = x^2 first, so
# that Phi(x) = (1 + tanh(x R(s))) / 2. R is a degree-6 fit of
# atanh(erf(x / sqrt 2)) / x on x in [0, 5.5], weighted by Phi's
# sensitivity to it, x sech^2(x R) / 2, and made near-minimax by Lawson's
# iteratively reweighted least squares (300 iterations over 20,001 points,
# float64 references from scipy's `erf` and `erfc`). Its weighted error,
# and so Phi's error before rounding, is below 3e-8. s is clipped at
# 5.5^2 = 30.25, where tanh has reached +-1 in float32 and past which R
# has not been fitted; beyond it x R(30.25) still grows with |x|.
_CDF_POLY_F32 = (
    1.7561712576015863e-09, -1.3226335685637508e-07, 3.964744618454588e-06,
    -5.5306194716448906e-05, -3.259497338255784e-05, 0.03633308457213666,
    0.7978849414607408,
)


def _constant(value, dtype) -> np.ndarray:
    """A read-only 0-d array of `dtype`, which a ufunc takes in less time
    than a Python float or a numpy scalar."""
    a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


_CDF_F64 = (_constant(2.0 * np.sqrt(2.0), np.float64), _constant(1.0, np.float64),
            _constant(2.0, np.float64), _constant(0.5, np.float64),
            tuple(_constant(c, np.float64) for c in _CDF_POLY_F64))
_CDF_F32 = (_constant(5.5 ** 2, np.float32), _constant(1.0, np.float32),
            _constant(0.5, np.float32), tuple(_constant(c, np.float32) for c in _CDF_POLY_F32))

# Off inside `no_grad()`; read by `Tensor._make` and `Tensor.backward`.
_grad_enabled = True


class no_grad:
    """Context manager that switches tape recording off and restores the
    previous mode on exit, also when an exception escapes."""

    def __enter__(self) -> None:
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc_info) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def _records(parents) -> bool:
    """Whether an op over `parents` records a tape node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A tensor's place on the tape: its backward closure (None for a
    leaf), the nodes of its parents that take a gradient, its accumulated
    gradient, and the shape and dtype of the tensor it was made for. It
    holds no data of its own, so the tensor's array lives only as long as
    the forward, or a closure that reads it, refers to it."""

    __slots__ = ("backward", "parents", "grad", "shape", "dtype")

    def __init__(self, backward, parents: tuple, shape: tuple, dtype):
        self.backward = backward
        self.parents = parents
        self.grad = None
        self.shape = shape
        self.dtype = dtype

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add `g` into ``.grad``. `owned` promises that nothing reads or
        writes `g`'s memory afterwards (the module docstring's ownership
        rule), so a first write of the right shape and dtype keeps `g`
        itself; otherwise it keeps a copy, since `g` may be a view that
        another input or a later read shares."""
        if self.grad is not None:
            self.grad += g
        elif owned and g.shape == self.shape and g.dtype == self.dtype:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.dtype)


class Tensor:
    """An ndarray and, when it takes a gradient, its tape node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self._node = _Node(None, (), self.data.shape, self.data.dtype) if requires_grad else None

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _records(parents):
            out._node = _Node(backward, tuple(p._node for p in parents if p._node is not None),
                              out.data.shape, out.data.dtype)
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient; a leaf keeps it after ``backward()``."""
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._node.grad = value

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Backpropagate from a scalar; fills ``.grad`` on every reachable leaf.

        Every interior node is released once its closure has run, so only
        the part of the tape not yet walked stays alive.
        """
        if not _grad_enabled:
            raise RuntimeError("backward() called inside no_grad(): no tape was recorded")
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if self._node is None:
            return
        order = _topological_order(self._node)
        self._node.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                node.backward(node.grad)
            node.grad = None
            node.backward = None
            node.parents = ()

    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __matmul__(self, other):
        return matmul(self, self._coerce(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    # Not iterable: `a, b = t` would otherwise split any tensor whose first
    # axis is 2 into two `getitem` nodes, through `__getitem__`.
    __iter__ = None

    def reshape(self, shape: tuple):
        return reshape(self, shape)

    def sum(self):
        return tensor_sum(self)


def _topological_order(root: _Node) -> list:
    order: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# ----------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    na, nb = a._node, b._node

    def backward(g):  # g goes to both inputs, so only b, the last, may own it
        if na is not None:
            ga = _unbroadcast(g, na.shape)
            na.accumulate(ga, owned=ga is not g)
        if nb is not None:
            nb.accumulate(_unbroadcast(g, nb.shape), owned=True)

    return Tensor._make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    na, nb, a_data, b_data = a._node, b._node, a.data, b.data

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g * b_data, na.shape), owned=True)
        if nb is not None:
            nb.accumulate(_unbroadcast(g * a_data, nb.shape), owned=True)

    return Tensor._make(a_data * b_data, (a, b), backward)


def _normal_cdf_into(x: np.ndarray, t: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a float32 or float64 array `x`, in its dtype,
    written into `p` and returned, with `t` (read in float64 only) and `s`
    as scratch; all three have x's shape and dtype.

    float32: Phi(x) = (1 + tanh(x R(min(x^2, 30.25)))) / 2, with R the
    7-term polynomial of `_CDF_POLY_F32`; 18 ufunc passes. Its largest
    absolute error is 9.6e-8 on [-10, 10]. In the negative tail it loses
    relative accuracy: from x = -6.06 to -5.5, where Phi is below 2e-8, it
    reads at most 3e-8, and below that 0.

    float64: Phi(x) = 1/2 + sign(x) * (1/2 - erfc(|x| / sqrt 2) / 2), with
    erfc(z) = t * exp(-z^2 + P(s)), t = 2 / (2 + z), s = 2t - 1 and P the
    24-term polynomial of `_CDF_POLY_F64`; 59 passes. Its largest absolute
    error is below 1e-15.
    """
    if x.dtype == np.float32:
        clip, one, half, poly = _CDF_F32
        np.multiply(x, x, out=s)
        np.minimum(s, clip, out=s)
        np.multiply(s, poly[0], out=p)
        p += poly[1]
        for c in poly[2:]:
            p *= s
            p += c
        p *= x
        np.tanh(p, out=p)
        p += one
        p *= half
        return p
    two_sqrt2, one, two, half, poly = _CDF_F64
    np.abs(x, out=t)
    t += two_sqrt2
    np.divide(two_sqrt2, t, out=t)
    np.multiply(t, two, out=s)
    s -= one
    np.multiply(s, poly[0], out=p)
    p += poly[1]
    for c in poly[2:]:
        p *= s
        p += c
    np.multiply(x, x, out=s)
    s *= half  # z^2
    p -= s
    np.exp(p, out=p)
    p *= t  # erfc(z) / 2
    np.subtract(half, p, out=p)
    np.copysign(p, x, out=p)
    p += half
    return p


# Elements per GELU block. A block and its three scratch arrays (4 x 128 KB
# in float32) should stay in one core's 2 MB L2 cache while `_normal_cdf_into`
# makes its passes over them. Chosen by long predicts with the erfc form in
# both dtypes (default config, n in [48, 64], 2-core Xeon, four processes
# per size, interleaved): p50 read 26.9-29.6 ms in blocks of 32,768
# elements, 28.9-30.9 in 16,384, 28.0-31.9 in 65,536, 30.0-33.3 in 131,072
# and 33.0-39.3 over the whole grid, with 463, 463, 671, 1,273 and 2,350
# minor page faults per predict. In float64, one GELU over a (56, 56, 64)
# grid took 5.0 ms and no faults in 32K blocks, against 6.4-6.8 ms and 384
# faults in 64K blocks and 10.1 ms and 1,144 faults whole. With the float32
# tanh form, one GELU over that grid took 0.66-0.89 ms in 32K blocks,
# 0.64-0.90 in 64K and 0.77-1.08 in 16K: no size was clearly better, so the
# block stayed.
_GELU_BLOCK = 32_768


def _gelu_in_place(z: np.ndarray, derivative: bool) -> np.ndarray | None:
    """Overwrite the C-contiguous `z` with the exact (erf-based) GELU
    z * Phi(z), Phi as `_normal_cdf_into` computes it in z's dtype. Returns
    GELU's derivative Phi(z) + z * phi(z) when `derivative`, else None.

    Works over `_GELU_BLOCK` elements at a time, so its scratch is three
    block-sized arrays whatever the size of `z`; the arithmetic is
    elementwise, so the result does not depend on the block size. In
    float32 a block takes 19 ufunc passes, and 6 more for the derivative.
    """
    flat = np.reshape(z, -1, copy=False)
    d = np.empty_like(flat) if derivative else None
    size = min(flat.size, _GELU_BLOCK)
    t, s, cdf = (np.empty(size, dtype=z.dtype) for _ in range(3))
    for lo in range(0, flat.size, _GELU_BLOCK):
        zb = flat[lo:lo + _GELU_BLOCK]
        n = zb.size
        cdf_b = _normal_cdf_into(zb, t[:n], s[:n], cdf[:n])
        if d is not None:
            db = d[lo:lo + n]
            np.multiply(zb, -0.5, out=db)
            db *= zb
            np.exp(db, out=db)
            db *= _INV_SQRT2PI  # phi(z)
            db *= zb
            db += cdf_b
        zb *= cdf_b
    return None if d is None else d.reshape(z.shape)


# ----------------------------------------------------------------------
# shape manipulation


def _matmul_backward(na: _Node | None, a: np.ndarray, nb: _Node | None, b: np.ndarray,
                     g: np.ndarray) -> None:
    """Hand the gradients of a @ b, for the arrays `a` and `b`, to their
    nodes `na` and `nb` (None for an input that takes none)."""
    if na is not None:
        ga = g @ np.swapaxes(b, -1, -2)
        na.accumulate(_unbroadcast(ga, na.shape), owned=True)
    if nb is not None:
        if b.ndim == 2:
            gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, nb.shape)
        nb.accumulate(gb, owned=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; for `(..., c) @ (c, d)` the weight gradient is one
    2-D GEMM over every leading axis."""
    na, nb, a_data, b_data = a._node, b._node, a.data, b.data

    def backward(g):
        _matmul_backward(na, a_data, nb, b_data, g)

    return Tensor._make(a_data @ b_data, (a, b), backward)


def linear(x: Tensor, w: Tensor | tuple, b: Tensor | tuple, gelu: bool = False) -> Tensor:
    """x @ w + b over any leading axes of x, then exact GELU when `gelu`.
    `b` is a bias row or any tensor that broadcasts to the result, such as
    `grid.pair_projection`'s grid-shaped index term.

    One output array: the bias is added, and GELU applied, in place on the
    GEMM's result. The backward reads GELU's derivative, which the forward
    computes instead of keeping GELU's input, and only when it records.

    `w` and `b` may instead be equal-length tuples of k weights and biases,
    one per view of a stacked stream. Then x's leading axis is k (one input
    per weight) or 1 (one input that every weight reads), the result's is
    k, and out[i] = x[i] @ w[i] + b[i]. The op stacks the weights' data
    itself and hands each weight and bias its own slice of the gradient, so
    k views cost one tape node.
    """
    views = isinstance(w, tuple)
    parents = (x, *w, *b) if views else (x, w, b)
    nx = x._node
    if views:
        nw, nb = [t._node for t in w], [t._node for t in b]
        w_data = np.array([t.data for t in w])  # (k, d_in, d_out)
        xs = x.data.reshape(x.shape[0], -1, x.shape[-1])  # (k or 1, cells, d_in)
        out_data = np.matmul(xs, w_data)
        out_data += np.array([t.data for t in b])[:, None, :]
        out_data = out_data.reshape((len(w),) + x.shape[1:-1] + (w_data.shape[-1],))
    else:
        nw, nb = w._node, b._node
        xs, w_data = x.data, w.data
        out_data = xs @ w_data
        out_data += b.data
    d = _gelu_in_place(out_data, _records(parents)) if gelu else None

    def backward(g):
        nonlocal d
        if d is not None:
            g = _times_derivative(g, d)
            d = None  # read once: freed before the GEMMs allocate
        if not views:
            _matmul_backward(nx, xs, nw, w_data, g)
            if nb is not None:  # last, so a bias shaped like g may keep it
                nb.accumulate(_unbroadcast(g, nb.shape), owned=True)
            return
        gs = g.reshape(len(w_data), -1, g.shape[-1])
        for t, gt in zip(nb, gs.sum(axis=1)):
            if t is not None:
                t.accumulate(gt, owned=True)
        if nx is not None:
            gx = np.matmul(gs, np.swapaxes(w_data, -1, -2))
            if len(gx) != nx.shape[0]:  # one input read by every weight
                gx = gx.sum(axis=0, keepdims=True)
            nx.accumulate(gx.reshape(nx.shape), owned=True)
        for t, gt in zip(nw, np.matmul(np.swapaxes(xs, -1, -2), gs)):
            if t is not None:
                t.accumulate(gt, owned=True)

    return Tensor._make(out_data, parents, backward)


def _times_derivative(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """g * d, in place in the incoming gradient `g` when it is C-contiguous.
    Otherwise a new array: multiplying a strided `g` in place would keep
    its layout, and a later sum over it (a bias gradient) would then add in
    another order than over the C-ordered product."""
    if g.flags.c_contiguous:
        g *= d
        return g
    return g * d


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes; with negative axes, leading batch axes pass through."""
    na = a._node

    def backward(g):
        na.accumulate(np.swapaxes(g, axis1, axis2), owned=True)

    return Tensor._make(np.swapaxes(a.data, axis1, axis2), (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    na = a._node

    def backward(g):
        na.accumulate(g.reshape(na.shape), owned=True)

    return Tensor._make(a.data.reshape(shape), (a,), backward)


def getitem(a: Tensor, idx) -> Tensor:
    """a[idx] for a basic index (ints, slices, None, Ellipsis), which names
    each element of `a` at most once; an advanced index raises TypeError."""
    if not all(isinstance(i, (int, slice, type(None), type(Ellipsis)))
               for i in (idx if isinstance(idx, tuple) else (idx,))):
        raise TypeError(f"getitem takes a basic index, got {idx!r}")
    na = a._node

    def backward(g):
        if na.grad is None:
            na.grad = np.zeros(na.shape, dtype=na.dtype)
            na.grad[idx] = g
        else:
            na.grad[idx] += g

    return Tensor._make(a.data[idx], (a,), backward)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """The tensors joined along their last axis."""
    tensors = tuple(tensors)
    parts = [(t._node, t.shape[-1]) for t in tensors]

    def backward(g):
        hi = 0
        for node, width in parts:
            lo, hi = hi, hi + width
            if node is not None:
                node.accumulate(g[..., lo:hi], owned=True)

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=-1), tensors, backward)


# ----------------------------------------------------------------------
# reductions


def tensor_sum(a: Tensor) -> Tensor:
    """The sum of all of `a`'s entries."""
    na = a._node

    def backward(g):
        na.accumulate(np.broadcast_to(g, na.shape))

    return Tensor._make(a.data.sum(), (a,), backward)


def masked_max(x: Tensor, mask: np.ndarray, fill: float) -> Tensor:
    """Row and column maxima of an (..., n, n, c) grid over the cells where
    the (..., n, n) boolean `mask` holds, stacked as one (2, ..., n, c)
    tensor: [0, ..., i, :] is the max over j of x[..., i, j, :] and
    [1, ..., j, :] the max over i. Masked cells read as `fill`, so a fully
    masked row pools to `fill`. The filled grid is built once for both
    axes; the backward reads only each axis's boolean arg-max pattern and
    tie counts. Ties split the gradient evenly, and masked cells get none.
    With no cell masked, x is read as it is.
    """
    m = mask[..., None]
    filled = x.data if mask.all() else np.where(m, x.data, fill)
    axes = (-2, -3)
    out_data = np.empty((2,) + filled.shape[:-3] + filled.shape[-2:], dtype=filled.dtype)
    for axis, best in zip(axes, out_data):
        filled.max(axis=axis, out=best)
    if not _records((x,)):
        return Tensor._make(out_data, (x,), None)
    patterns = []
    for axis, best in zip(axes, out_data):
        hit = filled == np.expand_dims(best, axis)
        counts = hit.sum(axis=axis, keepdims=True)
        hit &= m
        patterns.append((hit, counts))
    nx = x._node

    def backward(g):
        gx = None
        for axis, (hit, counts), g_axis in zip(axes, patterns, g):
            share = (np.expand_dims(g_axis, axis) / counts).astype(nx.dtype)
            part = np.where(hit, share, 0)
            gx = part if gx is None else np.add(gx, part, out=gx)
        nx.accumulate(gx, owned=True)

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# fused network primitives


# Tables of at most this many rows scatter their gradient by one one-hot
# GEMM, larger ones by `np.add.at`. Measured at n = 61 (float32, one BLAS
# thread, 2-core Xeon): a grid table's 3,721 ids scatter into 3-20 rows in
# 0.09-0.24 ms by GEMM against 0.64-1.21 ms by `np.add.at`; 61 ids into the
# 256-row position table take 0.04 ms by GEMM and 0.03 ms by `np.add.at`.
# The grid tables (distance, region and attention buckets) have at most 20
# rows, the character and position tables usually more than 64.
_ONE_HOT_ROWS = 64


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into a (vocab, width) table; ids may have any shape.

    The backward sums each row's gradients: for a small table as
    onehot(ids).T @ g, one GEMM, and for a larger one with `np.add.at`.
    """
    ids = np.asarray(ids)
    nt = table._node

    def backward(g):
        rows = nt.shape[0]
        if rows <= _ONE_HOT_ROWS:
            onehot = (ids.reshape(-1, 1) == np.arange(rows)).astype(g.dtype)
            gz = onehot.T @ g.reshape(-1, g.shape[-1])
        else:
            gz = np.zeros(nt.shape, dtype=nt.dtype)
            np.add.at(gz, ids, g)
        nt.accumulate(gz, owned=True)

    return Tensor._make(table.data[ids], (table,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray, heads: int,
              scale: float, score_bias: Tensor | None = None) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention of (..., n, d) queries over (..., m, d) keys
    and values, all projected and with the same leading axes.

    Head h owns the h-th d / heads columns and scores query i against key
    j as scale * (q_i . k_j + score_bias[h, i, j]); `score_bias`, when
    given, broadcasts to (..., heads, n, m). Keys outside the (..., m)
    boolean `key_mask` are dropped before the exponential, so they weigh
    exactly 0 whatever their score, and a query with no valid key gets
    all-zero weights. Returns the output, merged back to (..., n, d), and
    the (..., heads, n, m) weights. The backward keeps only q, k, v and
    the weights.
    """
    d = q.shape[-1]

    def split(x: np.ndarray) -> np.ndarray:  # (..., n, d) -> (..., heads, n, d / heads)
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, d // heads)), -3, -2)

    def merge(x: np.ndarray) -> np.ndarray:  # the inverse, as a new array
        return np.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (x.shape[-2], d))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    weights = qh @ np.swapaxes(kh, -1, -2)
    if score_bias is not None:
        weights += score_bias.data
    weights *= weights.dtype.type(scale)
    # Mask before exp, so that a huge masked score cannot overflow.
    if not key_mask.all():
        np.copyto(weights, -np.inf, where=~key_mask[..., None, None, :])
    top = weights.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    weights -= top
    np.exp(weights, out=weights)
    total = weights.sum(axis=-1, keepdims=True)
    total[total == 0.0] = 1.0
    weights /= total
    parents = (q, k, v) if score_bias is None else (q, k, v, score_bias)
    nq, nk, nv = q._node, k._node, v._node
    ns = None if score_bias is None else score_bias._node

    def backward(g):  # the softmax-Jacobian product, then the matmul gradients
        gh = split(g)
        if nv is not None:
            nv.accumulate(merge(np.swapaxes(weights, -1, -2) @ gh), owned=True)
        ds = gh @ np.swapaxes(vh, -1, -2)
        ds -= (ds * weights).sum(axis=-1, keepdims=True)
        ds *= weights
        ds *= weights.dtype.type(scale)
        if ns is not None:
            ns.accumulate(_unbroadcast(ds, ns.shape))
        if nq is not None:
            nq.accumulate(merge(ds @ kh), owned=True)
        if nk is not None:
            nk.accumulate(merge(np.swapaxes(ds, -1, -2) @ qh), owned=True)

    return Tensor._make(merge(weights @ vh), parents, backward), weights


def _by_offset(z: np.ndarray) -> np.ndarray:
    """The (..., n, n) view of a C-contiguous (..., n, 2n - 1) array whose
    column r holds offset n - 1 - r: element [i, j] is z[i, n - 1 - i + j],
    the column of offset i - j (Transformer-XL's relative shift). Distinct
    (i, j) name distinct elements, so a write through the view scatters."""
    n = z.shape[-2]
    row, col = z.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        z[..., n - 1:], z.shape[:-1] + (n,), z.strides[:-2] + (row - col, col))


def relative_scores(q: Tensor, wkr: Tensor, v: Tensor, table: np.ndarray, heads: int) -> Tensor:
    """The (..., heads, n, n) score bias q_i . (R_ij W_kR) + v . R_ij of
    relative-position attention, for (..., n, d) queries, a (d, d) W_kR and
    a (d,) v, each split into `heads` blocks of d / heads columns.

    R_ij is row i - j + n - 1 of the (2n - 1, d) offset `table`, so both
    terms are computed once per offset, as (..., heads, n, 2n - 1) scores
    against `table @ W_kR` and `table`, and then read out by offset
    (`_by_offset`). The backward scatters its gradient back onto the
    offsets and keeps only q, the projected table and the table.
    """
    n, d = q.shape[-2:]
    d_head = d // heads
    rows = np.ascontiguousarray(table[::-1])  # row r: offset n - 1 - r
    keys = rows @ wkr.data  # (2n - 1, d)

    def split(x: np.ndarray) -> np.ndarray:  # (2n - 1, d) -> (heads, 2n - 1, d / heads)
        return x.reshape(2 * n - 1, heads, d_head).transpose(1, 0, 2)

    qh = np.swapaxes(q.data.reshape(q.shape[:-1] + (heads, d_head)), -3, -2)
    kh, th = split(keys), split(rows)
    vh = v.data.reshape(heads, d_head, 1)
    z = qh @ np.swapaxes(kh, -1, -2)  # (..., heads, n, 2n - 1)
    z += np.swapaxes(th @ vh, -1, -2)  # v . R for each head and offset
    out_data = np.ascontiguousarray(_by_offset(z))
    nq, nw, nv = q._node, wkr._node, v._node

    def backward(g):
        gz = np.zeros(g.shape[:-1] + (2 * n - 1,), dtype=g.dtype)
        _by_offset(gz)[...] = g
        if nq is not None:
            gq = np.swapaxes(gz @ kh, -3, -2)
            nq.accumulate(gq.reshape(nq.shape), owned=True)
        if nw is not None:
            gk = _unbroadcast(np.swapaxes(gz, -1, -2) @ qh, kh.shape)  # (heads, 2n - 1, d / heads)
            nw.accumulate(rows.T @ gk.transpose(1, 0, 2).reshape(2 * n - 1, d), owned=True)
        if nv is not None:
            per_offset = _unbroadcast(gz.sum(axis=-2, keepdims=True), (heads, 1, 2 * n - 1))
            nv.accumulate((per_offset @ th).reshape(d), owned=True)

    return Tensor._make(out_data, (q, wkr, v), backward)


def dilated_conv_gelu(
    x: Tensor,
    mask: np.ndarray,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    dilations: Sequence[int],
) -> Tensor:
    """GELU of same-size dilated 2D convolutions of an (..., n, n, c_in)
    grid, one per dilation, side by side on the channel axis.

    Each kernel is (k, k, c_in, c_out) with zero padding of
    (k // 2) * dilation, so the output is (..., n, n, len(weights) * c_out).
    Cells outside the (..., n, n) `mask` are zeroed going in, so a kernel
    reads padding as the zeros beyond the grid's edge. Every dilation's
    `kernels.conv2d_forward` fills its column block of the one output, on
    which GELU runs in place; the backward reads the masked input and
    GELU's derivative.
    """
    parents = (x, *weights, *biases)
    xm, keep = x.data, None
    if not mask.all():
        keep = mask.astype(xm.dtype)[..., None]
        xm = xm * keep
    c_out = weights[0].data.shape[-1]
    blocks = [slice(i * c_out, (i + 1) * c_out) for i in range(len(weights))]
    out_data = np.empty(xm.shape[:-1] + (len(weights) * c_out,), dtype=xm.dtype)
    for w, b, dilation, block in zip(weights, biases, dilations, blocks):
        out_data[..., block] = kernels.conv2d_forward(xm, w.data, b.data, dilation)
    d = _gelu_in_place(out_data, _records(parents))
    nx = x._node
    per_dilation = [(w.data, w._node, b._node, dilation, block)
                    for w, b, dilation, block in zip(weights, biases, dilations, blocks)]

    def backward(g):
        nonlocal d
        g = _times_derivative(g, d)
        d = None  # read once: freed before the per-dilation gradients
        dx = None
        for w_data, nw, nb, dilation, block in per_dilation:
            dx_i, dw, db = kernels.conv2d_backward(xm, w_data, g[..., block], dilation)
            if nw is not None:
                nw.accumulate(dw, owned=True)
            if nb is not None:
                nb.accumulate(db, owned=True)
            if dx is None:
                dx = dx_i
            else:
                dx += dx_i
        if nx is not None:
            if keep is not None:
                dx *= keep
            nx.accumulate(dx, owned=True)

    return Tensor._make(out_data, parents, backward)


def layer_norm(x: Tensor, gain: Tensor | tuple, bias: Tensor | tuple, eps: float = 1e-5) -> Tensor:
    """gain * y + bias for y = (x - mean) / sqrt(var + eps) over the last
    axis, as one output array; a constant row normalizes to zeros. `gain`
    and `bias` broadcast against y: (d,) parameters, or CLN's (..., n, 1, d)
    per-row gains and biases over (..., 1, n, d) object rows. They may
    instead be equal-length tuples of k (d,) parameters, one per view along
    x's leading axis of k, each handed its own slice of the gradient.

    The backward keeps y and 1 / sqrt(var + eps) and takes the closed form
    (Ba et al., 2016) dx = (dy - mean(dy) - y * mean(dy * y)) / sqrt(var + eps),
    where dy = gain * g is y's gradient.
    """
    views = isinstance(gain, tuple)
    if views:
        gains, biases = gain, bias
        per_view = (len(gain),) + (1,) * (x.data.ndim - 2) + (-1,)
        gain_data, bias_data = (np.array([t.data for t in ts]).reshape(per_view)
                                for ts in (gain, bias))
    else:
        gains, biases = (gain,), (bias,)
        gain_data, bias_data = gain.data, bias.data
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = ((normed * normed).mean(axis=-1, keepdims=True) + eps) ** -0.5
    normed *= inv_std
    out_data = gain_data * normed
    out_data += bias_data
    nx = x._node
    gain_nodes, bias_nodes = [t._node for t in gains], [t._node for t in biases]

    def hand(nodes, grad, owned=False) -> None:  # one slice of grad per view
        for node, gt in zip(nodes, grad if views else (grad,)):
            if node is not None:
                node.accumulate(gt.reshape(node.shape), owned)

    def backward(g):
        # A strided g would be read three times below; one copy makes each
        # read contiguous. The sums and products keep their bits.
        g = np.ascontiguousarray(g)
        hand(bias_nodes, _unbroadcast(g, bias_data.shape))
        if nx is not None:
            dy = _unbroadcast(g * gain_data, normed.shape)
            dx = dy - dy.mean(axis=-1, keepdims=True)
            dx -= normed * (dy * normed).mean(axis=-1, keepdims=True)
            dx *= inv_std
            nx.accumulate(dx, owned=True)
        hand(gain_nodes, _unbroadcast(g * normed, gain_data.shape), owned=True)

    return Tensor._make(out_data, (x, *gains, *biases), backward)


def threshold_loss(scores: Tensor, gold: np.ndarray, cells: np.ndarray, s0: float) -> Tensor:
    """The (..., n, n) per-cell loss of (..., n, n, |R|) scores against the
    boolean `gold` tags, as one op: log(e^{-s0} + sum_pos e^{-s}) +
    log(e^{s0} + sum_neg e^{s}) in each cell of the boolean `cells`, and 0
    elsewhere. pos are the cell's gold tags and neg the rest.

    Each term is a stable log-sum-exp over the scores with the threshold
    prepended as a constant entry, so no sum is empty. A score outside a
    term is dropped before the exponential, so any finite value there adds
    nothing. The backward keeps the two terms' softmax weights over the
    scores: a cell's gradient is its neg weights less its pos weights.
    """
    keep = cells.astype(scores.dtype)
    pos = gold & cells[..., None]
    ones = np.ones(cells.shape + (1,), dtype=bool)
    with_thr = np.concatenate([np.full(cells.shape + (1,), s0, dtype=scores.dtype), scores.data],
                              axis=-1)

    def log_sum_exp(x, valid):  # and the softmax weights of x's score columns
        valid = np.concatenate([ones, valid], axis=-1)
        m = np.where(valid, x, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(valid, x - m, -np.inf))
        total = e.sum(axis=-1, keepdims=True)
        return np.squeeze(m + np.log(total), axis=-1), (e / total)[..., 1:]

    pos_term, pos_weights = log_sum_exp(-with_thr, pos)
    neg_term, neg_weights = log_sum_exp(with_thr, ~pos & cells[..., None])
    out_data = (pos_term + neg_term) * keep
    ns = scores._node

    def backward(g):
        gk = (g * keep)[..., None]
        grad = gk * neg_weights
        grad -= gk * pos_weights
        ns.accumulate(grad, owned=True)

    return Tensor._make(out_data, (scores,), backward)


# ----------------------------------------------------------------------
# parameters


class ParamStore:
    """Ordered, named collection of trainable tensors."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for k, t in self._params.items():
            arr = np.asarray(state[k], dtype=self.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {k}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()
