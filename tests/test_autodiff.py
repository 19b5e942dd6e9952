"""Gradient checks for every differentiable operation.

Each op's backward pass is compared against central finite differences
of its forward pass in double precision; the forward values themselves
are compared against plain numpy where a closed form exists.
"""

import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf, erfc

from crener import autodiff as ad
from crener.autodiff import ParamStore, Tensor
from crener.encoder import relative_position_table
from oracles import relative_position_embedding
from test_kernels import scalar_conv


def gelu_ref(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def normal_cdf(x):
    """`ad._normal_cdf_into` with freshly allocated scratch and output."""
    return ad._normal_cdf_into(x, np.empty_like(x), np.empty_like(x), np.empty_like(x))


def square(t):
    return t * t


def cube(t):
    return t * t * t


def fd_check(fn, inputs, h=1e-6, tol=1e-6, rng=None):
    """Compare analytic gradients of scalar fn(*inputs) with central FD."""
    rng = rng or np.random.default_rng(0)
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(*tensors)
    out.backward()
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            lp = fn(*tensors).item()
            flat[idx] = orig - h
            lm = fn(*tensors).item()
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = gflat[idx]
            assert abs(an - fd) <= tol * max(1.0, abs(an), abs(fd)), (
                f"grad mismatch at {idx}: analytic {an}, fd {fd}"
            )


class TestElementwise:
    def test_add_broadcast(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        fd_check(lambda x, y: ((x + y) * (x + y)).sum(), [a, b])

    def test_sub_mul(self, rng):
        a = rng.normal(size=(2, 5))
        b = rng.normal(size=(2, 5)) + 3.0
        fd_check(lambda x, y: ((x + y * -1.0) * x * y).sum(), [a, b])

    def test_scalar_coercion_preserves_dtype(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = (t * 2.0 + 1.0) * -0.25 + 0.5
        assert out.data.dtype == np.float32

    def test_gelu_matches_erf_form(self, rng):
        x, w, b = rng.normal(size=(2, 4, 7)), rng.normal(size=(7, 5)), rng.normal(size=(5,))
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b), gelu=True)
        np.testing.assert_allclose(out.data, gelu_ref(x @ w + b), rtol=1e-12)

    def test_gelu_gradient(self, rng):
        x, w, b = rng.normal(size=(2, 3, 5)), rng.normal(size=(5, 4)), rng.normal(size=(4,))
        fd_check(lambda t, ww, bb: ad.linear(t, ww, bb, gelu=True).sum(), [x, w, b])

    @pytest.mark.parametrize("dtype, bound", [(np.float32, 3e-7), (np.float64, 2e-15)])
    def test_normal_cdf_matches_stdlib_erfc(self, dtype, bound):
        # Both tails, where erfc underflows, and the sign change at 0.
        x = np.linspace(-10.0, 10.0, 400_001).astype(dtype)
        expected = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
        assert np.abs(normal_cdf(x) - expected).max() <= bound

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normal_cdf_keeps_dtype_and_limits(self, dtype):
        x = np.array([-np.inf, -40.0, 0.0, 40.0, np.inf, np.nan], dtype=dtype)
        cdf = normal_cdf(x)
        assert cdf.dtype == dtype
        np.testing.assert_allclose(cdf, [0.0, 0.0, 0.5, 1.0, 1.0, np.nan], atol=3e-7)
        one, zero = Tensor(np.ones((1, 1), dtype=dtype)), Tensor(np.zeros(1, dtype=dtype))
        assert ad.linear(Tensor(x[1:4, None]), one, zero, gelu=True).data.dtype == dtype

    def test_float32_gelu_value_and_derivative_bounds(self):
        # float32 GELU on a dense grid against the float64 erfc form. The
        # value's error is about one rounding of z * Phi(z) near z = 10, the
        # derivative's that of Phi. In the negative tail, where GELU is tiny,
        # its relative error is as large as the README gives it: below 1e-3
        # on [-4, -3) and 0.1 on [-5, -4).
        x = np.linspace(-10.0, 10.0, 400_001).astype(np.float32)
        z = x.copy()
        d = ad._gelu_in_place(z, True)
        x64 = x.astype(np.float64)
        cdf = 0.5 * erfc(-x64 / np.sqrt(2.0))
        value = x64 * cdf
        derivative = cdf + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
        assert np.abs(z - value).max() <= 6e-7
        assert np.abs(d - derivative).max() <= 2e-7
        for lo, hi, bound in ((-4.0, -3.0, 1e-3), (-5.0, -4.0, 0.1)):
            tail = (x >= lo) & (x < hi)
            assert (np.abs(z[tail] - value[tail]) / np.abs(value[tail])).max() <= bound

    @pytest.mark.parametrize("size", ["1", "B-1", "B", "B+1", "2B+3"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("derivative", [False, True])
    def test_blocked_gelu_matches_whole_array(self, rng, size, dtype, derivative):
        block = ad._GELU_BLOCK
        n = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+3": 2 * block + 3}[size]
        z = (rng.normal(size=(1, n, 1)) * 4.0).astype(dtype)
        cdf = normal_cdf(z)
        expected_d = np.exp(z * -0.5 * z) * ad._INV_SQRT2PI * z + cdf
        expected = z * cdf
        d = ad._gelu_in_place(z, derivative)
        assert np.array_equal(z, expected)
        if derivative:
            assert d.shape == z.shape and d.dtype == dtype
            assert np.array_equal(d, expected_d)
        else:
            assert d is None

    def test_blocked_gelu_scratch_is_one_block(self, rng):
        z = rng.normal(size=(4, ad._GELU_BLOCK)).astype(np.float32)
        block_bytes = ad._GELU_BLOCK * z.itemsize
        tracemalloc.start()
        try:
            ad._gelu_in_place(z, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * block_bytes + 64 * 1024 < z.nbytes


class TestShape:
    def test_matmul(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        fd_check(lambda x, y: (x @ y).sum(), [a, b])

    def test_batched_matmul_broadcast(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        fd_check(lambda x, y: square(x @ y).sum(), [a, b])

    def test_reshape_transpose(self, rng):
        a = rng.normal(size=(2, 3, 4))
        fd_check(lambda x: square(ad.swapaxes(x.reshape(6, 4), 0, 1)).sum(), [a])

    def test_swapaxes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        weights = Tensor(rng.normal(size=(4, 3, 2)))
        out = ad.swapaxes(Tensor(a), -3, -1)
        np.testing.assert_array_equal(out.data, np.swapaxes(a, 0, 2))
        fd_check(lambda x: (cube(ad.swapaxes(x, -3, -1)) * weights).sum(), [a])

    def test_getitem_slice_and_fancy(self, rng):
        a = rng.normal(size=(5, 4))
        fd_check(lambda x: square(x[1:3]).sum(), [a])
        # Overlapping basic indexes of one parent: their gradients sum.
        fd_check(lambda x: square(x[1:4]).sum() + cube(x[2:, None, ..., 1:]).sum()
                 + cube(x[1]).sum(), [a])
        # An advanced index is refused; `embedding` is the gather op.
        with pytest.raises(TypeError, match="basic index"):
            Tensor(a, requires_grad=True)[np.array([0, 0, 2])]

    def test_tensor_is_not_iterable(self):
        t = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        with pytest.raises(TypeError):
            a, b = t

    def test_concat(self, rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 5))
        fd_check(lambda x, y: square(ad.concat([x, y], axis=-1)).sum(), [a, b])

    def test_concat_forward(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 1))
        out = ad.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))


class TestReductions:
    def test_sum_axes(self, rng):
        a = rng.normal(size=(3, 4, 2))
        fd_check(lambda x: square(x.sum(axis=1)).sum(), [a])
        fd_check(lambda x: (x.sum(axis=-1, keepdims=True) * x).sum(), [a])

    def test_max_gradient(self, rng):
        # Padded batch: the second grid's last row and column are masked.
        a = rng.normal(size=(2, 4, 4, 3))
        mask = np.ones((2, 4, 4), dtype=bool)
        mask[1, 3, :] = mask[1, :, 3] = False
        wr, wc = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
        wr[1, 3] = wc[1, 3] = 0.0  # the padded row and column pool the fill
        wr, wc = Tensor(wr), Tensor(wc)

        def fn(x):
            pooled = ad.masked_max(x, mask, -1e9)
            rows, cols = pooled[0], pooled[1]
            return (rows * wr).sum() + (cols * wc).sum()

        fd_check(fn, [a])
        pooled = ad.masked_max(Tensor(a), mask, -1e9)
        rows, cols = pooled[0], pooled[1]
        filled = np.where(mask[..., None], a, -np.inf)
        np.testing.assert_array_equal(rows.data[:, :3], filled.max(axis=-2)[:, :3])
        np.testing.assert_array_equal(cols.data[0], filled[0].max(axis=-3))

    def test_max_splits_ties_evenly(self):
        a = Tensor(np.array([[[1.0], [3.0]], [[3.0], [0.0]]]), requires_grad=True)
        pooled = ad.masked_max(a, np.ones((2, 2), dtype=bool), -1e9)
        rows, cols = pooled[0], pooled[1]
        np.testing.assert_array_equal(rows.data, [[3.0], [3.0]])
        np.testing.assert_array_equal(cols.data, [[3.0], [3.0]])
        (rows.sum() + cols.sum()).backward()
        # Each 3.0 wins one row and one column and takes both gradients.
        np.testing.assert_allclose(a.grad[..., 0], [[0.0, 2.0], [2.0, 0.0]])
        b = Tensor(np.array([[[3.0], [3.0]], [[0.0], [3.0]]]), requires_grad=True)
        rows = ad.masked_max(b, np.ones((2, 2), dtype=bool), -1e9)[0]
        rows.sum().backward()  # row 0 ties
        np.testing.assert_allclose(b.grad[..., 0], [[0.5, 0.5], [0.0, 1.0]])

    def test_masked_max_fully_masked_row(self, rng):
        a = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        mask = np.zeros((3, 3), dtype=bool)
        mask[:2, :2] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = ad.masked_max(a, mask, -1e9)
            rows, cols = pooled[0], pooled[1]
            (rows.sum() + cols.sum()).backward()
        np.testing.assert_array_equal(rows.data[2], [-1e9, -1e9])
        np.testing.assert_array_equal(cols.data[2], [-1e9, -1e9])
        np.testing.assert_array_equal(a.grad[~mask], 0.0)
        np.testing.assert_array_equal(a.grad[mask].sum(axis=0), [4.0, 4.0])


class TestFusedOps:
    def test_softmax_rows_sum_to_one(self, rng):
        # Two heads over 6 keys: each head's weights are a softmax of its
        # own scaled scores, and the output is their weighted values.
        q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
        out, w = ad.attention(Tensor(q), Tensor(k), Tensor(v), np.ones(6, bool), 2, 0.5)
        assert w.shape == (2, 6, 6)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((2, 6)), atol=1e-12)
        for h, cols in enumerate((slice(0, 2), slice(2, 4))):
            scores = 0.5 * q[:, cols] @ k[:, cols].T
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            np.testing.assert_allclose(w[h], e / e.sum(axis=-1, keepdims=True), rtol=1e-12)
            np.testing.assert_allclose(out.data[:, cols], w[h] @ v[:, cols], rtol=1e-12)

    def test_softmax_masked_columns_exactly_zero(self, rng):
        q, k, v = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        mask = np.array([True, True, False, True, False])
        _, w = ad.attention(Tensor(q), Tensor(k), Tensor(v), mask, 1, 1.0)
        assert (w[..., ~mask] == 0.0).all()
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((1, 4)), atol=1e-12)

    @staticmethod
    def softmax_of(scores: Tensor, mask: np.ndarray) -> Tensor:
        """The masked softmax of (n, m) `scores`, read off `attention`: zero
        queries and keys leave the score bias alone, and identity values
        return the weights as the output."""
        n, m = scores.shape
        q, k = Tensor(np.zeros((n, m))), Tensor(np.zeros((m, m)))
        out, _ = ad.attention(q, k, Tensor(np.eye(m)), mask, 1, 1.0, score_bias=scores)
        return out

    def test_softmax_gradient(self, rng):
        x = rng.normal(size=(3, 6))
        mask = np.array([True, True, True, False, True, False])
        w = rng.normal(size=(3, 6))
        fd_check(lambda t: (self.softmax_of(t, mask) * w).sum(), [x])

    def test_attention_gradient(self, rng):
        # A padded batch of three: 5, 3 and no valid keys, the last one's
        # every query row fully masked. Two heads, cross-attention of 4
        # queries over 5 keys, and a taped score bias.
        q, k, v = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 5, 6)), rng.normal(size=(3, 5, 6))
        mask = np.arange(5)[None, :] < np.array([5, 3, 0])[:, None]
        w_out = rng.normal(size=(3, 4, 6))
        for bias in (rng.normal(size=(3, 2, 4, 5)), rng.normal(size=(2, 1, 5))):
            fd_check(
                lambda *t: (ad.attention(*t[:3], mask, 2, 0.7, score_bias=t[3])[0] * w_out).sum(),
                [q, k, v, bias],
            )
        out, w = ad.attention(Tensor(q), Tensor(k), Tensor(v), mask, 2, 0.7)
        np.testing.assert_array_equal(w[1][..., 3:], 0.0)
        np.testing.assert_allclose(w[:2].sum(axis=-1), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(w[2], 0.0)
        np.testing.assert_array_equal(out.data[2], 0.0)
        fd_check(lambda *t: (ad.attention(*t, mask, 2, 0.7)[0] * w_out).sum(), [q, k, v])

    def test_layer_norm_value_and_gradient(self, rng):
        x = rng.normal(size=(4, 8)) * 3 + 1
        x[2] = 0.75  # a constant row normalizes to zeros, with a finite gradient
        g, b = rng.normal(size=(8,)), rng.normal(size=(8,))
        out = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        normed = (out - b) / g
        np.testing.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(normed[[0, 1, 3]].var(axis=-1), 1.0, rtol=1e-4)
        np.testing.assert_array_equal(out[2], b)
        w1, w2 = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))

        def loss(t, gg, bb, rows=slice(None)):
            y = ad.layer_norm(t, gg, bb)
            return (y * Tensor(w1[rows]) + square(y) * Tensor(w2[rows])).sum()

        fd_check(loss, [x, g, b])
        fd_check(lambda t, gg, bb: loss(t, gg, bb, slice(2, 3)), [x[2:3], g, b])  # the constant row

    def test_threshold_loss_value(self, rng):
        # Two sentences' 3 x 3 grids of 5 tags, the second padded to 2
        # characters; scores in masked cells are never read.
        scores = rng.normal(size=(2, 3, 3, 5)) * 3
        gold = rng.random((2, 3, 3, 5)) > 0.6
        cells = np.ones((2, 3, 3), dtype=bool)
        cells[1, 2, :] = cells[1, :, 2] = False
        for s0 in (0.0, -0.7):
            out = ad.threshold_loss(Tensor(scores), gold, cells, s0).data
            assert out.shape == cells.shape
            for idx in np.ndindex(cells.shape):
                s, pos = scores[idx], gold[idx]
                expected = (np.log(np.exp(-s0) + np.exp(-s[pos]).sum())
                            + np.log(np.exp(s0) + np.exp(s[~pos]).sum())) if cells[idx] else 0.0
                np.testing.assert_allclose(out[idx], expected, rtol=1e-12, err_msg=str(idx))

    def test_threshold_loss_gradient(self, rng):
        scores = rng.normal(size=(2, 3, 3, 4))
        gold = rng.random((2, 3, 3, 4)) > 0.5
        cells = np.ones((2, 3, 3), dtype=bool)
        cells[1, 2, :] = cells[1, :, 2] = False
        w = rng.normal(size=(2, 3, 3))
        # A cell with no gold tag beside one whose every tag is gold; `fd_check`
        # checks 6 entries, so here it checks all of them.
        edge = rng.normal(size=(1, 1, 2, 3))
        edge_gold = np.array([False, True])[None, None, :, None].repeat(3, axis=-1)
        edge_cells = np.ones((1, 1, 2), dtype=bool)
        for s0 in (0.0, 0.4):
            fd_check(lambda t: (ad.threshold_loss(t, gold, cells, s0) * w).sum(), [scores])
            fd_check(lambda t: (ad.threshold_loss(t, edge_gold, edge_cells, s0)
                                * w[0, 0, :2]).sum(), [edge])

    def test_masked_entries_may_hold_extreme_values(self):
        # Scores of +-1e30 in masked cells, or masked keys, must not poison
        # the loss, its gradient or a softmax: mask first, exponentiate after.
        scores = np.zeros((1, 2, 2, 3))
        scores[0, 1] = [[1e30, -1e30, 1e30], [-1e30, 1e30, -1e30]]
        cells = np.array([[[True, True], [False, False]]])
        gold = np.zeros((1, 2, 2, 3), dtype=bool)
        gold[0, 0, 1, 0] = True
        t = Tensor(scores, requires_grad=True)
        loss = ad.threshold_loss(t, gold, cells, 0.0)
        loss.sum().backward()
        assert np.isfinite(loss.data).all() and np.isfinite(t.grad).all()
        np.testing.assert_array_equal(loss.data[0, 1], 0.0)
        np.testing.assert_array_equal(t.grad[0, 1], 0.0)
        np.testing.assert_allclose(loss.data[0, 0], [np.log(4.0), np.log(2.0) + np.log(3.0)],
                                   rtol=1e-12)
        x = np.array([[0.0, 1e30, -1e30, 2.0]])
        mask = np.array([True, False, False, True])
        sm = self.softmax_of(Tensor(x), mask)
        assert np.isfinite(sm.data).all()
        np.testing.assert_array_equal(sm.data[0, 1:3], 0.0)
        np.testing.assert_allclose(sm.data.sum(), 1.0, rtol=1e-12)

    def test_embedding_gradient_accumulates_repeats(self):
        table = Tensor(np.arange(8, dtype=np.float64).reshape(4, 2), requires_grad=True)
        ids = np.array([1, 1, 3])
        out = ad.embedding(table, ids).sum()
        out.backward()
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [ad._ONE_HOT_ROWS, ad._ONE_HOT_ROWS + 1])
    @pytest.mark.parametrize("ids_kind", ["repeated", "broadcast"])
    def test_embedding_scatter_matches_add_at(self, rng, rows, dtype, ids_kind):
        # Both scatters (one-hot GEMM up to _ONE_HOT_ROWS rows, np.add.at
        # above) against a float64 np.add.at reference. "broadcast" ids are
        # zero-stride over the batch axis, as `pair_features` passes them.
        if ids_kind == "repeated":
            ids = rng.integers(0, 4, size=(3, 50))  # few distinct ids, many repeats
            ids[0, :2] = rows - 1
        else:
            ids = np.broadcast_to(rng.integers(0, rows, size=(7, 7)), (3, 7, 7))
        table = Tensor(rng.normal(size=(rows, 5)).astype(dtype), requires_grad=True)
        weights = rng.normal(size=ids.shape + (5,))
        (ad.embedding(table, ids) * Tensor(weights.astype(dtype))).sum().backward()
        expected = np.zeros((rows, 5))
        np.add.at(expected, ids, weights)
        assert table.grad.dtype == dtype and table.grad.shape == (rows, 5)
        tol = 1e-5 if dtype == np.float32 else 1e-13
        np.testing.assert_allclose(table.grad, expected, rtol=tol, atol=tol)

    def test_dropout_scales_kept_entries(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        keep = (rng.random(x.shape) >= 0.4) / 0.6
        out = x * keep  # dropout is a product with its multipliers
        vals = np.unique(out.data)
        assert set(np.round(vals, 6)) <= {0.0, round(1 / 0.6, 6)}
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, keep)

    def test_linear_gradient(self, rng):
        x, w, b = rng.normal(size=(2, 3, 5)), rng.normal(size=(5, 4)), rng.normal(size=(4,))
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, x @ w + b)
        fd_check(lambda t, ww, bb: square(ad.linear(t, ww, bb)).sum(), [x, w, b])

    def test_linear_with_a_grid_shaped_bias(self, rng):
        # `pair_features`' shape: one grid-shaped bias that two rounds' GEMMs
        # read, so its gradient is the sum of both rounds'.
        x0, x1 = rng.normal(size=(2, 3, 3, 5)), rng.normal(size=(2, 3, 3, 5))
        w, b = rng.normal(size=(5, 4)), rng.normal(size=(2, 3, 3, 4))
        out = ad.linear(Tensor(x0), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, x0 @ w + b)
        fd_check(lambda t0, t1, ww, bb: (square(ad.linear(t0, ww, bb, gelu=True))
                                         + ad.linear(t1, ww, bb) * 0.5).sum(), [x0, x1, w, b])

    def test_layer_norm_broadcast_and_view_gradients(self, rng):
        # CLN's shapes: per-row gains and biases over normalized object
        # rows, then enhancement's: one (d,) gain and bias per view.
        x = rng.normal(size=(2, 1, 3, 4))
        g, b = rng.normal(size=(2, 3, 1, 4)), rng.normal(size=(2, 3, 1, 4))
        normed = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        out = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b))
        assert out.shape == (2, 3, 3, 4)
        np.testing.assert_allclose(out.data, g * normed + b, rtol=1e-12)
        fd_check(lambda t, gg, bb: square(ad.layer_norm(t, gg, bb)).sum(), [x, g, b])

        x = rng.normal(size=(2, 3, 5, 4))
        gains, biases = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        out = ad.layer_norm(Tensor(x), tuple(map(Tensor, gains)), tuple(map(Tensor, biases)))
        for view in range(2):
            expect = ad.layer_norm(Tensor(x[view]), Tensor(gains[view]), Tensor(biases[view]))
            np.testing.assert_array_equal(out.data[view], expect.data)
        fd_check(lambda t, g0, g1, b0, b1: square(ad.layer_norm(t, (g0, g1), (b0, b1))).sum(),
                 [x, gains[0], gains[1], biases[0], biases[1]])

    def test_layer_norm_gradient(self, rng):
        x = rng.normal(size=(3, 8))
        g = rng.normal(size=(8,))
        b = rng.normal(size=(8,))
        fd_check(lambda t, gg, bb: square(ad.layer_norm(t, gg, bb)).sum(), [x, g, b])

    def test_conv2d_dilated_gradient(self, rng):
        # A padded batch of two 5 x 5 grids, the second with 3 real
        # positions, through three dilations.
        x = rng.normal(size=(2, 5, 5, 3))
        ws = [rng.normal(size=(3, 3, 3, 2)) for _ in range(3)]
        bs = [rng.normal(size=(2,)) for _ in range(3)]
        mask = np.ones((2, 5, 5), dtype=bool)
        mask[1, 3:, :] = mask[1, :, 3:] = False
        fd_check(
            lambda xx, *wb: square(
                ad.dilated_conv_gelu(xx, mask, wb[:3], wb[3:], (1, 2, 3))).sum(),
            [x, *ws, *bs],
            tol=1e-5,
        )

    def test_dilated_conv_gelu_matches_scalar_oracle(self, rng):
        n, dilations = 5, (1, 2, 3)
        x = rng.normal(size=(2, n, n, 3))
        ws = [rng.normal(size=(3, 3, 3, 2)) for _ in dilations]
        bs = [rng.normal(size=(2,)) for _ in dilations]
        mask = np.ones((2, n, n), dtype=bool)
        mask[1, 2:, :] = mask[1, :, 2:] = False
        x[1][~mask[1]] = 1e6  # padding must be zeroed before any kernel reads it
        out = ad.dilated_conv_gelu(
            Tensor(x), mask, [Tensor(w) for w in ws], [Tensor(b) for b in bs], dilations)
        for k in range(2):
            xm = x[k] * mask[k][..., None]
            expect = np.concatenate(
                [scalar_conv(xm, w, b, d) for w, b, d in zip(ws, bs, dilations)], axis=-1)
            np.testing.assert_allclose(out.data[k], gelu_ref(expect), rtol=1e-12, atol=1e-12)


def relative_scores_oracle(q, wkr, v, heads):
    """q_i . (R_ij W_kR) + v . R_ij head by head, from the full (n, n, d)
    table of R_ij."""
    n, d = q.shape[-2:]
    d_head = d // heads
    rel = relative_position_embedding(n, d)
    keys = rel @ wkr
    out = np.zeros(q.shape[:-2] + (heads, n, n))
    for h in range(heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        out[..., h, :, :] = (np.einsum("...ic,ijc->...ij", q[..., cols], keys[..., cols])
                             + rel[..., cols] @ v[cols])
    return out


class TestRelativeScores:
    """`relative_scores` against the full-table oracle, and its gradients
    against central differences of every entry, in float64."""

    def run(self, q, wkr, v, heads):
        table = relative_position_table(q.shape[-2], q.shape[-1])
        return ad.relative_scores(q, wkr, v, table, heads)

    def check_gradients(self, q, wkr, v, heads, rng, h=1e-6):
        weights = rng.normal(size=q.shape[:-2] + (heads, q.shape[-2], q.shape[-2]))
        inputs = [Tensor(x, requires_grad=True) for x in (q, wkr, v)]
        (self.run(*inputs, heads) * weights).sum().backward()
        for t in inputs:
            flat, fd = t.data.reshape(-1), np.empty(t.data.size)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                plus = (relative_scores_oracle(*(x.data for x in inputs), heads) * weights).sum()
                flat[k] = orig - h
                minus = (relative_scores_oracle(*(x.data for x in inputs), heads) * weights).sum()
                flat[k] = orig
                fd[k] = (plus - minus) / (2 * h)
            np.testing.assert_allclose(t.grad.reshape(-1), fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("lead, n, d, heads", [
        ((2,), 5, 6, 2),  # a batch
        ((), 1, 4, 2),  # one character: the table has one offset
        ((), 4, 5, 1),  # one head over an odd width
    ])
    def test_value_and_gradients(self, rng, lead, n, d, heads):
        q, wkr, v = rng.normal(size=lead + (n, d)), rng.normal(size=(d, d)), rng.normal(size=d)
        out = self.run(Tensor(q), Tensor(wkr), Tensor(v), heads)
        assert out.shape == lead + (heads, n, n)
        np.testing.assert_allclose(out.data, relative_scores_oracle(q, wkr, v, heads),
                                   rtol=1e-12, atol=1e-12)
        self.check_gradients(q, wkr, v, heads, rng)

    def test_padded_batch_matches_each_sentence(self, rng):
        # Lengths 6, 3 and 1 padded to 6: each sentence's block of scores and
        # its share of the W_kR and v gradients match its run alone.
        lengths, d, heads = (6, 3, 1), 6, 3
        q = rng.normal(size=(3, 6, d))
        wkr, v = rng.normal(size=(d, d)), rng.normal(size=d)
        weights = rng.normal(size=(3, heads, 6, 6))
        for b, n in enumerate(lengths):
            weights[b, :, n:, :] = 0.0
            weights[b, :, :, n:] = 0.0
        params = Tensor(wkr, requires_grad=True), Tensor(v, requires_grad=True)
        batch_q = Tensor(q, requires_grad=True)
        out = self.run(batch_q, *params, heads)
        (out * weights).sum().backward()
        wkr_grad, v_grad = np.zeros_like(wkr), np.zeros_like(v)
        for b, n in enumerate(lengths):
            alone_q = Tensor(q[b, :n], requires_grad=True)
            alone_params = Tensor(wkr, requires_grad=True), Tensor(v, requires_grad=True)
            alone = self.run(alone_q, *alone_params, heads)
            np.testing.assert_allclose(out.data[b, :, :n, :n], alone.data, rtol=1e-12, atol=1e-12)
            (alone * weights[b, :, :n, :n]).sum().backward()
            np.testing.assert_allclose(batch_q.grad[b, :n], alone_q.grad, rtol=1e-12, atol=1e-12)
            wkr_grad += alone_params[0].grad
            v_grad += alone_params[1].grad
        np.testing.assert_array_equal(batch_q.grad[1, 3:], 0.0)
        np.testing.assert_allclose(params[0].grad, wkr_grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(params[1].grad, v_grad, rtol=1e-12, atol=1e-12)


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = y + y * y  # y used twice
        z.backward()
        # dz/dx = 3 + 2*y*3 = 3 + 36
        np.testing.assert_allclose(x.grad, [39.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    # Ownership: a closure may hand its gradient over rather than have it
    # copied, but never the same memory to two inputs.
    def test_add_of_one_input_twice(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        square(ad.add(x, x)).sum().backward()
        np.testing.assert_array_equal(x.grad, 8.0 * x.data)

    def test_add_gives_each_input_its_own_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng.normal(size=(3, 4))
        (ad.add(x, y) * Tensor(c)).sum().backward()
        np.testing.assert_array_equal(x.grad, c)
        np.testing.assert_array_equal(y.grad, c)
        assert not np.shares_memory(x.grad, y.grad)
        x.grad += 1.0  # a later accumulation into one must not reach the other
        np.testing.assert_array_equal(y.grad, c)

    def test_concat_of_one_input_twice(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng.normal(size=(3, 8))
        (ad.concat([x, x], axis=-1) * Tensor(c)).sum().backward()
        np.testing.assert_array_equal(x.grad, c[:, :4] + c[:, 4:])

    def test_sum_gradient_is_materialised(self, rng):
        # tensor_sum hands over a zero-stride broadcast view, which must be
        # copied: a later accumulation writes into the gradient in place.
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        assert 0 not in x.grad.strides and x.grad.flags.writeable
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_no_grad_path_skipped(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (a @ b).sum()
        out.backward()
        assert a.grad is None
        assert b.grad is not None



def records_tape() -> bool:
    return (Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad


class TestGradMode:
    def forward(self, x, w, g, b):
        h = ad.layer_norm(ad.linear(x, w, b, gelu=True), g, b)
        return ad.masked_max(h, np.ones(x.shape[:-1], dtype=bool), -1e9).sum()

    def test_forward_inside_no_grad_records_no_tape(self, rng, made_tensors, monkeypatch):
        inputs = [rng.normal(size=(2, 3, 3, 4)), rng.normal(size=(4, 4)),
                  rng.normal(size=(4,)), rng.normal(size=(4,))]
        params = [Tensor(a, requires_grad=True) for a in inputs]
        taped = self.forward(*params)
        made_tensors.clear()
        derivatives = []
        gelu_in_place = ad._gelu_in_place

        def recording(z, derivative):
            derivatives.append(derivative)
            return gelu_in_place(z, derivative)

        monkeypatch.setattr(ad, "_gelu_in_place", recording)
        with ad.no_grad():
            out = self.forward(*params)
        assert len(made_tensors) == 4 and made_tensors[-1] is out
        for t in made_tensors:
            assert t._parents == () and t._backward is None and not t.requires_grad
        assert derivatives == [False]  # GELU's derivative is not computed
        np.testing.assert_array_equal(out.data, taped.data)

    def test_backward_inside_no_grad_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = (x * x).sum()
        with ad.no_grad(), pytest.raises(RuntimeError, match="no_grad"):
            loss.backward()
        assert x.grad is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 2.0, 4.0])

    def test_mode_restored_on_exit_exception_and_nesting(self):
        assert records_tape()
        with ad.no_grad():
            assert not records_tape()
            with ad.no_grad():
                assert not records_tape()
            assert not records_tape()
        assert records_tape()
        with pytest.raises(FloatingPointError):
            with ad.no_grad():
                raise FloatingPointError("escapes the context")
        assert records_tape()

def test_backward_releases_the_tape(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    h = ad.linear(x, w, b, gelu=True)
    y = ad.linear(h, ad.swapaxes(w, 0, 1), Tensor(np.zeros(4)))  # reads h.data as its input
    saved = weakref.ref(h.data)
    loss = (y * y).sum()
    del h, y
    assert saved() is not None
    loss.backward()
    assert saved() is None
    assert loss._parents == () and loss.grad is None
    assert x.grad is not None and w.grad is not None


class TestParamStore:
    def test_roundtrip_and_mismatch(self):
        store = ParamStore(np.float32)
        store.add("w", np.ones((2, 2)))
        store.add("b", np.zeros(2))
        state = store.state_dict()
        state["w"][0, 0] = 5.0
        store.load_state_dict(state)
        assert store["w"].data[0, 0] == 5.0
        with pytest.raises(ValueError):
            store.load_state_dict({"w": np.ones((2, 2))})

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(ValueError):
            store.add("w", np.ones(2))

    def test_zero_grad(self):
        store = ParamStore(np.float64)
        t = store.add("w", np.ones(3))
        (t * t).sum().backward()
        assert t.grad is not None
        store.zero_grad()
        assert t.grad is None
