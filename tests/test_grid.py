"""Grid construction: conditional layer norm, index embeddings, pair
feature reduction, and dilated convolutions over the cell grid."""

import numpy as np
import pytest
from scipy.special import erf

from conftest import small_model
from crener import kernels
from crener.autodiff import ParamStore, Tensor
from crener.errors import ConfigError, CrenerError
from crener.grid import (
    GridConfig,
    attention_bucket,
    conditional_layer_norm,
    dilated_convolutions,
    distance_bucket,
    pair_features,
    pair_projection,
    project_subject_object,
    region_ids,
)


def gelu_ref(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def grid_parts(n=5, seed=0):
    model, _ = small_model()
    rng = np.random.default_rng(seed)
    d = model.config.encoder.d_h
    h = Tensor(rng.normal(size=(n, d)).astype(np.float32))
    attn = rng.random((n, n)).astype(np.float32)
    mask2d = np.ones((n, n), dtype=bool)
    return model, h, attn, mask2d


class TestProjections:
    def test_affine_oracle(self):
        model, h, _, _ = grid_parts()
        p = {name: t.data for name, t in model.store.items()}
        pair = project_subject_object(h, model.store)
        assert pair.shape == (2,) + h.shape
        np.testing.assert_allclose(
            pair.data[0], h.data @ p["grid.subj.w"] + p["grid.subj.b"], atol=1e-6
        )
        np.testing.assert_allclose(
            pair.data[1], h.data @ p["grid.obj.w"] + p["grid.obj.b"], atol=1e-6
        )


class TestConditionalLayerNorm:
    @staticmethod
    def degenerate_store(d, dtype=np.float64):
        store = ParamStore(dtype)
        store.add("grid.cln.gain_w", np.zeros((d, d)))
        store.add("grid.cln.gain_b", np.ones(d))
        store.add("grid.cln.bias_w", np.zeros((d, d)))
        store.add("grid.cln.bias_b", np.zeros(d))
        return store

    def test_frozen_two_point_example(self):
        # Object vector [1, 3] with unit gain and zero bias normalizes
        # to [-1, 1].
        p = self.degenerate_store(2)
        h_s = np.zeros((1, 2))
        h_o = np.array([[1.0, 3.0]])
        v = conditional_layer_norm(Tensor(np.stack([h_s, h_o])), p)
        np.testing.assert_allclose(v.data[0, 0], [-1.0, 1.0], atol=1e-4)

    def test_degenerate_rows_are_standardized(self, rng):
        d = 16
        p = self.degenerate_store(d)
        h_s = rng.normal(size=(6, d))
        h_o = rng.normal(size=(6, d)) * 3.0 + 1.5
        v = conditional_layer_norm(Tensor(np.stack([h_s, h_o])), p).data
        means = v.mean(axis=-1)
        stds = v.std(axis=-1)
        assert np.abs(means).max() <= 1e-5
        assert np.abs(stds - 1.0).max() <= 1e-3

    def test_subject_conditions_only_its_row(self, rng):
        model, h, _, _ = grid_parts()
        p = model.store
        pair = project_subject_object(h, p)
        base = conditional_layer_norm(pair, p).data.copy()
        bumped = pair.data.copy()
        bumped[0, 2] += 1.0
        v2 = conditional_layer_norm(Tensor(bumped), p).data
        assert not np.allclose(v2[2], base[2])
        keep = [i for i in range(v2.shape[0]) if i != 2]
        np.testing.assert_array_equal(v2[keep], base[keep])

    def test_object_change_moves_column(self, rng):
        model, h, _, _ = grid_parts()
        p = model.store
        pair = project_subject_object(h, p)
        base = conditional_layer_norm(pair, p).data.copy()
        bumped = pair.data.copy()
        bumped[1, 1] *= 2.0
        v2 = conditional_layer_norm(Tensor(bumped), p).data
        assert not np.allclose(v2[:, 1], base[:, 1])
        keep = [j for j in range(v2.shape[1]) if j != 1]
        np.testing.assert_array_equal(v2[:, keep], base[:, keep])


def bucket_ref(d):
    if d == 0:
        return 0
    m = abs(d)
    if m <= 4:
        b = m
    elif m <= 7:
        b = 5
    elif m <= 15:
        b = 6
    elif m <= 31:
        b = 7
    elif m <= 63:
        b = 8
    else:
        b = 9
    return b if d > 0 else 9 + b


class TestIndexEmbeddingIds:
    def test_distance_bucket_matches_table(self):
        offs = np.arange(-200, 201)
        got = distance_bucket(offs)
        expect = np.array([bucket_ref(int(d)) for d in offs])
        np.testing.assert_array_equal(got, expect)
        assert got.min() == 0 and got.max() == 18

    def test_distance_bucket_scalar_and_shape(self):
        assert distance_bucket(0) == 0
        assert distance_bucket(np.array([[1, -1]])).shape == (1, 2)

    def test_region_ids_layout(self):
        np.testing.assert_array_equal(
            region_ids(3), [[1, 2, 2], [0, 1, 2], [0, 0, 1]]
        )

    def test_attention_bucket_edges(self):
        vals = np.array([0.0, 1 / 16 - 1e-9, 1 / 16, 0.5, 0.999, 1.0])
        np.testing.assert_array_equal(
            attention_bucket(vals, 16), [0, 0, 1, 8, 15, 15]
        )

    def test_attention_bucket_non_finite_weights(self):
        # An overflowing forward can hand NaN or inf weights here.
        vals = np.array([np.nan, np.inf, -np.inf, -0.5, 2.0])
        np.testing.assert_array_equal(attention_bucket(vals, 16), [0, 15, 0, 0, 15])


class TestPairFeatures:
    def test_matches_manual_concat(self):
        model, h, attn, mask2d = grid_parts(n=4)
        store, gc = model.store, model.config.grid
        p = {name: t.data for name, t in store.items()}
        v = conditional_layer_norm(project_subject_object(h, store), store)
        c = pair_features(v, pair_projection(attn, store, gc)).data

        n = 4
        offs = np.arange(n)[None, :] - np.arange(n)[:, None]
        cat = np.concatenate(
            [
                v.data,
                p["grid.dist_emb"][distance_bucket(offs)],
                p["grid.region_emb"][region_ids(n)],
                p["grid.attn_emb"][attention_bucket(attn, gc.attn_buckets)],
            ],
            axis=-1,
        )
        expect = gelu_ref(cat @ p["grid.mlp1.w"] + p["grid.mlp1.b"])
        np.testing.assert_allclose(c, expect, atol=1e-5)


class TestDilatedConvolutions:
    def test_gelu_of_backend_forward(self):
        model, h, attn, mask2d = grid_parts(n=6)
        p, gc = model.store, model.config.grid
        v = conditional_layer_norm(project_subject_object(h, p), p)
        c = pair_features(v, pair_projection(attn, p, gc))
        q = dilated_convolutions(c, mask2d, p, gc).data
        assert q.shape == (6, 6, len(gc.dilations) * gc.d_conv)
        pieces = [
            gelu_ref(kernels.conv2d_forward(
                c.data.astype(np.float64), p[f"grid.conv{dil}.w"].data.astype(np.float64),
                p[f"grid.conv{dil}.b"].data.astype(np.float64), dil))
            for dil in gc.dilations
        ]
        np.testing.assert_allclose(q, np.concatenate(pieces, axis=-1), atol=1e-5)


def test_grid_stage_ignores_padding(rng):
    # Padded rows and attention weights holding arbitrary values, with a
    # matching mask, must not leak into the live block anywhere along
    # CLN -> pair features -> convolutions.
    model, h, attn, _ = grid_parts(n=5, seed=3)
    p, gc = model.store, model.config.grid
    n, pad = 5, 3

    def run(hv, attn2, mask1d):
        mask2d = np.logical_and(mask1d[:, None], mask1d[None, :])
        v = conditional_layer_norm(project_subject_object(Tensor(hv), p), p)
        c = pair_features(v, pair_projection(attn2, p, gc))
        return dilated_convolutions(c, mask2d, p, gc).data

    small = run(h.data, attn, np.ones(n, dtype=bool))
    hv_big = rng.normal(size=(n + pad, h.data.shape[1])).astype(h.data.dtype)
    hv_big[:n] = h.data
    attn_big = rng.random((n + pad, n + pad)).astype(attn.dtype)
    attn_big[:n, :n] = attn
    mask_big = np.array([True] * n + [False] * pad)
    big = run(hv_big, attn_big, mask_big)
    np.testing.assert_allclose(big[:n, :n], small, atol=1e-6)


class TestConfigValidation:
    def test_bucket_floor(self):
        cfg = GridConfig(distance_buckets=18)
        with pytest.raises(CrenerError, match="19"):
            cfg.validate()

    def test_even_kernel_rejected(self):
        with pytest.raises(CrenerError, match="odd"):
            GridConfig(kernel=4).validate()

    def test_duplicate_dilations_rejected(self):
        with pytest.raises(CrenerError, match="dilations"):
            GridConfig(dilations=(1, 1)).validate()

    @pytest.mark.parametrize("dilations", [(-1, 2, 3), (0, 2)])
    def test_dilations_below_one_rejected(self, dilations):
        with pytest.raises(ConfigError, match="grid.dilations must all be >= 1"):
            GridConfig(dilations=dilations).validate()
