"""Relation enhancement: tag-group features, max-pool recovery, the
shared attention stages, and the round loop that feeds refined
subject/object vectors back into grid construction."""

import dataclasses

import numpy as np
import pytest
from scipy.special import erf

from conftest import small_config, small_model
from crener import grid as grid_mod
from crener import relation_enhance as enh
from crener.autodiff import Tensor
from crener.errors import CrenerError


def gelu_ref(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def setup(n=5, seed=7):
    model, _ = small_model()
    rng = np.random.default_rng(seed)
    d = model.config.encoder.d_h
    h = Tensor(rng.normal(size=(n, d)).astype(np.float32))
    attn = rng.random((n, n)).astype(np.float32)
    mask = np.ones(n, dtype=bool)
    return model, h, attn, mask


def test_tag_features_is_ordered_concat(rng):
    model, _, _, _ = setup()
    p = model.tag_params
    dr = model.config.enhance.d_r
    q = Tensor(rng.normal(size=(4, 4, p.tag_nnc_w.shape[0])).astype(np.float32))
    tf = enh.tag_features(q, p).data
    assert tf.shape == (4, 4, 4 * dr)
    groups = [
        (p.tag_nnc_w, p.tag_nnc_b),
        (p.tag_pnc_w, p.tag_pnc_b),
        (p.tag_htc_w, p.tag_htc_b),
        (p.tag_thc_w, p.tag_thc_b),
    ]
    for g, (w, b) in enumerate(groups):
        np.testing.assert_allclose(
            tf[:, :, g * dr:(g + 1) * dr], q.data @ w.data + b.data, atol=1e-5
        )


def test_tag_features_padded_batch_matches_each_sentence(rng):
    model, _, _, _ = setup()
    p = model.tag_params
    lengths = (6, 4)
    q = rng.normal(size=(2, 6, 6, p.tag_nnc_w.shape[0])).astype(np.float32)
    q[1, 4:] = 0.0
    q[1, :, 4:] = 0.0
    tf = enh.tag_features(Tensor(q), p).data
    assert tf.shape == (2, 6, 6, 4 * model.config.enhance.d_r)
    for b, n in enumerate(lengths):
        alone = enh.tag_features(Tensor(q[b, :n, :n]), p).data
        np.testing.assert_allclose(tf[b, :n, :n], alone, atol=1e-5)


class TestPoolRecover:
    def test_max_pool_oracle(self, rng):
        model, _, _, mask = setup(n=4)
        p = model.enhance_params
        d4 = 4 * model.config.enhance.d_r
        tf = Tensor(rng.normal(size=(4, 4, d4)).astype(np.float32))
        h_s, h_o = enh.pool_recover(tf, mask, p)
        np.testing.assert_allclose(
            h_s.data,
            gelu_ref(tf.data.max(axis=1) @ p.pool_s_w.data + p.pool_s_b.data),
            atol=1e-5,
        )
        np.testing.assert_allclose(
            h_o.data,
            gelu_ref(tf.data.max(axis=0) @ p.pool_o_w.data + p.pool_o_b.data),
            atol=1e-5,
        )

    def test_masked_cells_never_win(self, rng):
        model, _, _, _ = setup(n=5)
        p = model.enhance_params
        d4 = 4 * model.config.enhance.d_r
        mask = np.array([True, True, True, False, False])
        tf = rng.normal(size=(5, 5, d4)).astype(np.float32)
        base_s, base_o = enh.pool_recover(Tensor(tf.copy()), mask, p)
        spiked = tf.copy()
        spiked[3:, :, :] = 1e6  # masked rows
        spiked[:, 3:, :] = 1e6  # masked columns
        got_s, got_o = enh.pool_recover(Tensor(spiked), mask, p)
        np.testing.assert_array_equal(got_s.data, base_s.data)
        np.testing.assert_array_equal(got_o.data, base_o.data)
        np.testing.assert_array_equal(got_s.data[3:], 0.0)
        np.testing.assert_array_equal(got_o.data[3:], 0.0)


def test_attention_stage_scalar_oracle(rng):
    model, _, _, _ = setup()
    p = model.enhance_params
    cfg = model.config.enhance
    d = model.config.encoder.d_h
    n, heads = 4, cfg.heads
    dh = d // heads
    mask = np.array([True, True, True, False])
    q_in = rng.normal(size=(n, d)).astype(np.float32)
    kv_in = rng.normal(size=(n, d)).astype(np.float32)
    out = enh._multi_head_attention(
        Tensor(q_in), Tensor(kv_in), mask,
        p.self_wq, p.self_wk, p.self_wv, p.self_wo, heads,
    ).data

    q = q_in @ p.self_wq.data
    k = kv_in @ p.self_wk.data
    v = kv_in @ p.self_wv.data
    merged = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        e = np.exp(scores[:, mask] - scores[:, mask].max(axis=1, keepdims=True))
        w = np.zeros((n, n))
        w[:, mask] = e / e.sum(axis=1, keepdims=True)
        merged[:, sl] = w @ v[:, sl]
    np.testing.assert_allclose(out, merged @ p.self_wo.data, atol=1e-4)


def test_enhance_round_matches_manual_composition(rng):
    from crener import autodiff as ad

    model, _, _, mask = setup(n=4)
    p = model.enhance_params
    cfg = model.config.enhance
    d = model.config.encoder.d_h
    h_s_r = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    h_o_r = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    h_s0 = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    h_o0 = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    got_s, got_o = enh.enhance_round(h_s_r, h_o_r, h_s0, h_o0, mask, p, cfg)

    def stage(x, kv, wq, wk, wv, wo):
        return enh._multi_head_attention(x, kv, mask, wq, wk, wv, wo, cfg.heads)

    s_tt = stage(h_s_r, h_s_r, p.self_wq, p.self_wk, p.self_wv, p.self_wo)
    s_ct = stage(s_tt, h_s0, p.cross_wq, p.cross_wk, p.cross_wv, p.cross_wo)
    s_exp = ad.layer_norm(
        h_s_r + ad.gelu(s_ct @ p.out_s_w + p.out_s_b), p.ln_s_g, p.ln_s_b
    )
    np.testing.assert_allclose(got_s.data, s_exp.data, atol=1e-5)

    o_tt = stage(h_o_r, h_o_r, p.self_wq, p.self_wk, p.self_wv, p.self_wo)
    o_ct = stage(o_tt, h_o0, p.cross_wq, p.cross_wk, p.cross_wv, p.cross_wo)
    o_exp = ad.layer_norm(
        h_o_r + ad.gelu(o_ct @ p.out_o_w + p.out_o_b), p.ln_o_g, p.ln_o_b
    )
    np.testing.assert_allclose(got_o.data, o_exp.data, atol=1e-5)


class TestRunEnhancement:
    def run(self, model, h, attn, mask, rounds=None):
        """The loop as a model with `enhance.rounds = rounds` runs it, on
        `model`'s weights; one round has no enhancement weights."""
        config = model.config.enhance
        if rounds is not None:
            config = dataclasses.replace(config, rounds=rounds)
        return enh.run_enhancement(
            h, mask, attn, model.grid_params, model.tag_params,
            model.enhance_params if config.rounds > 1 else None,
            model.config.grid, config,
        )

    def grid_pass(self, model, h_s, h_o, attn, mask):
        gp, gc = model.grid_params, model.config.grid
        mask2d = np.logical_and(mask[:, None], mask[None, :])
        v = grid_mod.conditional_layer_norm(h_s, h_o, gp)
        c = grid_mod.pair_features(v, attn, gp, gc)
        q = grid_mod.dilated_convolutions(c, mask2d, gp, gc)
        return enh.tag_features(q, model.tag_params)

    def test_round_loop_matches_manual_replay(self):
        model, h, attn, mask = setup()
        tf = self.run(model, h, attn, mask, rounds=2)

        h_s0, h_o0 = grid_mod.project_subject_object(h, model.grid_params)
        tf0 = self.grid_pass(model, h_s0, h_o0, attn, mask)
        hs_r, ho_r = enh.pool_recover(tf0, mask, model.enhance_params)
        cs, co = enh.enhance_round(
            hs_r, ho_r, h_s0, h_o0, mask,
            model.enhance_params, model.config.enhance,
        )
        tf_exp = self.grid_pass(model, cs, co, attn, mask)
        np.testing.assert_allclose(tf.data, tf_exp.data, atol=1e-5)

    def test_feedback_changes_later_rounds(self):
        model, h, attn, mask = setup()
        tf1 = self.run(model, h, attn, mask, rounds=1)
        tf2 = self.run(model, h, attn, mask, rounds=2)
        assert tf1.shape == tf2.shape
        assert not np.allclose(tf1.data, tf2.data)

    def test_disabled_enhancement_is_single_grid_pass(self):
        """One round, the paper's no-enhancement ablation, is one grid pass
        over the round-0 projections."""
        model, h, attn, mask = setup()
        tf = self.run(model, h, attn, mask, rounds=1)
        h_s0, h_o0 = grid_mod.project_subject_object(h, model.grid_params)
        np.testing.assert_array_equal(
            tf.data, self.grid_pass(model, h_s0, h_o0, attn, mask).data
        )

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_only_rounds_before_the_last_enhance(self, monkeypatch, rounds):
        calls = {"pool_recover": 0, "enhance_round": 0}
        for name in calls:
            original = getattr(enh, name)

            def counted(*args, _name=name, _fn=original, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(enh, name, counted)
        model, h, attn, mask = setup()
        self.run(model, h, attn, mask, rounds=rounds)
        assert calls == {"pool_recover": rounds - 1, "enhance_round": rounds - 1}

    def test_default_round_count_comes_from_config(self):
        model, h, attn, mask = setup()
        tf_default = self.run(model, h, attn, mask)
        tf2 = self.run(model, h, attn, mask, rounds=model.config.enhance.rounds)
        np.testing.assert_array_equal(tf_default.data, tf2.data)

    def test_rejects_zero_rounds(self):
        cfg = small_config()
        cfg.enhance.rounds = 0
        with pytest.raises(CrenerError, match="enhance.rounds"):
            small_model(config=cfg)

    def test_deterministic(self):
        model, h, attn, mask = setup()
        a = self.run(model, h, attn, mask)
        b = self.run(model, h, attn, mask)
        np.testing.assert_array_equal(a.data, b.data)
