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
    p = model.store
    dr = model.config.enhance.d_r
    q = Tensor(rng.normal(size=(4, 4, p["enh.tag_nnc.w"].shape[0])).astype(np.float32))
    tf = enh.tag_features(q, enh.tag_affine(p)).data
    assert tf.shape == (4, 4, 4 * dr)
    for g, group in enumerate(("nnc", "pnc", "htc", "thc")):
        w, b = p[f"enh.tag_{group}.w"].data, p[f"enh.tag_{group}.b"].data
        np.testing.assert_allclose(tf[:, :, g * dr:(g + 1) * dr], q.data @ w + b, atol=1e-5)


def test_tag_features_padded_batch_matches_each_sentence(rng):
    model, _, _, _ = setup()
    p = model.store
    lengths = (6, 4)
    q = rng.normal(size=(2, 6, 6, p["enh.tag_nnc.w"].shape[0])).astype(np.float32)
    q[1, 4:] = 0.0
    q[1, :, 4:] = 0.0
    tf = enh.tag_features(Tensor(q), enh.tag_affine(p)).data
    assert tf.shape == (2, 6, 6, 4 * model.config.enhance.d_r)
    for b, n in enumerate(lengths):
        alone = enh.tag_features(Tensor(q[b, :n, :n]), enh.tag_affine(p)).data
        np.testing.assert_allclose(tf[b, :n, :n], alone, atol=1e-5)


class TestPoolRecover:
    def test_max_pool_oracle(self, rng):
        model, _, _, mask = setup(n=4)
        p = {name: t.data for name, t in model.store.items()}
        d4 = 4 * model.config.enhance.d_r
        tf = Tensor(rng.normal(size=(4, 4, d4)).astype(np.float32))
        h = enh.pool_recover(tf, mask, model.store)
        h_s, h_o = h[0], h[1]
        np.testing.assert_allclose(
            h_s.data,
            gelu_ref(tf.data.max(axis=1) @ p["enh.pool_s.w"] + p["enh.pool_s.b"]),
            atol=1e-5,
        )
        np.testing.assert_allclose(
            h_o.data,
            gelu_ref(tf.data.max(axis=0) @ p["enh.pool_o.w"] + p["enh.pool_o.b"]),
            atol=1e-5,
        )

    def test_masked_cells_never_win(self, rng):
        model, _, _, _ = setup(n=5)
        p = model.store
        d4 = 4 * model.config.enhance.d_r
        mask = np.array([True, True, True, False, False])
        tf = rng.normal(size=(5, 5, d4)).astype(np.float32)
        base = enh.pool_recover(Tensor(tf.copy()), mask, p)
        base_s, base_o = base[0], base[1]
        spiked = tf.copy()
        spiked[3:, :, :] = 1e6  # masked rows
        spiked[:, 3:, :] = 1e6  # masked columns
        got = enh.pool_recover(Tensor(spiked), mask, p)
        got_s, got_o = got[0], got[1]
        np.testing.assert_array_equal(got_s.data, base_s.data)
        np.testing.assert_array_equal(got_o.data, base_o.data)
        np.testing.assert_array_equal(got_s.data[3:], 0.0)
        np.testing.assert_array_equal(got_o.data[3:], 0.0)


def test_attention_stage_scalar_oracle(rng):
    model, _, _, _ = setup()
    p = {name: t.data for name, t in model.store.items()}
    cfg = model.config.enhance
    d = model.config.encoder.d_h
    n, heads = 4, cfg.heads
    dh = d // heads
    mask = np.array([True, True, True, False])
    q_in = rng.normal(size=(n, d)).astype(np.float32)
    kv_in = rng.normal(size=(n, d)).astype(np.float32)
    out = enh._multi_head_attention(
        Tensor(q_in), Tensor(kv_in), mask, model.store, "self", heads
    ).data

    q = q_in @ p["enh.self.wq"]
    k = kv_in @ p["enh.self.wk"]
    v = kv_in @ p["enh.self.wv"]
    merged = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        e = np.exp(scores[:, mask] - scores[:, mask].max(axis=1, keepdims=True))
        w = np.zeros((n, n))
        w[:, mask] = e / e.sum(axis=1, keepdims=True)
        merged[:, sl] = w @ v[:, sl]
    np.testing.assert_allclose(out, merged @ p["enh.self.wo"], atol=1e-4)


def test_enhance_round_matches_manual_composition(rng):
    from crener import autodiff as ad

    model, _, _, mask = setup(n=4)
    p = model.store
    cfg = model.config.enhance
    d = model.config.encoder.d_h
    h_s_r = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    h_o_r = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    h_s0 = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    h_o0 = Tensor(rng.normal(size=(4, d)).astype(np.float32))
    got_s, got_o = enh.enhance_round(
        Tensor(np.stack([h_s_r.data, h_o_r.data])), Tensor(np.stack([h_s0.data, h_o0.data])),
        mask, p, cfg,
    ).data

    def stage(x, kv, name):
        return enh._multi_head_attention(x, kv, mask, p, name, cfg.heads)

    def fuse(h_r, ct, side):
        out = gelu_ref(ct.data @ p[f"enh.out_{side}.w"].data + p[f"enh.out_{side}.b"].data)
        return ad.layer_norm(h_r + Tensor(out), p[f"enh.ln_{side}.g"], p[f"enh.ln_{side}.b"])

    s_exp = fuse(h_s_r, stage(stage(h_s_r, h_s_r, "self"), h_s0, "cross"), "s")
    np.testing.assert_allclose(got_s, s_exp.data, atol=1e-5)

    o_exp = fuse(h_o_r, stage(stage(h_o_r, h_o_r, "self"), h_o0, "cross"), "o")
    np.testing.assert_allclose(got_o, o_exp.data, atol=1e-5)


class TestRunEnhancement:
    def run(self, model, h, attn, mask, rounds=None):
        """The loop as a model with `enhance.rounds = rounds` runs it, on
        `model`'s weights; one round reads no enhancement weight."""
        config = model.config.enhance
        if rounds is not None:
            config = dataclasses.replace(config, rounds=rounds)
        return enh.run_enhancement(h, mask, attn, model.store, model.config.grid, config,
                                   enh.tag_affine(model.store))

    def grid_pass(self, model, pair, attn, mask):
        """One round's convolved grid Q from its subject/object pair."""
        gp, gc = model.store, model.config.grid
        mask2d = np.logical_and(mask[:, None], mask[None, :])
        v = grid_mod.conditional_layer_norm(pair, gp)
        c = grid_mod.pair_features(v, grid_mod.pair_projection(attn, gp, gc))
        return grid_mod.dilated_convolutions(c, mask2d, gp, gc)

    def test_round_loop_matches_manual_replay(self):
        model, h, attn, mask = setup()
        q = self.run(model, h, attn, mask, rounds=2)

        pair0 = grid_mod.project_subject_object(h, model.store)
        q0 = self.grid_pass(model, pair0, attn, mask)
        tf0 = enh.tag_features(q0, enh.tag_affine(model.store))
        recovered = enh.pool_recover(tf0, mask, model.store)
        pair1 = enh.enhance_round(recovered, pair0, mask, model.store, model.config.enhance)
        q_exp = self.grid_pass(model, pair1, attn, mask)
        np.testing.assert_allclose(q.data, q_exp.data, atol=1e-5)

    def test_feedback_changes_later_rounds(self):
        model, h, attn, mask = setup()
        q1 = self.run(model, h, attn, mask, rounds=1)
        q2 = self.run(model, h, attn, mask, rounds=2)
        assert q1.shape == q2.shape
        assert not np.allclose(q1.data, q2.data)

    def test_disabled_enhancement_is_single_grid_pass(self):
        """One round, the paper's no-enhancement ablation, is one grid pass
        over the round-0 projections."""
        model, h, attn, mask = setup()
        q = self.run(model, h, attn, mask, rounds=1)
        pair0 = grid_mod.project_subject_object(h, model.store)
        np.testing.assert_array_equal(q.data, self.grid_pass(model, pair0, attn, mask).data)

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

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_forward_builds_tag_features_only_before_the_last_round(self, monkeypatch, rounds):
        """The last round's tag features are folded into the MLP head's first
        layer, so a whole forward never builds that round's tag-feature grid."""
        calls = []
        original = enh.tag_features

        def counted(q, tag_map):
            calls.append(q.shape)
            return original(q, tag_map)

        monkeypatch.setattr(enh, "tag_features", counted)
        cfg = small_config()
        cfg.enhance.rounds = rounds
        model, sents = small_model(config=cfg)
        ids, mask, _ = model.sentence_inputs(sents[0])
        model.forward(ids, mask)
        assert len(calls) == rounds - 1

    def test_forward_projects_the_index_embeddings_once(self, monkeypatch):
        """The index embeddings are the same in every round, so a forward
        projects them once and every round's pair features read that one
        projection."""
        projections, reads = [], []
        project, features = grid_mod.pair_projection, grid_mod.pair_features

        def counted_projection(*args):
            projections.append(project(*args))
            return projections[-1]

        def counted_features(v, projection):
            reads.append(projection)
            return features(v, projection)

        monkeypatch.setattr(grid_mod, "pair_projection", counted_projection)
        monkeypatch.setattr(grid_mod, "pair_features", counted_features)
        cfg = small_config()
        cfg.enhance.rounds = 3
        model, sents = small_model(config=cfg)
        ids, mask, _ = model.sentence_inputs(sents[0])
        model.forward(ids, mask)
        assert len(projections) == 1 and len(reads) == 3
        assert all(read is projections[0] for read in reads)

    def test_default_round_count_comes_from_config(self):
        model, h, attn, mask = setup()
        q_default = self.run(model, h, attn, mask)
        q2 = self.run(model, h, attn, mask, rounds=model.config.enhance.rounds)
        np.testing.assert_array_equal(q_default.data, q2.data)

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
