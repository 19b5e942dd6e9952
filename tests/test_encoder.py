"""Encoder: concatenated embeddings, relative-position tables, and the
direction-aware self-attention block.

The attention oracle below recomputes the pre-softmax scores with plain
scalar loops; the vectorized path must reproduce it head by head.
"""

import dataclasses

import numpy as np
import pytest

from conftest import small_model
from crener import autodiff as ad
from crener.autodiff import Tensor
from crener.corpus import Sentence
from crener.encoder import (
    EncoderConfig,
    _embed_with_attention,
    adapted_attention,
    draw_dropout,
    encode,
    load_sidecar_vectors,
    relative_position_table,
)
from crener.errors import ConfigError, CorpusError
from oracles import relative_position_embedding


class TestRelativeEmbedding:
    def test_frozen_values_at_offset_one(self):
        # d_model = 4, offset +1: [sin(1), cos(1), sin(0.01), cos(0.01)].
        r = relative_position_embedding(2, 4)
        np.testing.assert_allclose(
            r[1, 0], [0.84147, 0.54030, 0.0099998, 0.99995], atol=5e-5
        )

    def test_zero_offset_rows(self):
        r = relative_position_embedding(3, 4)
        np.testing.assert_array_equal(r[1, 1], [0.0, 1.0, 0.0, 1.0])

    def test_shift_invariance_exact(self):
        r = relative_position_embedding(6, 8)
        np.testing.assert_array_equal(r[:-1, :-1], r[1:, 1:])

    def test_direction_asymmetry(self):
        r = relative_position_embedding(5, 8)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert not np.allclose(r[i, j], r[j, i])
        # sin components flip sign, cos components match
        np.testing.assert_allclose(r[2, 0][0::2], -r[0, 2][0::2], atol=1e-12)
        np.testing.assert_allclose(r[2, 0][1::2], r[0, 2][1::2], atol=1e-12)

    def test_odd_width_ends_with_a_sine(self):
        # d_model = 5: two sin/cos pairs, then the sine of the third frequency.
        r = relative_position_embedding(3, 5)
        assert r.shape == (3, 3, 5)
        np.testing.assert_array_equal(r[1, 1], [0.0, 1.0, 0.0, 1.0, 0.0])
        freqs = 10000.0 ** (-2.0 * np.arange(3) / 5)
        expect = np.stack([np.sin(2 * freqs), np.cos(2 * freqs)], axis=-1).ravel()[:5]
        np.testing.assert_allclose(r[2, 0], expect, atol=1e-15)


class TestEmbedding:
    def test_width_and_masked_rows(self):
        model, _ = small_model()
        ids = np.array([2, 3, 4, 0, 0])
        mask = np.array([True, True, True, False, False])
        h, _ = _embed_with_attention(ids, mask, model.store, model.config.encoder)
        assert h.shape == (5, model.config.encoder.d_h)
        assert np.abs(h.data[:3]).sum() > 0
        # Masked rows hold whatever their ids give them and reach no real row.
        other, _ = _embed_with_attention(
            np.array([2, 3, 4, 1, 2]), mask, model.store, model.config.encoder)
        assert not np.array_equal(other.data[3:], h.data[3:])
        np.testing.assert_array_equal(other.data[:3], h.data[:3])

    def test_provided_context_vectors_replace_lookup(self):
        model, _ = small_model()
        cfg = model.config.encoder
        ids = np.array([2, 3])
        mask = np.ones(2, dtype=bool)
        vecs = np.full((2, cfg.d_context), 0.25, dtype=np.float32)
        h, _ = _embed_with_attention(ids, mask, model.store, cfg, context_vectors=vecs)
        np.testing.assert_allclose(h.data[:, : cfg.d_context], 0.25, atol=1e-6)

    def test_max_len_enforced(self):
        # The model's input builder is the one check; the encoder trusts it.
        model, sents = small_model()
        n = model.config.encoder.max_len + 1
        long = Sentence("long", [sents[0].chars[0]] * n, [])
        with pytest.raises(CorpusError, match="'long' has 33 characters, more than encoder.max_len 32"):
            model.sentence_inputs(long)


def test_adapted_scores_match_scalar_loops(rng):
    model, _ = small_model()
    cfg = model.config.encoder
    w = {name: model.store["enc0." + name].data for name in ("wq", "wk", "wkr", "u", "v")}
    n, d, heads = 6, cfg.d_h, cfg.heads
    dh = d // heads
    mask = np.array([True] * 5 + [False])
    hvals = rng.normal(size=(n, d)).astype(np.float32)
    hvals[~mask] = 0.0

    rel = relative_position_embedding(n, d).astype(np.float32)
    _, attn = adapted_attention(Tensor(hvals), mask, model.store, 0, cfg,
                                relative_position_table(n, d, np.float32))

    q = hvals @ w["wq"]
    k = hvals @ w["wk"]
    relp = rel.reshape(n * n, d) @ w["wkr"]
    relp = relp.reshape(n, n, d)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        u_h, v_h = w["u"][sl], w["v"][sl]
        scores = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                scores[i, j] = (
                    q[i, sl] @ k[j, sl]
                    + q[i, sl] @ relp[i, j, sl]
                    + u_h @ k[j, sl]
                    + v_h @ rel[i, j, sl]
                )
        # no 1/sqrt(d_k): softmax directly over unmasked columns
        e = np.exp(scores[:, mask] - scores[:, mask].max(axis=1, keepdims=True))
        expect = np.zeros((n, n))
        expect[:, mask] = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(attn[h], expect, atol=1e-5)


def test_adapted_attention_padded_batch_matches_each_sentence(rng):
    # Lengths 6 and 4 in one padded batch: each sentence's real rows and
    # attention block match its unbatched, unpadded run.
    model, _ = small_model()
    cfg = model.config.encoder
    lengths = (6, 4)
    mask = np.arange(6)[None, :] < np.array(lengths)[:, None]
    hvals = rng.normal(size=(2, 6, cfg.d_h)).astype(np.float32)
    hvals[~mask] = 0.0

    out, attn = adapted_attention(
        Tensor(hvals), mask, model.store, 0, cfg,
        relative_position_table(6, cfg.d_h, np.float32))
    assert attn.shape == (2, cfg.heads, 6, 6)
    for b, n in enumerate(lengths):
        alone, alone_attn = adapted_attention(
            Tensor(hvals[b, :n]), mask[b, :n], model.store, 0, cfg,
            relative_position_table(n, cfg.d_h, np.float32))
        np.testing.assert_allclose(attn[b, :, :n, :n], alone_attn, atol=1e-5)
        np.testing.assert_array_equal(attn[b, :, :, n:], 0.0)
        np.testing.assert_allclose(out.data[b, :n], alone.data, atol=1e-5)


def test_scaling_flag_divides_scores(rng):
    model, _ = small_model()
    cfg, store = model.config.encoder, model.store
    n = 5
    mask = np.ones(n, dtype=bool)
    hvals = rng.normal(size=(n, cfg.d_h)).astype(np.float32)

    table = relative_position_table(n, cfg.d_h, np.float32)
    _, plain = adapted_attention(Tensor(hvals.copy()), mask, store, 0, cfg, table)
    _, scaled = adapted_attention(Tensor(hvals.copy()), mask, store, 0, cfg, table, use_scaling=True)
    assert not np.allclose(plain, scaled)
    # Scaling flattens: average row entropy goes up.
    def entropy(w):
        p = np.clip(w, 1e-12, None)
        return float(-(p * np.log(p)).sum(axis=-1).mean())

    assert entropy(scaled) > entropy(plain)


def test_unscaled_softmax_is_sharper_on_random_scores(rng):
    # With d_k = 64 and N(0,1) entries, q.k has std sqrt(64); dividing by
    # sqrt(d_k) must raise the mean row entropy in (nearly) every trial.
    d_k, n, trials = 64, 8, 100
    wins = 0
    means = []
    for _ in range(trials):
        q = rng.normal(size=(n, d_k))
        k = rng.normal(size=(n, d_k))
        s = q @ k.T

        def entropy(scores):
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return (-p * np.log(np.clip(p, 1e-300, None))).sum(axis=1).mean()

        unscaled = entropy(s)
        scaled = entropy(s / np.sqrt(d_k))
        means.append(scaled - unscaled)
        wins += scaled > unscaled
    assert wins == trials
    assert np.mean(means) > 0


class TestEncode:
    def test_attention_rows_stochastic_and_masked_zero(self):
        model, sents = small_model()
        ids, mask, _ = model.sentence_inputs(sents[0], pad_to=len(sents[0]) + 3)
        _, attn = encode(ids, mask, model.store, model.config.encoder)
        n_real = int(mask.sum())
        np.testing.assert_allclose(attn[:n_real].sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_array_equal(attn[:, ~mask], 0.0)

    def test_padding_does_not_change_real_rows(self):
        model, sents = small_model()
        s = sents[0]
        ids, mask, _ = model.sentence_inputs(s)
        ids_p, mask_p, _ = model.sentence_inputs(s, pad_to=len(s) + 5)
        h, attn = encode(ids, mask, model.store, model.config.encoder)
        h_p, attn_p = encode(ids_p, mask_p, model.store, model.config.encoder)
        n = len(s)
        np.testing.assert_allclose(h_p.data[:n], h.data, atol=1e-6)
        np.testing.assert_allclose(attn_p[:n, :n], attn, atol=1e-6)

    def test_skip_adapted_returns_raw_embedding(self):
        """No layers (`encoder.layers = 0`, the no-adapted-transformer
        ablation) leave the raw embedding."""
        model, sents = small_model()
        cfg = model.config.encoder
        ids, mask, _ = model.sentence_inputs(sents[0])
        skipped, _ = encode(ids, mask, model.store, dataclasses.replace(cfg, layers=0))
        raw, _ = _embed_with_attention(ids, mask, model.store, cfg)
        np.testing.assert_array_equal(skipped.data, raw.data)
        full, _ = encode(ids, mask, model.store, cfg)
        assert not np.allclose(full.data, raw.data)

    def test_dropout_only_when_rng_given(self):
        model, sents = small_model()
        cfg = model.config.encoder
        cfg.dropout = 0.3
        ids, mask, _ = model.sentence_inputs(sents[0])
        a, _ = encode(ids, mask, model.store, cfg)
        b, _ = encode(ids, mask, model.store, cfg)
        np.testing.assert_array_equal(a.data, b.data)
        keep = draw_dropout(np.random.default_rng(0), len(ids), cfg, model.store.dtype)
        c, _ = encode(ids, mask, model.store, cfg, dropout=keep)
        assert not np.allclose(a.data, c.data)


class TestSidecar:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text(
            '{"id": "s1", "vectors": [[1, 2], [3, 4]]}\n'
            '{"id": "s2", "vectors": [[5, 6]]}\n'
        )
        table = load_sidecar_vectors(path, 2)
        assert set(table) == {"s1", "s2"}
        np.testing.assert_array_equal(table["s1"], [[1, 2], [3, 4]])

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id": "s1", "vectors": [[1, 2, 3]]}\n')
        with pytest.raises(CorpusError, match="expected"):
            load_sidecar_vectors(path, 2)

    def test_bad_json_line_number(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id": "s1", "vectors": [[1, 2]]}\n{oops\n')
        with pytest.raises(CorpusError, match=":2"):
            load_sidecar_vectors(path, 2)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e39"])
    def test_non_finite_rejected(self, tmp_path, value):
        # json reads NaN and Infinity; -1e39 is finite but beyond float32.
        path = tmp_path / "vectors.jsonl"
        path.write_text(
            '{"id": "s1", "vectors": [[1, 2]]}\n'
            f'{{"id": "s2", "vectors": [[1, {value}]]}}\n'
        )
        with pytest.raises(CorpusError, match=r"vectors.jsonl:2: vectors for 's2' are not all"):
            load_sidecar_vectors(path, 2)


def test_config_divisibility_check():
    cfg = EncoderConfig(d_context=8, d_pos=4, d_region=2, d_attn=2, heads=3)
    with pytest.raises(ConfigError, match="divisible"):
        cfg.validate()
