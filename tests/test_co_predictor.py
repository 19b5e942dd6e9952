"""Biaffine + MLP co-predictor and the multi-tag threshold loss.

The loss has two algebraically equal writings:

  A: log(1 + sum_neg sum_pos e^{s_n - s_m}
         + sum_neg e^{s_n - s0} + sum_pos e^{s0 - s_m})
  B: log(e^{-s0} + sum_pos e^{-s_m}) + log(e^{s0} + sum_neg e^{s_n})

The implementation computes form B; form A is the cross-check here.
"""

import numpy as np

from conftest import small_model, tag_grid
from crener.autodiff import Tensor
from crener.co_predictor import (
    biaffine_scores,
    fuse_scores,
    mlp_scores,
    multi_tag_loss,
    predict_cells,
)
from crener.corpus import TagVocabulary
from crener.relation_enhance import tag_affine
from scipy.special import erf


def gelu_ref(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def test_biaffine_matches_scalar_loops(rng):
    model, _ = small_model()
    p = {name: t.data for name, t in model.store.items()}
    d = model.config.encoder.d_h
    d_b = model.config.predictor.d_biaffine
    n, n_tags = 4, len(model.tag_vocab)
    h = rng.normal(size=(n, d)).astype(np.float32)
    got = biaffine_scores(Tensor(h), model.store).data

    s = gelu_ref(h @ p["pred.subj.w"] + p["pred.subj.b"])
    o = gelu_ref(h @ p["pred.obj.w"] + p["pred.obj.b"])
    expect = np.zeros((n, n, n_tags))
    for i in range(n):
        for j in range(n):
            for t in range(n_tags):
                expect[i, j, t] = (
                    s[i] @ p["pred.biaffine.u"][:, t, :] @ o[j]
                    + p["pred.biaffine.w"][:d_b, t] @ s[i]
                    + p["pred.biaffine.w"][d_b:, t] @ o[j]
                    + p["pred.biaffine.b"][t]
                )
    np.testing.assert_allclose(got, expect, atol=1e-4)


def test_biaffine_padded_batch_matches_each_sentence(rng):
    # Two sentences of lengths 6 and 4, the second padded to 6: each real
    # block of the batched scores is that sentence's unbatched output.
    model, _ = small_model()
    d = model.config.encoder.d_h
    lengths = (6, 4)
    h = rng.normal(size=(2, 6, d)).astype(np.float32)
    h[1, 4:] = 0.0
    got = biaffine_scores(Tensor(h), model.store).data
    assert got.shape == (2, 6, 6, len(model.tag_vocab))
    for b, n in enumerate(lengths):
        alone = biaffine_scores(Tensor(h[b, :n]), model.store).data
        np.testing.assert_allclose(got[b, :n, :n], alone, atol=1e-4)


def test_biaffine_bilinear_term_superposition(rng):
    # With W and b zeroed the score is bilinear in (s, o); doubling the
    # input to GELU is nonlinear, so probe at the s/o level via U only.
    model, _ = small_model()
    model.store["pred.biaffine.w"].data[:] = 0.0
    model.store["pred.biaffine.b"].data[:] = 0.0
    d = model.config.encoder.d_h
    h = rng.normal(size=(3, d)).astype(np.float32)
    y = biaffine_scores(Tensor(h), model.store).data
    assert np.abs(y).sum() > 0  # U term alive on its own


def test_mlp_matches_manual(rng):
    model, _ = small_model()
    p = {name: t.data for name, t in model.store.items()}
    q = rng.normal(size=(3, 3, p["enh.tag_nnc.w"].shape[0])).astype(np.float32)
    got = mlp_scores(Tensor(q), model.store, tag_affine(model.store)).data
    tf = np.concatenate(
        [q @ p[f"enh.tag_{g}.w"] + p[f"enh.tag_{g}.b"] for g in ("nnc", "pnc", "htc", "thc")], axis=-1)
    expect = gelu_ref(tf @ p["pred.mlp.w1"] + p["pred.mlp.b1"]) @ p["pred.mlp.w2"] + p["pred.mlp.b2"]
    np.testing.assert_allclose(got, expect, atol=1e-5)


def test_fuse_semantics(rng):
    a = Tensor(rng.normal(size=(2, 2, 4)))
    b = Tensor(rng.normal(size=(2, 2, 4)))
    np.testing.assert_array_equal(fuse_scores(a, b).data, a.data + b.data)
    assert fuse_scores(a, None) is a
    assert fuse_scores(None, b) is b


class TestPredictCells:
    def test_threshold_strictly_above(self):
        vocab = TagVocabulary(["A"])
        scores = np.zeros((2, 2, 4), dtype=np.float32)
        scores[0, 1, vocab.nnc_id] = 0.5
        scores[1, 0, vocab.pnc_id] = 0.0  # exactly at threshold: excluded
        scores[1, 1, vocab.thc_id("A")] = -0.1
        grid = predict_cells(Tensor(scores), np.ones((2, 2), bool))
        np.testing.assert_array_equal(grid, tag_grid(2, vocab, [(0, 1, vocab.nnc_id)]))

    def test_custom_threshold(self):
        vocab = TagVocabulary(["A"])
        scores = np.full((1, 1, 4), 0.8, dtype=np.float32)
        grid = predict_cells(Tensor(scores), np.ones((1, 1), bool), s0=0.75)
        assert grid[0, 0].all()
        grid = predict_cells(Tensor(scores), np.ones((1, 1), bool), s0=0.9)
        assert not grid.any()

    def test_masked_cells_yield_nothing(self):
        vocab = TagVocabulary(["A"])
        scores = np.full((2, 2, 4), 5.0, dtype=np.float32)
        mask2d = np.array([[True, False], [False, False]])
        grid = predict_cells(Tensor(scores), mask2d)
        np.testing.assert_array_equal(grid.any(axis=-1), mask2d)

    def test_matches_per_cell_loop(self, rng):
        vocab = TagVocabulary(["A", "B"])
        n = 7
        scores = rng.normal(size=(n, n, len(vocab))).astype(np.float32)
        mask2d = rng.random((n, n)) < 0.7
        expect = tag_grid(n, vocab)
        for i, j in zip(*np.nonzero(mask2d)):
            expect[i, j] = scores[i, j] > 0.0
        grid = predict_cells(Tensor(scores), mask2d)
        np.testing.assert_array_equal(grid, expect)


class TestLoss:
    def test_frozen_single_positive(self):
        # One gold tag at score 10, the only other tag pushed to -1e9 so
        # the negative term vanishes: loss = log(1 + e^-10).
        vocab = TagVocabulary([])
        gold = tag_grid(1, vocab, [(0, 0, vocab.nnc_id)])
        fused = Tensor(np.array([[[10.0, -1e9]]]))
        loss = multi_tag_loss(fused, gold, np.ones((1, 1), bool))
        np.testing.assert_allclose(loss.item(), 4.5399e-5, rtol=1e-3)

    def test_empty_cell_with_low_scores_costs_nothing(self):
        vocab = TagVocabulary(["A"])
        fused = Tensor(np.full((1, 1, 4), -50.0))
        loss = multi_tag_loss(fused, tag_grid(1, vocab), np.ones((1, 1), bool))
        assert loss.item() < 1e-15

    def test_dual_form_identity(self, rng):
        for _ in range(200):
            n_types = int(rng.integers(0, 3))
            vocab = TagVocabulary([chr(65 + i) for i in range(n_types)])
            n_tags = len(vocab)
            s0 = float(rng.normal()) if rng.random() < 0.5 else 0.0
            scores = rng.normal(scale=3.0, size=n_tags)
            n_pos = int(rng.integers(0, n_tags + 1))
            pos_ids = rng.choice(n_tags, size=n_pos, replace=False)
            gold = tag_grid(1, vocab, [(0, 0, t) for t in pos_ids])
            fused = Tensor(scores.reshape(1, 1, n_tags).astype(np.float64))
            got = multi_tag_loss(fused, gold, np.ones((1, 1), bool), s0=s0).item()

            pos = scores[sorted(pos_ids)]
            neg = np.delete(scores, sorted(pos_ids))
            form_a = np.log1p(
                np.exp(neg[:, None] - pos[None, :]).sum()
                + np.exp(neg - s0).sum()
                + np.exp(s0 - pos).sum()
            )
            assert abs(got - form_a) <= 1e-9, (scores, pos_ids, s0)

    def test_monotone_in_scores(self):
        vocab = TagVocabulary(["A"])
        gold = tag_grid(1, vocab, [(0, 0, vocab.thc_id("A"))])
        base = np.zeros((1, 1, 4))

        def loss_at(delta_pos=0.0, delta_neg=0.0):
            s = base.copy()
            s[0, 0, vocab.thc_id("A")] += delta_pos
            s[0, 0, vocab.nnc_id] += delta_neg
            return multi_tag_loss(Tensor(s), gold, np.ones((1, 1), bool)).item()

        assert loss_at(delta_pos=1.0) < loss_at()
        assert loss_at(delta_neg=1.0) > loss_at()

    def test_reduction_mean_vs_sum(self):
        model, sents = small_model(double=True)
        total, cells = model.batch_loss([sents[0]])
        mean, mean_cells = model.sentence_loss(sents[0])
        assert mean_cells == cells == len(sents[0]) ** 2
        assert mean.item() == total.item() * (1.0 / cells)

    def test_masked_cells_contribute_nothing(self, rng):
        vocab = TagVocabulary(["A"])
        gold = tag_grid(2, vocab)
        mask2d = np.array([[True, True], [True, False]])
        fused = rng.normal(size=(2, 2, 4))
        base = multi_tag_loss(Tensor(fused.copy()), gold, mask2d).item()
        fused[1, 1] = 100.0
        spiked = multi_tag_loss(Tensor(fused), gold, mask2d).item()
        np.testing.assert_allclose(base, spiked, rtol=1e-12)

    def test_gold_tags_are_the_only_positives(self, rng):
        # Each unmasked gold tag's score is pushed up and every other
        # unmasked score down. A gold tag under the mask joins no positive
        # term: even at -inf, which as a positive would make that term
        # inf - inf, its score leaves the loss and every gradient as
        # without the tag.
        vocab = TagVocabulary(["A"])
        mask2d = np.array([[True, True], [True, False]])
        fused = rng.normal(size=(2, 2, 4))
        fused[1, 1, vocab.htc_id("A")] = -np.inf
        gold = tag_grid(2, vocab, [(0, 1, vocab.nnc_id)])
        masked_gold = tag_grid(2, vocab, [(0, 1, vocab.nnc_id), (1, 1, vocab.htc_id("A"))])
        runs = []
        for g in (gold, masked_gold):
            t = Tensor(fused.copy(), requires_grad=True)
            loss = multi_tag_loss(t, g, mask2d)
            loss.backward()
            runs.append((loss.item(), t.grad))
        assert np.isfinite(runs[0][0]) and runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        grad = runs[1][1]
        np.testing.assert_array_equal(grad < 0, gold)
        np.testing.assert_array_equal(grad > 0, ~gold & mask2d[..., None])
