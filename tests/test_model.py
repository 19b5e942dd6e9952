"""Model assembly: parameter registry, forward wiring, ablation routing,
and gradient flow through the whole stack."""

import numpy as np
import pytest

from conftest import small_config, small_model
from crener import co_predictor as pred_mod
from crener.config import apply_overrides, set_key
from crener.corpus import CharVocabulary, Sentence, build_tag_vocabulary, encode_grid
from crener.encoder import encode
from crener.errors import ConfigError, CorpusError
from crener.model import CrenerModel
from crener.relation_enhance import run_enhancement


EXPECTED_GROUP_PREFIXES = [
    "embed.context", "embed.position", "embed.region", "embed.attn.",
    "enc0.", "grid.subj.", "grid.obj.", "grid.cln.", "grid.dist_emb",
    "grid.region_emb", "grid.attn_emb", "grid.mlp1.", "grid.conv",
    "enh.tag_", "enh.pool_", "enh.self.", "enh.cross.", "enh.out_",
    "enh.ln_", "pred.subj.", "pred.obj.", "pred.biaffine.", "pred.mlp.",
]


def test_every_parameter_group_present():
    model, _ = small_model()
    names = list(model.store.names())
    for prefix in EXPECTED_GROUP_PREFIXES:
        assert any(n.startswith(prefix) for n in names), prefix


ABLATION_FLAGS = [
    "use_scaling_factor", "no_region_matrix", "no_distance_matrix", "no_attn_matrix",
    "no_dilated_conv", "no_mlp_predictor", "no_biaffine_predictor",
]
# Every ablation as config overrides: the seven flags, and the
# no-adapted-transformer and no-enhancement ablations as plain values.
ABLATIONS = {flag: [f"ablations.{flag}=true"] for flag in ABLATION_FLAGS}
ABLATIONS.update({"layers-0": ["encoder.layers=0"], "rounds-1": ["enhance.rounds=1"]})


def ablated_config(case: str):
    cfg = small_config()
    apply_overrides(cfg, ABLATIONS.get(case, []))
    return cfg


@pytest.mark.parametrize("case", ["default"] + list(ABLATIONS))
def test_gradients_reach_every_parameter(case):
    """Every stored parameter gets a finite gradient: an ablated
    ingredient leaves no parameter behind."""
    model, sents = small_model(config=ablated_config(case))
    sent = next(s for s in sents if s.entities)
    model.store.zero_grad()
    loss, cells = model.sentence_loss(sent)
    assert cells == len(sent) ** 2
    loss.backward()
    for name, t in model.store.items():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


def test_spot_finite_difference_check():
    # Two entries from one parameter per module; the full sweep runs in
    # the acceptance suite.
    model, sents = small_model(double=True)
    sent = next(s for s in sents if s.entities)
    names = [
        "embed.context", "enc0.wkr", "enc0.u", "grid.cln.gain_w",
        "grid.conv2.w", "enh.tag_pnc.w", "enh.cross.wk", "pred.biaffine.u",
    ]

    def loss_value():
        return model.sentence_loss(sent)[0].item()

    model.store.zero_grad()
    loss, _ = model.sentence_loss(sent)
    loss.backward()
    grads = {n: model.store[n].grad.copy() for n in names}
    h = 1e-6
    rng = np.random.default_rng(0)
    for name in names:
        t = model.store[name]
        flat = t.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value()
            flat[idx] = keep - h
            down = loss_value()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            # the 1e-5 floor keeps roundoff in the difference quotient
            # (~1e-10 absolute at h=1e-6) from drowning tiny gradients
            denom = max(abs(fd), abs(an), 1e-5)
            assert abs(fd - an) / denom <= 1e-4, (name, idx, fd, an)


def test_forward_is_deterministic():
    a, sents = small_model(seed=5)
    b, _ = small_model(seed=5)
    ids, mask, _ = a.sentence_inputs(sents[0])
    fa = a.forward(ids, mask)[0].data
    fb = b.forward(ids, mask)[0].data
    np.testing.assert_array_equal(fa, fb)


def test_padding_invariance_end_to_end():
    model, sents = small_model()
    s = sents[0]
    n = len(s)
    ids, mask, _ = model.sentence_inputs(s)
    ids_p, mask_p, _ = model.sentence_inputs(s, pad_to=n + 4)
    fused, mask2d = model.forward(ids, mask)
    fused_p, mask2d_p = model.forward(ids_p, mask_p)
    np.testing.assert_allclose(fused_p.data[:n, :n], fused.data, atol=2e-4)
    np.testing.assert_array_equal(mask2d_p[:n, :n], mask2d)


def padded_batch_run(model, sentences, fill=None):
    """Real-cell scores, summed loss and every parameter gradient of one
    padded batch; `fill` draws the ids of the padded slots (default: the
    pad id)."""
    width = max(len(s) for s in sentences)
    ids, masks, _ = zip(*(model.sentence_inputs(s, pad_to=width) for s in sentences))
    ids, mask = np.stack(ids), np.stack(masks)
    if fill is not None:
        ids = np.where(mask, ids, fill.integers(0, len(model.char_vocab), size=ids.shape))
    gold = np.zeros(mask.shape + (width, len(model.tag_vocab)), dtype=bool)
    for b, s in enumerate(sentences):
        gold[b, :len(s), :len(s)] = encode_grid(s, model.tag_vocab)
    model.store.zero_grad()
    fused, mask2d = model.forward(ids, mask)
    loss = pred_mod.multi_tag_loss(fused, gold, model.tag_vocab, mask2d,
                                   s0=model.config.predictor.threshold, reduction="sum")
    loss.backward()
    grads = {name: t.grad.copy() for name, t in model.store.items()}
    return fused.data[mask2d], loss.item(), grads


@pytest.mark.parametrize("double", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize(
    "overrides",
    [[], ["ablations.no_dilated_conv=true"], ["encoder.layers=0"], ["enhance.rounds=3"]],
    ids=["default", "no_dilated_conv", "layers-0", "rounds-3"],
)
def test_padding_contents_never_reach_real_cells(overrides, double):
    """Only the masks where positions mix keep padding out: with random
    character ids in the padded slots instead of the pad id, real-cell
    scores, the loss and every gradient are bit-identical."""
    cfg = small_config(double=double)
    apply_overrides(cfg, overrides)
    model, sents = small_model(config=cfg)
    batch = sents[:4]
    assert len({len(s) for s in batch}) > 1  # some slots are padded
    scores, loss, grads = padded_batch_run(model, batch)
    g_scores, g_loss, g_grads = padded_batch_run(model, batch, np.random.default_rng(5))
    np.testing.assert_array_equal(g_scores, scores)
    assert g_loss == loss
    assert g_grads.keys() == grads.keys()
    for name in grads:
        np.testing.assert_array_equal(g_grads[name], grads[name], err_msg=name)


class TestAblationRouting:
    def model_with(self, **flags):
        cfg = small_config()
        for k, v in flags.items():
            set_key(cfg, f"ablations.{k}", v)
        return small_model(config=cfg)

    def test_no_mlp_leaves_biaffine_only(self):
        model, sents = self.model_with(no_mlp_predictor=True)
        ids, mask, _ = model.sentence_inputs(sents[0])
        fused, _ = model.forward(ids, mask)
        h, _ = encode(ids, mask, model.encoder_params)
        expect = pred_mod.biaffine_scores(h, model.biaffine_params)
        np.testing.assert_array_equal(fused.data, expect.data)

    def test_no_biaffine_leaves_mlp_only(self):
        model, sents = self.model_with(no_biaffine_predictor=True)
        ids, mask, _ = model.sentence_inputs(sents[0])
        fused, _ = model.forward(ids, mask)
        h, attn = encode(ids, mask, model.encoder_params)
        tf = run_enhancement(
            h, mask, attn, model.grid_params, model.tag_params, model.enhance_params,
            model.config.grid, model.config.enhance,
        )
        expect = pred_mod.mlp_scores(tf, model.mlp_params)
        np.testing.assert_array_equal(fused.data, expect.data)

    def test_pair_feature_width_tracks_flags(self):
        base, _ = self.model_with()
        gc = base.config.grid
        d_h = base.config.encoder.d_h
        assert base.grid_params.mlp1_w.shape[0] == d_h + gc.d_dist + gc.d_region + gc.d_attn
        slim, _ = self.model_with(
            no_distance_matrix=True, no_region_matrix=True, no_attn_matrix=True
        )
        assert slim.grid_params.mlp1_w.shape[0] == d_h

    def test_no_dilated_conv_narrows_tag_input(self):
        base, _ = self.model_with()
        gc = base.config.grid
        assert base.tag_params.tag_nnc_w.shape[0] == len(gc.dilations) * gc.d_conv
        flat, _ = self.model_with(no_dilated_conv=True)
        assert flat.tag_params.tag_nnc_w.shape[0] == gc.d_reduced

    def test_rounds_override_changes_scores(self):
        """`enhance.rounds = 1` against the default two rounds, with the
        weights both models have shared."""
        one, sents = small_model(config=ablated_config("rounds-1"))
        two, _ = self.model_with()
        names = set(one.store.names())
        one.store.load_state_dict({n: v for n, v in two.store.state_dict().items() if n in names})
        ids, mask, _ = one.sentence_inputs(sents[0])
        f1 = one.forward(ids, mask)[0].data
        f2 = two.forward(ids, mask)[0].data
        assert not np.allclose(f1, f2)

    def test_both_predictors_off_rejected(self):
        with pytest.raises(ConfigError, match="both predictor"):
            self.model_with(no_mlp_predictor=True, no_biaffine_predictor=True)

    def test_every_flag_trains_one_step(self):
        from crener.training import Adam

        for case in ABLATIONS:
            model, sents = small_model(config=ablated_config(case))
            sent = next(s for s in sents if s.entities)
            model.store.zero_grad()
            loss, _ = model.sentence_loss(sent)
            loss.backward()
            before = model.store.state_dict()
            Adam(model.store, learning_rate=1e-3, grad_clip_norm=100.0).step()
            moved = any(
                not np.array_equal(before[n], model.store[n].data)
                for n in before
            )
            assert moved, case


class TestVocabularyModeCoupling:
    def test_threshold_mode_rejects_explicit_none(self):
        cfg = small_config()
        model, sents = small_model()
        bad_vocab = build_tag_vocabulary(sents, none_is_implicit=False)
        with pytest.raises(ConfigError, match="NONE"):
            CrenerModel(cfg, model.char_vocab, bad_vocab)

    def test_softmax_mode_end_to_end(self):
        cfg = small_config()
        cfg.predictor.mode = "softmax"
        from crener.corpus import generate_synthetic_corpus

        sents = generate_synthetic_corpus(seed=9, count=8, max_len=8, types=["A", "B"])
        vocab = build_tag_vocabulary(sents, none_is_implicit=False)
        model = CrenerModel(cfg, CharVocabulary.from_sentences(sents), vocab)
        loss, _ = model.sentence_loss(sents[0])
        assert np.isfinite(loss.item())
        grid = model.predict_grid(sents[0])
        assert grid.shape == (len(sents[0]),) * 2 + (len(vocab),)
        assert (grid.sum(axis=-1) <= 1).all()  # argmax singletons only
        assert not grid[:, :, vocab.none_id].any()


class TestContextProvider:
    def test_sidecar_vectors_used(self):
        cfg = small_config()
        from crener.corpus import generate_synthetic_corpus

        sents = generate_synthetic_corpus(seed=9, count=4, max_len=6, types=["A"])
        vocab = build_tag_vocabulary(sents)
        rng = np.random.default_rng(3)
        provider = {
            s.id: rng.normal(size=(len(s), cfg.encoder.d_context)).astype(np.float32)
            for s in sents
        }
        model = CrenerModel(cfg, CharVocabulary.from_sentences(sents), vocab, provider)
        plain = CrenerModel(cfg, model.char_vocab, vocab)
        ids, mask, vecs = model.sentence_inputs(sents[0])
        assert vecs is not None
        fused, _ = model.forward(ids, mask, vecs)
        fused_plain, _ = plain.forward(*plain.sentence_inputs(sents[0])[:2])
        assert not np.allclose(fused.data, fused_plain.data)

    def test_missing_sidecar_id_raises(self):
        model, sents = small_model()
        model.context_provider = {}
        with pytest.raises(CorpusError, match="sidecar"):
            model.sentence_inputs(sents[0])


def test_non_finite_scores_raise():
    model, sents = small_model()
    model.store["pred.mlp.w2"].data[:] = np.inf
    ids, mask, _ = model.sentence_inputs(sents[0])
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        model.forward(ids, mask)


class TestTapeFreePrediction:
    @pytest.mark.parametrize("double", [False, True], ids=["float32", "float64"])
    @pytest.mark.parametrize("mode", ["threshold", "softmax"])
    def test_predict_grid_matches_taped_reference(self, double, mode):
        cfg = small_config(double=double)
        cfg.predictor.mode = mode
        model, sents = small_model(config=cfg)
        for s in sents:
            ids, mask, vectors = model.sentence_inputs(s)
            fused, mask2d = model.forward(ids, mask, vectors)
            assert fused.requires_grad  # the reference keeps its tape
            expected = pred_mod.predict_cells(
                fused, model.tag_vocab, mask2d,
                mode=mode, s0=cfg.predictor.threshold,
            )
            got = model.predict_grid(s)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_predict_grid_records_no_tape(self, made_tensors):
        model, sents = small_model()
        model.predict_grid(sents[0])
        assert len(made_tensors) > 100
        for t in made_tensors:
            assert t._parents == () and t._backward is None and not t.requires_grad

    def test_grad_mode_restored_after_failed_predict(self):
        model, sents = small_model()
        sent = next(s for s in sents if s.entities)
        weight = model.store["pred.mlp.w2"]
        saved = weight.data.copy()
        weight.data[:] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            model.predict_sentence(sent)
        weight.data = saved
        model.store.zero_grad()
        loss, _ = model.sentence_loss(sent)
        loss.backward()
        for name, t in model.store.items():
            assert t.grad is not None, name
