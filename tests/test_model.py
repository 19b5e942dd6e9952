"""Model assembly: parameter registry, forward wiring, ablation routing,
and gradient flow through the whole stack."""

import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import ABLATIONS, small_config, small_model, write_sidecar
from crener import co_predictor as pred_mod
from crener import autodiff as ad
from crener.autodiff import Tensor
from crener.config import apply_overrides, default_config
from crener.corpus import (
    CharVocabulary,
    Sentence,
    build_tag_vocabulary,
    encode_grid,
    generate_synthetic_corpus,
)
from crener.encoder import encode
from crener.errors import ConfigError, CorpusError
from crener.model import CrenerModel
from crener.relation_enhance import run_enhancement, tag_affine


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
    loss = pred_mod.multi_tag_loss(fused, gold, mask2d, s0=model.config.predictor.threshold)
    loss.backward()
    grads = {name: t.grad.copy() for name, t in model.store.items()}
    return fused.data[mask2d], loss.item(), grads


@pytest.mark.parametrize("double", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize(
    "overrides",
    [[], ["grid.dilations=[]"], ["encoder.layers=0"], ["enhance.rounds=3"]],
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


@pytest.mark.parametrize("case", ["default", "rounds-1", "no_dilated_conv"])
def test_folded_mlp_head_matches_the_explicit_composition(monkeypatch, case):
    """`mlp_scores` folds the last round's tag-feature map into its first
    layer. In float64, the scores, the loss and every gradient (the
    `enh.tag_*` and `pred.mlp.*` ones included) match the unfolded
    mlp(tag_features(Q)) to 1e-12 of each array's largest magnitude. The
    biases that start at zero are drawn first, so the folded bias
    b_tag W1 + b1 is tested too."""
    from crener import relation_enhance as enh_mod

    cfg = ablated_config(case)
    cfg.optimizer.double_precision = True
    model, sents = small_model(config=cfg)
    rng = np.random.default_rng(0)
    for name in [n for n in model.store.names() if n.startswith("enh.tag_") or n == "pred.mlp.b1"]:
        model.store[name].data[...] = rng.normal(scale=0.3, size=model.store[name].shape)
    batch = sents[:4]
    folded = padded_batch_run(model, batch)

    def unfolded(q, store, tag_map):
        tf = enh_mod.tag_features(q, tag_map)
        hidden = ad.linear(tf, store["pred.mlp.w1"], store["pred.mlp.b1"], gelu=True)
        return ad.linear(hidden, store["pred.mlp.w2"], store["pred.mlp.b2"])

    monkeypatch.setattr(pred_mod, "mlp_scores", unfolded)
    scores, loss, grads = padded_batch_run(model, batch)

    def close(got, expect):
        return np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    assert close(folded[0], scores)
    assert abs(folded[1] - loss) <= 1e-12 * abs(loss)
    assert folded[2].keys() == grads.keys()
    assert {"enh.tag_nnc.w", "enh.tag_thc.b", "pred.mlp.w1", "pred.mlp.b1"} <= grads.keys()
    for name, g in grads.items():
        assert close(folded[2][name], g), name


class TestAblationRouting:
    def model_with(self, *overrides):
        cfg = small_config()
        apply_overrides(cfg, overrides)
        return small_model(config=cfg)

    def test_no_mlp_leaves_biaffine_only(self):
        model, sents = self.model_with("predictor.d_hidden=0")
        ids, mask, _ = model.sentence_inputs(sents[0])
        fused, _ = model.forward(ids, mask)
        h, _ = encode(ids, mask, model.store, model.config.encoder)
        expect = pred_mod.biaffine_scores(h, model.store)
        np.testing.assert_array_equal(fused.data, expect.data)

    def test_no_biaffine_leaves_mlp_only(self):
        model, sents = self.model_with("predictor.d_biaffine=0")
        ids, mask, _ = model.sentence_inputs(sents[0])
        fused, _ = model.forward(ids, mask)
        h, attn = encode(ids, mask, model.store, model.config.encoder)
        tag_map = tag_affine(model.store)
        q = run_enhancement(
            h, mask, attn, model.store, model.config.grid, model.config.enhance, tag_map
        )
        expect = pred_mod.mlp_scores(q, model.store, tag_map)
        np.testing.assert_array_equal(fused.data, expect.data)

    def test_pair_feature_width_tracks_flags(self):
        base, _ = self.model_with()
        gc = base.config.grid
        d_h = base.config.encoder.d_h
        assert base.store["grid.mlp1.w"].shape[0] == d_h + gc.d_dist + gc.d_region + gc.d_attn
        slim, _ = self.model_with("grid.d_dist=0", "grid.d_region=0", "grid.d_attn=0")
        assert slim.store["grid.mlp1.w"].shape[0] == d_h

    def test_no_dilated_conv_narrows_tag_input(self):
        base, _ = self.model_with()
        gc = base.config.grid
        assert base.store["enh.tag_nnc.w"].shape[0] == len(gc.dilations) * gc.d_conv
        flat, _ = self.model_with("grid.dilations=[]")
        assert flat.store["enh.tag_nnc.w"].shape[0] == gc.d_reduced

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
            self.model_with("predictor.d_hidden=0", "predictor.d_biaffine=0")

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


class TestContextProvider:
    def test_sidecar_vectors_used(self, tmp_path):
        sents = generate_synthetic_corpus(seed=9, count=4, max_len=6, types=["A"])
        vocab = build_tag_vocabulary(sents)
        rng = np.random.default_rng(3)
        cfg = small_config()
        cfg.paths.vectors_sidecar = write_sidecar(tmp_path / "vectors.jsonl", {
            s.id: rng.normal(size=(len(s), cfg.encoder.d_context)).astype(np.float32)
            for s in sents
        })
        model = CrenerModel(cfg, CharVocabulary.from_sentences(sents), vocab)
        plain = CrenerModel(small_config(), model.char_vocab, vocab)
        ids, mask, vecs = model.sentence_inputs(sents[0])
        assert vecs is not None
        fused, _ = model.forward(ids, mask, vecs)
        fused_plain, _ = plain.forward(*plain.sentence_inputs(sents[0])[:2])
        assert not np.allclose(fused.data, fused_plain.data)

    @pytest.mark.parametrize("double", [False, True], ids=["float32", "float64"])
    def test_padded_sidecar_batch_matches_sentences_alone(self, tmp_path, double):
        """Sidecar rows that `sentence_inputs` pads with zeros reach no real
        cell: a mixed-length padded batch gives the loss and real-cell
        scores of its sentences run alone."""
        cfg = small_config(double=double)
        sents = generate_synthetic_corpus(seed=9, count=4, max_len=8, types=["A", "B"])
        assert len({len(s) for s in sents}) > 1  # some slots are padded
        rng = np.random.default_rng(3)
        cfg.paths.vectors_sidecar = write_sidecar(tmp_path / "vectors.jsonl", {
            s.id: rng.normal(size=(len(s), cfg.encoder.d_context)).astype(np.float32)
            for s in sents
        })
        model = CrenerModel(cfg, CharVocabulary.from_sentences(sents), build_tag_vocabulary(sents))
        width = max(len(s) for s in sents)
        ids, masks, vectors = zip(*(model.sentence_inputs(s, pad_to=width) for s in sents))
        fused, _ = model.forward(np.stack(ids), np.stack(masks), np.stack(vectors))
        loss, cells = model.batch_loss(sents)
        tol = 1e-10 if double else 2e-5
        alone_loss = 0.0
        for b, s in enumerate(sents):
            n = len(s)
            np.testing.assert_array_equal(vectors[b][n:], 0.0)
            alone, _ = model.forward(*model.sentence_inputs(s))
            np.testing.assert_allclose(fused.data[b, :n, :n], alone.data, rtol=tol, atol=tol)
            alone_loss += model.batch_loss([s])[0].item()
        assert cells == sum(len(s) ** 2 for s in sents)
        np.testing.assert_allclose(loss.item(), alone_loss, rtol=tol)

    def test_missing_sidecar_id_raises(self, tmp_path):
        cfg = small_config()
        cfg.paths.vectors_sidecar = write_sidecar(tmp_path / "vectors.jsonl", {})
        model, sents = small_model(config=cfg)
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
    def test_predict_grid_matches_taped_reference(self, double):
        cfg = small_config(double=double)
        model, sents = small_model(config=cfg)
        for s in sents:
            ids, mask, vectors = model.sentence_inputs(s)
            fused, mask2d = model.forward(ids, mask, vectors)
            assert fused.requires_grad  # the reference keeps its tape
            expected = pred_mod.predict_cells(fused, mask2d, s0=cfg.predictor.threshold)
            got = model._predict_grids([s])[0]
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_predict_grid_records_no_tape(self, made_tensors):
        model, sents = small_model()
        model.predict_sentence(sents[0])
        # Only checks that a whole forward ran. It makes 88 tensors; the
        # floor leaves room for a later fusion of a few more.
        assert len(made_tensors) > 80
        for t in made_tensors:
            assert t._node is None and not t.requires_grad

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


def closure_values(node) -> list:
    """Everything a tape node's closure captured, with the members of any
    tuple or list in it, at any depth."""
    values, stack = [], [cell.cell_contents for cell in node.backward.__closure__ or ()]
    while stack:
        value = stack.pop()
        if isinstance(value, (tuple, list)):
            stack.extend(value)
        else:
            values.append(value)
    return values


def tape_nodes(loss) -> list:
    """Every interior node of the tape under `loss`."""
    nodes, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
    return nodes


def tape_bytes(loss) -> int:
    """Bytes the tape under `loss` holds for its backward: every array a
    node's closure saved, each base array once. A node holds no output."""
    held = {}
    for node in tape_nodes(loss):
        for a in closure_values(node):
            if not isinstance(a, np.ndarray):
                continue
            while isinstance(a.base, np.ndarray):
                a = a.base
            held[id(a)] = a.nbytes
    return sum(held.values())


def test_tape_of_a_default_forward_stays_lean():
    # The grid-sized stages are fused ops whose closures keep only what
    # their backward reads, and no node keeps its output: about 4.7 MB
    # here, against 12.4 MB when every node kept its output and every
    # `x @ w + b`, GELU, scale-shift, pooling fill and conv mask kept an
    # array of its own.
    sents = generate_synthetic_corpus(
        seed=3, count=1, max_len=32, types=["PER", "LOC"], min_len=32)
    model = CrenerModel(default_config(), CharVocabulary.from_sentences(sents),
                        build_tag_vocabulary(sents))
    loss, cells = model.sentence_loss(sents[0])
    assert cells == 32 * 32
    assert tape_bytes(loss) <= 8_000_000


def test_backward_peak_stays_near_the_forward():
    # Gradients are handed over rather than copied, GELU's derivative is
    # freed once read, and the conv backward gathers its im2col in blocks,
    # so a default float32 step on one n = 64 sentence raises
    # tracemalloc's peak by about 0.9 MB over the level its forward leaves,
    # against 5.1 MB when every first write was copied.
    sents = generate_synthetic_corpus(
        seed=3, count=1, max_len=64, types=["PER", "LOC"], min_len=64)
    model = CrenerModel(default_config(), CharVocabulary.from_sentences(sents),
                        build_tag_vocabulary(sents))
    tracemalloc.start()
    try:
        loss, _ = model.batch_loss(sents)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - after_forward <= 2_000_000


def test_dead_grids_are_freed_before_the_backward(monkeypatch):
    # A tape node keeps its closure, not its output, so a grid that no
    # backward reads dies with the forward's last reference to it: round 0's
    # tag-feature grid (read only by `masked_max`'s forward) and the index
    # term E W_e + b1 (a `linear` bias). One default float32 step on one
    # n = 64 sentence then peaks at 16.2 MB in tracemalloc, against 20.75 MB
    # when every node kept its output until the backward reached it.
    from crener import grid as grid_mod
    from crener import relation_enhance as enh_mod

    grids = {}
    tag_features, pair_projection = enh_mod.tag_features, grid_mod.pair_projection

    def recording_tag_features(q, tag_map):
        out = tag_features(q, tag_map)
        grids.setdefault("round 0 tag features", weakref.ref(out.data))
        return out

    def recording_pair_projection(attn, store, config):
        w, index_term = pair_projection(attn, store, config)
        grids["index term"] = weakref.ref(index_term.data)
        return w, index_term

    monkeypatch.setattr(enh_mod, "tag_features", recording_tag_features)
    monkeypatch.setattr(grid_mod, "pair_projection", recording_pair_projection)
    sents = generate_synthetic_corpus(
        seed=3, count=1, max_len=64, types=["PER", "LOC"], min_len=64)
    model = CrenerModel(default_config(), CharVocabulary.from_sentences(sents),
                        build_tag_vocabulary(sents))
    tracemalloc.start()
    try:
        loss, _ = model.batch_loss(sents)
        dead = {name for name, ref in grids.items() if ref() is None}
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dead == {"round 0 tag features", "index term"}
    assert peak <= 17_000_000


def test_no_tape_closure_holds_a_tensor():
    # Each closure captures the arrays its backward reads and its parents'
    # nodes, never a parent tensor, which would keep that tensor's output
    # alive for as long as the tape.
    model, sents = small_model()
    loss, _ = model.batch_loss(sents[:3])
    nodes = tape_nodes(loss)
    assert len(nodes) == sum(DEFAULT_TAPE.values())
    for node in nodes:
        assert not any(isinstance(v, Tensor) for v in closure_values(node)), node.backward.__qualname__


def test_gradients_match_a_backward_that_copies(monkeypatch):
    # Every gradient is bit for bit what a backward that copies every first
    # write computes. That covers the enh.self.* weights, which serve both
    # the subject and the object views: one GEMM over the stacked pair sums
    # both views' parts into one gradient, which finite differences check
    # independently.
    model, sents = small_model(double=True)
    batch = sents[:3]

    def gradients():
        model.store.zero_grad()
        loss, _ = model.batch_loss(batch)
        loss.backward()
        return {name: t.grad.copy() for name, t in model.store.items()}

    handed_over = gradients()
    accumulate = ad._Node.accumulate
    monkeypatch.setattr(ad._Node, "accumulate", lambda node, g, owned=False: accumulate(node, g))
    copied = gradients()
    assert handed_over.keys() == copied.keys()
    for name, g in handed_over.items():
        np.testing.assert_array_equal(g, copied[name], err_msg=name)

    h = 1e-6
    for name in ("enh.self.wq", "enh.self.wk", "enh.self.wv", "enh.self.wo"):
        flat = model.store[name].data.reshape(-1)
        for k in (0, flat.size // 2, flat.size - 1):
            keep = flat[k]
            flat[k] = keep + h
            up = model.batch_loss(batch)[0].item()
            flat[k] = keep - h
            down = model.batch_loss(batch)[0].item()
            flat[k] = keep
            fd, an = (up - down) / (2 * h), handed_over[name].reshape(-1)[k]
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-2), (name, k, fd, an)


def test_no_gradient_shares_memory_with_another_array():
    # A leaf's .grad may be a view of a closure's gradient (a `concat`
    # slice, say), but never memory that another leaf's .grad or any
    # parameter's .data also uses.
    sents = generate_synthetic_corpus(
        seed=3, count=2, max_len=12, types=["PER", "LOC"], min_len=8)
    model = CrenerModel(default_config(), CharVocabulary.from_sentences(sents),
                        build_tag_vocabulary(sents))
    rng = np.random.default_rng(0)
    loss, _ = model.batch_loss(sents, dropout=[model.draw_dropout(s, rng) for s in sents])
    loss.backward()
    params = [t for _, t in model.store.items()]
    grads = [t.grad for t in params]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)
        for t in params:
            assert not np.shares_memory(g, t.data)


# The tape of a default forward and loss, by op: each attention is one
# `attention` node and each layer norm one `layer_norm` node; the
# relative-position score bias of each encoder layer is one
# `relative_scores` node; the loss is one `threshold_loss` node and its
# sum; the subject and object views run as one stacked stream, so each
# enhancement attention and each per-view weight pair is one node; the
# index embeddings are looked up and projected, `grid.mlp1.w` split into
# its two views, and the tag map concatenated, once per forward. The same
# 90 nodes at either batch shape; a change that adds one names its op here.
DEFAULT_TAPE = {
    "add": 8, "attention": 4, "concat": 4, "dilated_conv_gelu": 2, "embedding": 6,
    "getitem": 12, "layer_norm": 5, "linear": 16, "masked_max": 1, "matmul": 20, "mul": 1,
    "relative_scores": 1, "reshape": 6, "swapaxes": 2, "tensor_sum": 1, "threshold_loss": 1,
}


def test_default_forward_records_few_tape_nodes(made_tensors):
    # A recording node's op is the function whose backward closure it holds.
    assert sum(DEFAULT_TAPE.values()) == 90
    for count, shortest, longest in ((8, 12, 15), (2, 8, 8)):
        sents = generate_synthetic_corpus(
            seed=3, count=count, max_len=longest, types=["PER", "LOC"], min_len=shortest)
        assert all(shortest <= len(s) <= longest for s in sents)
        model = CrenerModel(default_config(), CharVocabulary.from_sentences(sents),
                            build_tag_vocabulary(sents))
        made_tensors.clear()
        loss, _ = model.batch_loss(sents)
        assert loss.requires_grad
        ops = Counter(t._node.backward.__qualname__.split(".")[0]
                      for t in made_tensors if t.requires_grad)
        assert dict(ops) == DEFAULT_TAPE
