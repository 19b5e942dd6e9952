"""End-to-end acceptance checks.

Each test exercises one system-level guarantee and prints a single
PASS/FAIL line (visible even under capture), so a full run reads as a
ten-line scorecard:

    criterion  1: PASS  (codec round trip 1000/1000 in 1.3s)
    ...

Criteria:
 1. grid codec round trip on 1000 synthetic sentences
 2. decoder equals brute-force oracle (random + exhaustive), and decodes
    those grids in both modes within 60 s (a test of its own)
 3. the two algebraic forms of the multi-tag loss agree to 1e-9
 4. finite differences confirm analytic gradients for every parameter
 5. the model can drive training F1 to 0.99 on a small corpus
 6. attention and relative-embedding structural invariants
 7. conditional layer norm degenerates to plain normalization
 8. every ablation switch changes the computed loss
 9. seeded training is bit-reproducible and survives checkpointing
10. a Weibo-sized training run produces a well-formed eval report
"""

import copy
import json
import os
import time

import numpy as np

from conftest import small_config, small_model
from crener import encoder as enc_mod
from crener.autodiff import Tensor
from crener.cli import main as cli_main
from crener.config import apply_overrides, default_config
from crener.corpus import (
    CharVocabulary,
    EntityMention,
    Sentence,
    TagVocabulary,
    build_tag_vocabulary,
    encode_grid,
    generate_synthetic_corpus,
    save_corpus,
)
from crener.decode import decode_grid
from crener.grid import conditional_layer_norm
from crener.model import CrenerModel
from crener.training import Checkpoint, evaluate_model, train
from oracles import brute_force_decode, relative_position_embedding, save_config


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  ({detail})")


def test_01_codec_round_trip(capsys):
    types = ["PER", "LOC", "ORG", "GPE"]
    sentences = generate_synthetic_corpus(seed=1357, count=1000, max_len=30, types=types)
    vocab = build_tag_vocabulary(sentences)
    start = time.perf_counter()
    exact = 0
    for s in sentences:
        grid = encode_grid(s, vocab)
        decoded = decode_grid(grid, vocab, contiguous=True)
        exact += decoded == set(s.entities)
    elapsed = time.perf_counter() - start
    ok = exact == len(sentences) and elapsed < 10.0
    report(capsys, 1, ok, f"codec round trip {exact}/{len(sentences)} in {elapsed:.1f}s")
    assert exact == len(sentences)
    assert elapsed < 10.0


def random_grid(rng, n, n_tags):
    density = rng.uniform(0.05, 0.25)
    return rng.random((n, n, n_tags)) < density


def decoder_grids():
    """Criterion 2's grids, as (kind, vocab, grid): 1000 random grids of
    n up to 8 over two types, then every exhaustive n = 3 grid of one type."""
    vocab = TagVocabulary(["A", "B"])
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        yield "random", vocab, random_grid(rng, n, len(vocab.tags))

    # exhaustive: n = 3, one type; only region-consistent placements can
    # influence either decoder, which leaves 18 free (cell, tag) slots
    vocab1 = TagVocabulary(["X"])
    nnc, pnc = vocab1.tag_id("NNC"), vocab1.tag_id("PNC")
    thc, htc = vocab1.tag_id("THC_X"), vocab1.tag_id("HTC_X")
    slots = (
        [(i, j, nnc) for i in range(3) for j in range(3) if i < j]
        + [(i, j, pnc) for i in range(3) for j in range(3) if i > j]
        + [(i, j, thc) for i in range(3) for j in range(3) if i >= j]
        + [(i, j, htc) for i in range(3) for j in range(3) if i <= j]
    )
    assert len(slots) == 18
    for code in range(1 << 18):
        grid = np.zeros((3, 3, len(vocab1)), dtype=bool)
        bits = code
        for slot in slots:
            if bits & 1:
                grid[slot] = True
            bits >>= 1
        yield "exhaustive", vocab1, grid


def test_02_decoder_matches_brute_force(capsys):
    start = time.perf_counter()
    mismatches = exhaustive_mismatches = 0
    for kind, vocab, grid in decoder_grids():
        for contiguous in (True, False):
            fast = decode_grid(grid, vocab, contiguous=contiguous)
            slow = brute_force_decode(grid, vocab, contiguous=contiguous)
            if kind == "random":
                mismatches += fast != slow
            else:
                exhaustive_mismatches += fast != slow

    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and exhaustive_mismatches == 0
    report(
        capsys, 2, ok,
        f"0 of 1000 random and 0 of {1 << 18} exhaustive grids disagree, "
        f"{elapsed:.1f}s" if ok else
        f"{mismatches} random, {exhaustive_mismatches} exhaustive mismatches, "
        f"{elapsed:.1f}s",
    )
    assert mismatches == 0
    assert exhaustive_mismatches == 0


def test_02_decoder_keeps_its_time_bound():
    """Criterion 2's time bound, apart from its correctness check, so that a
    slow process (a tracer, a loaded machine) fails this test alone."""
    start = time.perf_counter()
    for _, vocab, grid in decoder_grids():
        for contiguous in (True, False):
            decode_grid(grid, vocab, contiguous=contiguous)
    assert time.perf_counter() - start < 60.0


def test_03_loss_forms_agree(capsys):
    from crener.co_predictor import multi_tag_loss

    types = ["T1", "T2", "T3", "T4", "T5"]
    vocab = TagVocabulary(types)
    n_tags = len(vocab.tags)  # 12
    rng = np.random.default_rng(99)
    mask2d = np.ones((1, 1), dtype=bool)
    worst = 0.0
    for _ in range(1000):
        n_pos = int(rng.integers(0, 7))
        n_neg = int(rng.integers(0, 7))
        s0 = float(rng.normal(0, 2)) if rng.random() < 0.5 else 0.0
        scores = rng.normal(0, 3, size=n_tags)
        order = rng.permutation(n_tags)
        pos_ids = order[:n_pos]
        neg_ids = order[n_pos:n_pos + n_neg]
        # surplus tags are marked positive with a huge score so that
        # exp(-score) underflows to exactly 0: the loss then depends on
        # precisely n_pos positives and n_neg negatives
        dead_ids = order[n_pos + n_neg:]
        scores[dead_ids] = 1e9

        gold = np.zeros((1, 1, n_tags), dtype=bool)
        gold[0, 0, np.concatenate([pos_ids, dead_ids])] = True
        fused = Tensor(scores.reshape(1, 1, n_tags).copy())
        product_form = float(multi_tag_loss(fused, gold, mask2d, s0=s0).data)

        s_pos = scores[pos_ids]
        s_neg = scores[neg_ids]
        pairwise = np.exp(s_neg[:, None] - s_pos[None, :]).sum()
        sum_form = np.log1p(
            pairwise + np.exp(s_neg - s0).sum() + np.exp(s0 - s_pos).sum()
        )
        worst = max(worst, abs(product_form - sum_form))
    ok = worst <= 1e-9
    report(capsys, 3, ok, f"max |product form - sum form| = {worst:.2e}")
    assert worst <= 1e-9


def test_04_finite_difference_gradients(capsys):
    start = time.perf_counter()
    # one multi-char and one single-char mention exercise all tag kinds
    sent = Sentence(
        "fd",
        list("abcde"),
        [EntityMention((0, 1), "A"), EntityMention((3,), "B")],
    )
    model = CrenerModel(
        small_config(double=True),
        CharVocabulary.from_sentences([sent]),
        TagVocabulary(["A", "B"]),
    )

    def loss_value():
        loss, _ = model.sentence_loss(sent)
        return float(loss.data)

    loss, _ = model.sentence_loss(sent)
    model.store.zero_grad()
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in model.store.items()}

    h = 1e-6
    worst = 0.0
    worst_name = ""
    for name, tensor in model.store.items():
        flat = tensor.data.reshape(-1)
        probes = sorted({0, flat.size // 2, flat.size - 1})
        for k in probes:
            keep = flat[k]
            flat[k] = keep + h
            up = loss_value()
            flat[k] = keep - h
            down = loss_value()
            flat[k] = keep
            fd = (up - down) / (2 * h)
            an = analytic[name].reshape(-1)[k]
            # the 1e-5 floor keeps FD roundoff (~eps/h) from dominating
            # the ratio when the true gradient is near zero
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-5)
            if rel > worst:
                worst, worst_name = rel, f"{name}[{k}]"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 300.0
    report(
        capsys, 4, ok,
        f"max rel err {worst:.2e} at {worst_name}, "
        f"{len(analytic)} parameter groups, {elapsed:.0f}s",
    )
    assert worst <= 1e-4, worst_name
    assert elapsed < 300.0


def test_05_overfits_small_corpus(capsys):
    start = time.perf_counter()
    sentences = generate_synthetic_corpus(
        seed=5, count=64, max_len=12, types=["PER", "LOC"]
    )
    cfg = default_config()
    cfg.encoder.dropout = 0.0
    cfg.encoder.max_len = 16
    cfg.optimizer.learning_rate = 5e-3
    cfg.optimizer.grad_clip_norm = 1000.0
    cfg.optimizer.epochs = 200
    ck = train(cfg, sentences, dev_sentences=sentences, stop_at_f1=0.99)
    f1 = evaluate_model(ck.build_model(), sentences).f1
    elapsed = time.perf_counter() - start
    ok = f1 >= 0.99 and ck.epoch <= 200 and elapsed < 600.0
    report(
        capsys, 5, ok,
        f"train F1 {f1:.4f} after {ck.epoch} epochs in {elapsed:.0f}s",
    )
    assert f1 >= 0.99
    assert elapsed < 600.0


def test_06_attention_invariants(capsys):
    model, sents = small_model(config=small_config(double=True))
    sent = max(sents, key=len)
    ids, mask, _ = model.sentence_inputs(sent, pad_to=len(sent) + 3)
    store, cfg = model.store, model.config.encoder

    h0, _ = enc_mod._embed_with_attention(ids, mask, store, cfg)
    table = enc_mod.relative_position_table(len(ids), cfg.d_h)
    _, weights = enc_mod.adapted_attention(h0, mask, store, 0, cfg, table=table)
    _, attn = enc_mod.encode(ids, mask, store, cfg)

    row_err = 0.0
    masked_leak = 0.0
    for mat in list(weights) + [attn]:
        rows = mat[mask]
        row_err = max(row_err, float(np.abs(rows.sum(axis=-1) - 1.0).max()))
        masked_leak = max(masked_leak, float(np.abs(mat[:, ~mask]).max()))

    n, d = 12, 8
    R = relative_position_embedding(n, d)
    shift_exact = all(
        np.array_equal(R[i, j], R[i + 1, j + 1])
        for i in range(n - 1)
        for j in range(n - 1)
    )
    asymmetric = all(
        not np.array_equal(R[i, j], R[j, i])
        for i in range(n)
        for j in range(n)
        if i != j
    )

    ok = row_err <= 1e-6 and masked_leak == 0.0 and shift_exact and asymmetric
    report(
        capsys, 6, ok,
        f"row sum err {row_err:.1e}, masked leak {masked_leak:.1e}, "
        f"shift exact={shift_exact}, asymmetric={asymmetric}",
    )
    assert row_err <= 1e-6
    assert masked_leak == 0.0
    assert shift_exact and asymmetric


def test_07_cln_degenerates_to_layer_norm(capsys):
    model, _ = small_model(config=small_config(double=True))
    store = model.store
    store["grid.cln.gain_w"].data[:] = 0.0
    store["grid.cln.gain_b"].data[:] = 1.0
    store["grid.cln.bias_w"].data[:] = 0.0
    store["grid.cln.bias_b"].data[:] = 0.0

    rng = np.random.default_rng(7)
    n, d = 10, store["grid.cln.gain_b"].data.shape[0]
    h_s_and_h_o = Tensor(rng.normal(size=(2, n, d)))  # the same draws as two (n, d) arrays
    v = conditional_layer_norm(h_s_and_h_o, store).data

    mean_err = float(np.abs(v.mean(axis=-1)).max())
    std_err = float(np.abs(v.std(axis=-1) - 1.0).max())
    ok = mean_err <= 1e-5 and std_err <= 1e-3
    report(capsys, 7, ok, f"per-cell |mean| <= {mean_err:.1e}, |std-1| <= {std_err:.1e}")
    assert mean_err <= 1e-5
    assert std_err <= 1e-3


def test_08_every_ablation_changes_the_loss(capsys):
    sentences = generate_synthetic_corpus(seed=9, count=8, max_len=8, types=["A", "B"])

    def batch_loss(*overrides):
        cfg = small_config()
        apply_overrides(cfg, overrides)
        model, _ = small_model(config=cfg)
        total = 0.0
        for s in sentences:
            loss, _ = model.sentence_loss(s)
            total += float(loss.data)
        return total / len(sentences)

    base = batch_loss()
    # The scaling mode, then each ablation as its ingredient's zero value.
    switches = [
        "encoder.use_scaling_factor=true",
        "grid.d_region=0",
        "grid.d_dist=0",
        "grid.d_attn=0",
        "grid.dilations=[]",
        "predictor.d_hidden=0",
        "predictor.d_biaffine=0",
        "encoder.layers=0",
        "enhance.rounds=1",
    ]
    unchanged = []
    deltas = {}
    for switch in switches:
        delta = abs(batch_loss(switch) - base)
        deltas[switch] = delta
        if delta <= 1e-9:
            unchanged.append(switch)

    ok = not unchanged
    smallest = min(deltas.values())
    report(
        capsys, 8, ok,
        f"all {len(deltas)} switches moved the loss, min |delta| {smallest:.2e}"
        if ok else f"no effect from: {', '.join(unchanged)}",
    )
    assert not unchanged, unchanged


def test_09_reproducible_and_checkpoint_safe(capsys, tmp_path):
    sentences = generate_synthetic_corpus(seed=7, count=12, max_len=8, types=["A", "B"])
    cfg = small_config()
    cfg.optimizer.epochs = 3

    def run():
        return train(copy.deepcopy(cfg), sentences, dev_sentences=sentences)

    a, b = run(), run()
    logs_equal = [
        {k: v for k, v in row.items() if k != "seconds"} for row in a.history
    ] == [{k: v for k, v in row.items() if k != "seconds"} for row in b.history]
    params_equal = all(
        np.array_equal(a.params[name], b.params[name]) for name in a.params
    )

    a.save(str(tmp_path / "ck"))
    reloaded = Checkpoint.load(str(tmp_path / "ck"))
    f1_direct = evaluate_model(a.build_model(), sentences).f1
    f1_reloaded = evaluate_model(reloaded.build_model(), sentences).f1

    ok = logs_equal and params_equal and f1_direct == f1_reloaded
    report(
        capsys, 9, ok,
        f"logs identical={logs_equal}, params identical={params_equal}, "
        f"F1 {f1_direct:.4f} == {f1_reloaded:.4f}",
    )
    assert logs_equal
    assert params_equal
    assert f1_direct == f1_reloaded


def test_10_weibo_scale_run_reports_cleanly(capsys, tmp_path):
    types = ["GPE.NAM", "LOC.NAM", "ORG.NAM", "PER.NAM"]
    data_dir = os.environ.get("CRENER_WEIBO_DIR")
    if data_dir:
        train_path = os.path.join(data_dir, "train.jsonl")
        dev_path = os.path.join(data_dir, "dev.jsonl")
        if not os.path.exists(dev_path):
            dev_path = train_path
        max_len = 160
    else:
        train_sents = generate_synthetic_corpus(
            seed=11, count=1350, max_len=12, types=types
        )
        dev_sents = generate_synthetic_corpus(
            seed=12, count=270, max_len=12, types=types
        )
        train_path = str(tmp_path / "train.jsonl")
        dev_path = str(tmp_path / "dev.jsonl")
        save_corpus(train_sents, train_path)
        save_corpus(dev_sents, dev_path)
        max_len = 16

    cfg = small_config()
    cfg.encoder.max_len = max_len
    cfg.optimizer.epochs = 5
    cfg.paths.train = train_path
    cfg_path = tmp_path / "weibo.cfg"
    save_config(cfg, cfg_path)
    ckpt = tmp_path / "ckpt"
    report_path = tmp_path / "report.json"

    code = cli_main(["train", "--config", str(cfg_path),
                     "--checkpoint-dir", str(ckpt), "--quiet"])
    assert code == 0
    log = [json.loads(l) for l in (ckpt / "train_log.jsonl").read_text().splitlines()]
    code = cli_main(["eval", "--checkpoint", str(ckpt),
                     "--data", dev_path, "--out", str(report_path)])
    assert code == 0

    rep = json.loads(report_path.read_text())
    keys_ok = {"precision", "recall", "f1", "gold", "predicted", "correct",
               "per_type"} <= set(rep)
    ranges_ok = all(0.0 <= rep[k] <= 1.0 for k in ("precision", "recall", "f1"))
    epochs_ok = [r["epoch"] for r in log] == [1, 2, 3, 4, 5]
    source = "user-supplied" if data_dir else "synthetic"
    ok = keys_ok and ranges_ok and epochs_ok and rep["gold"] > 0
    report(
        capsys, 10, ok,
        f"{source} corpus, 5 epochs, eval P={rep['precision']:.3f} "
        f"R={rep['recall']:.3f} F1={rep['f1']:.3f}",
    )
    assert keys_ok and ranges_ok and epochs_ok
    assert rep["gold"] > 0
