"""Optimizer contract, entity-level metrics, checkpoint persistence, the
training loop's determinism and failure modes, and the padded,
sub-batched training step against a per-sentence reference."""

import copy
import json
import os
import re
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_checkpoint, small_config, small_model, untrained_checkpoint
from crener import training
from crener.autodiff import ParamStore, Tensor
from crener.config import apply_overrides
from crener.corpus import (
    CharVocabulary,
    EntityMention,
    Sentence,
    build_tag_vocabulary,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    sentences_to_jsonl,
)
from crener.errors import ConfigError, DivergenceError
from crener.model import CrenerModel
from crener.training import (
    ARCHIVE_NAME,
    CHECKPOINT_FORMAT_VERSION,
    MAX_SUB_BATCH_CELLS,
    SUB_BATCH_OVERHEAD_CELLS,
    Adam,
    Checkpoint,
    evaluate_model,
    predict,
    train,
)


def corpus():
    return generate_synthetic_corpus(seed=9, count=8, max_len=8, types=["A", "B"])


class TestAdam:
    def test_first_step_matches_reference(self, rng):
        store = ParamStore(np.float64)
        t = store.add("w", rng.normal(size=(4, 3)))
        g = rng.normal(size=(4, 3))
        t.grad = g.copy()
        x0 = t.data.copy()
        opt = Adam(store, learning_rate=1e-3)
        opt.step()
        # step 1 with zero-initialized moments: m_hat = g, v_hat = g*g
        expect = x0 - 1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(t.data, expect, rtol=1e-12)

    def test_update_norm_bounded_by_clip_times_lr(self, rng):
        store = ParamStore(np.float64)
        tensors = [store.add(f"p{i}", rng.normal(size=(6, 6))) for i in range(4)]
        lr, clip = 2e-3, 0.5
        opt = Adam(store, learning_rate=lr, weight_decay=0.01, grad_clip_norm=clip)
        for _ in range(5):
            before = {n: t.data.copy() for n, t in store.items()}
            for t in tensors:
                t.grad = rng.normal(size=t.data.shape) * 10
            opt.step()
            sq = sum(
                float(((t.data - before[n]) ** 2).sum()) for n, t in store.items()
            )
            assert np.sqrt(sq) <= clip * lr * (1 + 1e-9)

    def test_no_clip_when_under_limit(self, rng):
        store = ParamStore(np.float64)
        t = store.add("w", rng.normal(size=(3,)))
        t.grad = rng.normal(size=(3,))
        x0 = t.data.copy()
        opt = Adam(store, learning_rate=1e-3, grad_clip_norm=1e6)
        opt.step()
        unclipped = x0 - 1e-3 * t.grad / (np.abs(t.grad) + 1e-8)
        np.testing.assert_allclose(t.data, unclipped, rtol=1e-12)

    def test_weight_decay_skips_vectors(self, rng):
        store = ParamStore(np.float64)
        mat = store.add("m", np.full((2, 2), 3.0))
        vec = store.add("v", np.full((2,), 3.0))
        mat.grad = np.zeros((2, 2))
        vec.grad = np.zeros(2)
        Adam(store, learning_rate=1e-2, weight_decay=0.1, grad_clip_norm=1e9).step()
        assert (mat.data < 3.0).all()  # decayed despite zero gradient
        np.testing.assert_array_equal(vec.data, 3.0)

    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    def test_step_returns_norm_before_clipping(self, rng, clip):
        store = ParamStore(np.float64)
        t = store.add("w", rng.normal(size=(5,)))
        t.grad = rng.normal(size=(5,))
        x0, g = t.data.copy(), t.grad.copy()
        norm = Adam(store, learning_rate=1e-2, grad_clip_norm=clip).step()
        unclipped = 1e-2 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(norm, np.linalg.norm(unclipped), rtol=1e-12)
        applied = np.linalg.norm(x0 - t.data)
        np.testing.assert_allclose(applied, min(norm, clip * 1e-2), rtol=1e-9)


class _FixedPredictor:
    """Stands in for a model: returns canned mentions per sentence id."""

    def __init__(self, table):
        self.table = table

    def predict_sentence(self, sentence):
        return set(self.table.get(sentence.id, ()))

    def predict_batch(self, sentences):
        return [self.predict_sentence(s) for s in sentences]


class TestEvaluation:
    def test_frozen_counts(self):
        gold = [
            EntityMention((0, 1), "PER"),
            EntityMention((3,), "PER"),
            EntityMention((5, 6), "LOC"),
        ]
        sent = Sentence("s", list("abcdefg"), gold)
        # two correct predictions, nothing spurious
        model = _FixedPredictor({"s": [gold[0], gold[2]]})
        report = evaluate_model(model, [sent])
        assert report.precision == 1.0
        np.testing.assert_allclose(report.recall, 2 / 3, atol=1e-4)
        np.testing.assert_allclose(report.f1, 0.8, atol=1e-6)
        assert (report.gold, report.predicted, report.correct) == (3, 2, 2)

    def test_wrong_type_is_wrong(self):
        gold = [EntityMention((0, 1), "PER")]
        sent = Sentence("s", list("ab"), gold)
        model = _FixedPredictor({"s": [EntityMention((0, 1), "LOC")]})
        report = evaluate_model(model, [sent])
        assert report.correct == 0 and report.f1 == 0.0

    def test_zero_denominators(self):
        sent = Sentence("s", list("ab"), [])
        report = evaluate_model(_FixedPredictor({}), [sent])
        assert report.precision == report.recall == report.f1 == 0.0

    def test_per_type_breakdown(self):
        gold = [EntityMention((0,), "A"), EntityMention((1,), "B")]
        sent = Sentence("s", list("ab"), gold)
        model = _FixedPredictor({"s": [gold[0], EntityMention((0,), "B")]})
        report = evaluate_model(model, [sent])
        assert report.per_type["A"]["f1"] == 1.0
        assert report.per_type["B"]["correct"] == 0
        table = report.format_table()
        assert table.splitlines()[0].split() == ["type", "P", "R", "F1", "gold"]
        assert any(line.startswith("ALL") for line in table.splitlines())


class TestTrainLoop:
    def test_epochs_zero_keeps_init(self):
        cfg = small_config()
        cfg.optimizer.epochs = 0
        ck = train(cfg, corpus())
        from crener.model import CrenerModel

        fresh = CrenerModel(cfg, ck.char_vocab, ck.tag_vocab)
        for name, arr in fresh.store.state_dict().items():
            np.testing.assert_array_equal(ck.params[name], arr)
        assert ck.history == [] and ck.epoch == 0

    def test_two_runs_identical(self, tmp_path):
        cfg = small_config()
        cfg.optimizer.epochs = 2
        sents = corpus()
        a = train(copy.deepcopy(cfg), sents, dev_sentences=sents)
        b = train(copy.deepcopy(cfg), sents, dev_sentences=sents)

        def strip_timing(history):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in history]

        assert strip_timing(a.history) == strip_timing(b.history)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_stop_at_f1_short_circuits(self):
        cfg = small_config()
        cfg.optimizer.epochs = 50
        sents = corpus()
        ck = train(cfg, sents, dev_sentences=sents, stop_at_f1=0.0)
        assert len(ck.history) == 1

    def test_log_file_written(self, tmp_path):
        cfg = small_config()
        cfg.optimizer.epochs = 2
        log = tmp_path / "log.jsonl"
        train(cfg, corpus(), log_path=str(log))
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all("train_loss" in r for r in records)

    def test_divergence_raises(self):
        cfg = small_config()
        cfg.optimizer.epochs = 2
        cfg.optimizer.batch_size = 4
        cfg.optimizer.learning_rate = 1e30
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train(cfg, corpus())

    @pytest.mark.parametrize("clip, frac", [(1e-6, 1.0), (1e6, 0.0)])
    def test_epoch_record_reports_update_norms(self, clip, frac):
        cfg = small_config()
        cfg.optimizer.epochs = 2
        cfg.optimizer.batch_size = 3
        cfg.optimizer.grad_clip_norm = clip
        history = train(cfg, corpus()).history
        for record in history:
            assert 0.0 < record["update_norm_mean"] <= record["update_norm_max"]
            assert record["clipped_frac"] == frac
        assert list(history[0]) == [
            "epoch", "train_loss", "update_norm_mean", "update_norm_max",
            "clipped_frac", "real_cell_frac", "seconds",
        ]

    def test_readme_epoch_table_names_every_key(self):
        """README's epoch-record table lists exactly the keys of a record
        with a dev split, in order, so a new or deleted field cannot drift."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Training\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| ((?:`\w+`(?:, )?)+) \|", section, re.MULTILINE)
        listed = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
        cfg = small_config()
        cfg.optimizer.epochs = 1
        (record,) = train(cfg, corpus(), dev_sentences=corpus()).history
        assert listed == list(record)

    def test_empty_corpus_rejected(self):
        from crener.errors import CorpusError

        with pytest.raises(CorpusError):
            train(small_config(), [])


class TestCheckpoint:
    def trained(self, tmp_path, double=False):
        cfg = small_config(double=double)
        cfg.optimizer.epochs = 2
        sents = corpus()
        ck = train(cfg, sents, dev_sentences=sents)
        directory = str(tmp_path / "ckpt")
        ck.save(directory)
        return cfg, sents, ck, directory

    def test_round_trip_bits_and_metadata(self, tmp_path):
        cfg, sents, ck, directory = self.trained(tmp_path)
        back = Checkpoint.load(directory)
        assert back.epoch == ck.epoch
        assert back.history == ck.history
        assert back.char_vocab.chars == ck.char_vocab.chars
        assert back.tag_vocab.tags == ck.tag_vocab.tags
        from crener.config import config_to_flat

        assert config_to_flat(back.config) == config_to_flat(cfg)
        for name, arr in ck.params.items():
            np.testing.assert_array_equal(back.params[name], arr)

    def test_only_manifest_and_params_written(self, tmp_path):
        _, _, _, directory = self.trained(tmp_path)
        assert os.listdir(directory) == [ARCHIVE_NAME]

    def test_eval_f1_reproduced_exactly(self, tmp_path):
        _, sents, ck, directory = self.trained(tmp_path)
        direct = evaluate_model(ck.build_model(), sents)
        reloaded = evaluate_model(Checkpoint.load(directory).build_model(), sents)
        assert direct.f1 == reloaded.f1
        assert direct.to_dict() == reloaded.to_dict()

    def test_param_files_little_endian(self, tmp_path):
        _, _, ck, directory = self.trained(tmp_path)
        assert Checkpoint.load(directory).params["grid.mlp1.w"].dtype == np.dtype("<f4")

    def test_double_precision_files(self, tmp_path):
        _, _, _, directory = self.trained(tmp_path, double=True)
        assert Checkpoint.load(directory).params["grid.mlp1.w"].dtype == np.dtype("<f8")

    def test_manifest_is_json(self, tmp_path):
        _, _, ck, directory = self.trained(tmp_path)
        with np.load(os.path.join(directory, ARCHIVE_NAME)) as archive:
            manifest = json.loads(archive["manifest"].tobytes())
            assert sorted(archive.files) == sorted(["manifest", *ck.params])
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert sorted(manifest) == ["chars", "config", "entity_types", "epoch",
                                    "format_version", "history"]
        assert "predictor.mode" not in manifest["config"]
        back = Checkpoint.load(directory)
        assert sorted(back.params) == sorted(ck.params)

    def test_missing_manifest(self, tmp_path):
        from crener.errors import CorpusError

        with pytest.raises(CorpusError, match="no checkpoint archive"):
            Checkpoint.load(str(tmp_path / "nothing"))

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_format_1_is_retired(self, tmp_path, version):
        """A directory of formats 1-3 holds manifest.json and params/*.npy."""
        directory = tmp_path / "old"
        (directory / "params").mkdir(parents=True)
        (directory / "manifest.json").write_text(json.dumps({"format_version": version}))
        with pytest.raises(ConfigError, match="retired: retrain the model"):
            Checkpoint.load(str(directory))


def fail_on_call(monkeypatch, owner, name, after=0):
    """Make `owner.name` raise OSError once it has run `after` times."""
    real = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > after:
            raise OSError(f"injected failure in {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


@pytest.mark.parametrize("step", ["archive", "fsync", "replace"])
def test_failed_save_leaves_the_old_checkpoint(tmp_path, step):
    """A save of B over A that fails at any step leaves A, bit for bit;
    a second save then writes B."""
    a, b = untrained_checkpoint(seed=1), untrained_checkpoint(seed=2)
    directory = str(tmp_path / "ckpt")
    a.save(directory)
    # Each `ZipFile.open` for writing begins one member: the manifest, then
    # every parameter.
    afters = range(1 + len(b.params)) if step == "archive" else [0]
    owner, name = {"archive": (zipfile.ZipFile, "open"), "fsync": (os, "fsync"),
                   "replace": (os, "replace")}[step]
    for after in afters:
        with pytest.MonkeyPatch.context() as patch:
            fail_on_call(patch, owner, name, after)
            with pytest.raises(OSError, match="injected"):
                b.save(directory)
        assert_same_checkpoint(Checkpoint.load(directory), a)
    b.save(directory)
    assert_same_checkpoint(Checkpoint.load(directory), b)
    assert os.listdir(directory) == [ARCHIVE_NAME]


def test_save_over_another_config_leaves_no_stale_parameter(tmp_path):
    cfg = small_config()
    apply_overrides(cfg, ["enhance.rounds=1", "ablations.no_biaffine_predictor=true"])
    a, b = untrained_checkpoint(), untrained_checkpoint(cfg)
    assert set(b.params) < set(a.params)
    directory = str(tmp_path / "ckpt")
    a.save(directory)
    b.save(directory)
    assert_same_checkpoint(Checkpoint.load(directory), b)
    assert os.listdir(directory) == [ARCHIVE_NAME]


def test_predictions_round_trip(tmp_path):
    cfg = small_config()
    cfg.optimizer.epochs = 1
    sents = corpus()
    ck = train(cfg, sents)
    out = predict(ck, sents)
    assert [s.id for s in out] == [s.id for s in sents]
    text = sentences_to_jsonl(out)
    path = tmp_path / "pred.jsonl"
    path.write_text(text)
    back = load_corpus(path)
    assert [s.id for s in back] == [s.id for s in sents]
    for s in back:
        for e in s.entities:
            assert 0 <= e.head and e.tail < len(s)


# ----------------------------------------------------------------------
# the padded, sub-batched training step


def batched_config(*overrides):
    """float64, dropout on, two encoder layers so the per-layer draw order
    shows, then `key=value` config overrides."""
    cfg = small_config(double=True)
    cfg.encoder.dropout = 0.2
    cfg.encoder.layers = 2
    apply_overrides(cfg, overrides)
    return cfg


def mixed_lengths(count=6, seed=4):
    sents = generate_synthetic_corpus(
        seed=seed, count=count, max_len=11, types=["A", "B"], min_len=2,
        nested_fraction=0.5, discontinuous_fraction=0.5,
    )
    assert len({len(s) for s in sents}) > 2  # padding is present
    return sents


def assert_close_scaled(actual, expected, rtol):
    """Elementwise within rtol of the expected array's largest magnitude."""
    scale = max(float(np.abs(expected).max()), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


ABLATION_CASES = {
    "default": [],
    "rounds-1": ["enhance.rounds=1"],
    "rounds-3": ["enhance.rounds=3"],
    "no-biaffine": ["ablations.no_biaffine_predictor=true"],
}


@pytest.mark.parametrize("case", list(ABLATION_CASES))
def test_batched_loss_and_gradients_match_per_sentence(case):
    cfg = batched_config(*ABLATION_CASES[case])
    sents = mixed_lengths()
    chars = CharVocabulary.from_sentences(sents)
    model = CrenerModel(cfg, chars, build_tag_vocabulary(sents))

    model.store.zero_grad()
    rng = np.random.default_rng(3)
    expected_loss, expected_cells = 0.0, 0
    for s in sents:
        loss, cells = model.batch_loss([s], dropout=[model.draw_dropout(s, rng)])
        loss.backward()
        expected_loss += loss.item()
        expected_cells += cells
    expected = {name: t.grad for name, t in model.store.items()}

    model.store.zero_grad()
    rng = np.random.default_rng(3)
    dropout = [model.draw_dropout(s, rng) for s in sents]
    loss, cells = model.batch_loss(sents, dropout=dropout)
    loss.backward()

    assert cells == expected_cells == sum(len(s) ** 2 for s in sents)
    np.testing.assert_allclose(loss.item(), expected_loss, rtol=1e-12)
    for name, t in model.store.items():
        assert_close_scaled(t.grad, expected[name], rtol=1e-9)


def reference_train(cfg, sents):
    """The training loop run one sentence at a time, every tape of a batch
    alive until one backward: (final parameters, epoch train losses)."""
    model = CrenerModel(cfg, CharVocabulary.from_sentences(sents), build_tag_vocabulary(sents))
    opt = cfg.optimizer
    optimizer = Adam(model.store, learning_rate=opt.learning_rate,
                     weight_decay=opt.weight_decay, grad_clip_norm=opt.grad_clip_norm)
    shuffle_rng = np.random.default_rng(opt.seed + 1)
    dropout_rng = np.random.default_rng(opt.seed + 2)
    losses = []
    for _ in range(opt.epochs):
        order = shuffle_rng.permutation(len(sents))
        loss_sum, cell_sum = 0.0, 0
        for start in range(0, len(order), opt.batch_size):
            model.store.zero_grad()
            total, cells = None, 0
            for idx in order[start:start + opt.batch_size]:
                s = sents[int(idx)]
                loss, count = model.batch_loss([s], dropout=[model.draw_dropout(s, dropout_rng)])
                total = loss if total is None else total + loss
                cells += count
            batch_loss = total * (1.0 / cells)
            loss_sum += batch_loss.item() * cells
            cell_sum += cells
            batch_loss.backward()
            optimizer.step()
        losses.append(loss_sum / cell_sum)
    return model.store.state_dict(), losses


@pytest.mark.parametrize("max_cells", [MAX_SUB_BATCH_CELLS, 60], ids=["one-sub-batch", "split"])
def test_two_train_steps_match_per_sentence_loop(monkeypatch, max_cells):
    monkeypatch.setattr(training, "MAX_SUB_BATCH_CELLS", max_cells)
    cfg = batched_config()
    cfg.optimizer.epochs = 1
    cfg.optimizer.batch_size = 4
    sents = mixed_lengths(count=8)
    expected_params, expected_losses = reference_train(copy.deepcopy(cfg), sents)
    ck = train(copy.deepcopy(cfg), sents)
    np.testing.assert_allclose(
        [r["train_loss"] for r in ck.history], expected_losses, rtol=1e-9)
    for name, value in expected_params.items():
        assert_close_scaled(ck.params[name], value, rtol=1e-9)


def record_sub_batches(monkeypatch):
    """Patch the model and the tape to log each training forward's sentence
    lengths and count backward() calls."""
    calls = {"lengths": [], "backward": 0}
    batch_loss, backward = CrenerModel.batch_loss, Tensor.backward

    def logged_batch_loss(self, sentences, *args, **kwargs):
        calls["lengths"].append([len(s) for s in sentences])
        return batch_loss(self, sentences, *args, **kwargs)

    def counted_backward(self):
        calls["backward"] += 1
        return backward(self)

    monkeypatch.setattr(CrenerModel, "batch_loss", logged_batch_loss)
    monkeypatch.setattr(Tensor, "backward", counted_backward)
    return calls


def test_sub_batches_stay_within_the_cell_bound(monkeypatch):
    calls = record_sub_batches(monkeypatch)
    cfg = small_config()
    cfg.encoder.max_len = 64
    cfg.optimizer.epochs = 1
    sents = generate_synthetic_corpus(seed=2, count=24, max_len=40, types=["A"], min_len=3)
    train(cfg, sents)
    assert calls["backward"] == len(calls["lengths"])
    assert sorted(n for sub in calls["lengths"] for n in sub) == sorted(len(s) for s in sents)
    for sub in calls["lengths"]:
        assert sub == sorted(sub)
        assert len(sub) == 1 or len(sub) * max(sub) ** 2 <= MAX_SUB_BATCH_CELLS, sub
    # the bound binds: some batch was split, some sub-batch holds several sentences
    assert len(calls["lengths"]) > 24 // cfg.optimizer.batch_size
    assert max(len(sub) for sub in calls["lengths"]) > 1


def test_eight_sentences_of_48_run_one_at_a_time(monkeypatch):
    calls = record_sub_batches(monkeypatch)
    cfg = small_config()
    cfg.encoder.max_len = 64
    cfg.optimizer.epochs = 1
    sents = generate_synthetic_corpus(seed=2, count=8, max_len=48, types=["A"], min_len=48)
    train(cfg, sents)
    assert calls["lengths"] == [[48]] * 8
    assert calls["backward"] == 8


def test_real_cell_frac_counts_the_padded_forwards(monkeypatch):
    calls = record_sub_batches(monkeypatch)
    cfg = small_config()
    cfg.encoder.max_len = 64
    cfg.optimizer.epochs = 1
    sents = generate_synthetic_corpus(seed=2, count=24, max_len=40, types=["A"], min_len=3)
    (record,) = train(cfg, sents).history
    real = sum(n * n for sub in calls["lengths"] for n in sub)
    padded = sum(len(sub) * max(sub) ** 2 for sub in calls["lengths"])
    assert record["real_cell_frac"] == real / padded < 1.0


def split_cost(lengths: list[int]) -> int:
    """Modelled cost of one sub-batch of sorted lengths."""
    return SUB_BATCH_OVERHEAD_CELLS + len(lengths) * lengths[-1] ** 2


def brute_force_min_cost(lengths: list[int], max_cells: int) -> int:
    """Least cost over every split of sorted `lengths` into contiguous
    sub-batches whose groups of two or more stay within `max_cells`."""
    best = None
    for mask in range(2 ** (len(lengths) - 1)):
        cuts = [0] + [k + 1 for k in range(len(lengths) - 1) if mask >> k & 1] + [len(lengths)]
        groups = [lengths[a:b] for a, b in zip(cuts, cuts[1:])]
        if any(len(g) > 1 and len(g) * g[-1] ** 2 > max_cells for g in groups):
            continue
        cost = sum(split_cost(g) for g in groups)
        best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize("max_cells", [MAX_SUB_BATCH_CELLS, 300])
@pytest.mark.parametrize("seed", range(4))
def test_sub_batches_reach_the_brute_force_minimum(seed, max_cells):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        longest = int(rng.integers(1, 65))
        lengths = [int(n) for n in rng.integers(1, longest + 1, size=int(rng.integers(1, 11)))]
        subs = training._sub_batches(lengths, max_cells)
        flat = [k for sub in subs for k in sub]
        assert sorted(flat) == list(range(len(lengths)))
        assert [lengths[k] for k in flat] == sorted(lengths)
        groups = [[lengths[k] for k in sub] for sub in subs]
        assert all(len(g) == 1 or len(g) * g[-1] ** 2 <= max_cells for g in groups), groups
        assert sum(split_cost(g) for g in groups) == brute_force_min_cost(sorted(lengths), max_cells)


def test_sub_batches_of_very_short_sentences_plan_quickly():
    lengths = [int(n) for n in np.random.default_rng(0).integers(1, 5, size=20_000)]
    start = time.perf_counter()
    subs = training._sub_batches(lengths, MAX_SUB_BATCH_CELLS)
    assert time.perf_counter() - start < 1.0
    assert sorted(k for sub in subs for k in sub) == list(range(len(lengths)))
    assert max(len(sub) for sub in subs) <= training.MAX_SUB_BATCH_SENTENCES


def test_sentence_cap_moves_no_split_of_four_or_more_characters(monkeypatch):
    lengths = [int(n) for n in np.random.default_rng(1).integers(4, 65, size=3_000)]
    capped = training._sub_batches(lengths, MAX_SUB_BATCH_CELLS)
    monkeypatch.setattr(training, "MAX_SUB_BATCH_SENTENCES", len(lengths))
    assert capped == training._sub_batches(lengths, MAX_SUB_BATCH_CELLS)


# ----------------------------------------------------------------------
# sub-batched inference


def record_forwards(monkeypatch):
    """Patch the model to log every forward's scores, one (..., n, n, |R|)
    array per call, in call order."""
    calls = []
    forward = CrenerModel.forward

    def logged_forward(self, *args, **kwargs):
        fused, mask2d = forward(self, *args, **kwargs)
        calls.append(fused.data)
        return fused, mask2d

    monkeypatch.setattr(CrenerModel, "forward", logged_forward)
    return calls


def predicted_in_order(model, sents):
    found = dict(training._predicted_mentions(model, sents))
    assert sorted(found) == list(range(len(sents)))
    return [found[k] for k in range(len(sents))]


def inference_model(count, double, seed=8, provider=False):
    """An untrained small model (max_len 64) and `count` sentences of 2 to
    50 characters, with a sidecar of random context vectors if asked."""
    cfg = small_config(double=double)
    cfg.encoder.max_len = 64
    sents = generate_synthetic_corpus(
        seed=seed, count=count, max_len=50, types=["A", "B"], min_len=2,
        nested_fraction=0.5, discontinuous_fraction=0.5,
    )
    vectors = None
    if provider:
        rng = np.random.default_rng(seed)
        vectors = {s.id: rng.normal(size=(len(s), cfg.encoder.d_context)).astype(np.float32)
                   for s in sents}
    model = CrenerModel(cfg, CharVocabulary.from_sentences(sents),
                        build_tag_vocabulary(sents), vectors)
    return model, sents


@pytest.mark.parametrize("provider", [False, True], ids=["plain", "sidecar"])
def test_sub_batched_scores_match_sentences_alone(monkeypatch, provider):
    """float64: every sentence's real-cell scores in its sub-batch's forward
    match its lone forward, and its mentions are those of its batch of one."""
    model, sents = inference_model(24, double=True, provider=provider)
    lengths = [len(s) for s in sents]
    assert min(lengths) == 2 and max(lengths) >= 46
    subs = training._sub_batches(lengths, MAX_SUB_BATCH_CELLS)
    assert any(len(sub) > 1 for sub in subs) and any(len(sub) == 1 for sub in subs)
    forwards = record_forwards(monkeypatch)
    predicted = predicted_in_order(model, sents)
    batched = list(forwards)
    assert len(batched) == len(subs)
    for sub, scores in zip(subs, batched):
        assert scores.shape[:2] == (len(sub), lengths[sub[-1]])
        for b, k in enumerate(sub):
            n = lengths[k]
            alone, _ = model.forward(*model.sentence_inputs(sents[k]))
            np.testing.assert_allclose(scores[b, :n, :n], alone.data, rtol=1e-10, atol=1e-10)
    assert predicted == [model.predict_sentence(s) for s in sents]
    assert sum(map(len, predicted)) > 0


def test_float32_sub_batches_predict_the_mentions_of_sentences_alone():
    model, sents = inference_model(200, double=False, seed=7)
    predicted = predicted_in_order(model, sents)
    assert predicted == [model.predict_sentence(s) for s in sents]
    assert sum(map(len, predicted)) > 0


def test_predict_batch_keeps_input_order():
    model, sents = inference_model(12, double=False)
    batch = sorted(sents, key=len, reverse=True)[:5]
    assert model.predict_batch(batch) == [model.predict_sentence(s) for s in batch]
    assert model.predict_batch([]) == []
    report = evaluate_model(model, [])
    assert (report.gold, report.predicted, report.correct, report.f1) == (0, 0, 0, 0.0)


def test_short_sentences_share_inference_forwards(monkeypatch):
    forwards = record_forwards(monkeypatch)
    model, _ = small_model()
    sents = generate_synthetic_corpus(seed=2, count=16, max_len=16, types=["A"], min_len=4)
    subs = training._sub_batches([len(s) for s in sents], MAX_SUB_BATCH_CELLS)
    evaluate_model(model, sents)
    assert len(forwards) == len(subs) < 16


def test_eight_sentences_of_48_are_evaluated_one_at_a_time(monkeypatch):
    forwards = record_forwards(monkeypatch)
    cfg = small_config()
    cfg.encoder.max_len = 64
    sents = generate_synthetic_corpus(seed=2, count=8, max_len=48, types=["A"], min_len=48)
    model = CrenerModel(cfg, CharVocabulary.from_sentences(sents), build_tag_vocabulary(sents))
    evaluate_model(model, sents)
    assert [scores.shape[:2] for scores in forwards] == [(1, 48)] * 8


def test_non_finite_sentence_is_named_alone_in_its_sub_batch():
    model, sents = inference_model(24, double=False, provider=True)
    lengths = [len(s) for s in sents]
    sub = max(training._sub_batches(lengths, MAX_SUB_BATCH_CELLS), key=len)
    assert len(sub) > 2
    bad = sents[sub[1]]
    model.context_provider[bad.id] = np.full_like(model.context_provider[bad.id], 1e30)
    with pytest.raises(FloatingPointError) as caught:
        evaluate_model(model, sents)
    message = str(caught.value)
    assert message == f"sentence {bad.id!r}: non-finite scores in forward pass"
    assert all(sents[k].id not in message for k in sub if k != sub[1])
    # grad mode is back on: the loss is taped and its backward reaches the head
    loss, _ = model.sentence_loss(sents[sub[0]])
    assert loss.requires_grad
    loss.backward()
    assert model.store["pred.mlp.w2"].grad is not None
