"""Training loop, entity-level evaluation, and checkpoint persistence.

Training minimizes the multi-tag threshold loss with adaptive moment
estimation plus decoupled weight decay (matrices only). The whole
update vector (moment direction and decay together) is renormalized to
at most grad_clip_norm * learning_rate, so that bound holds exactly per
step. Each optimizer batch is sorted by length and split into runs of
neighbouring sentences, each padded to its longest one: a sentence of n
characters is an n x n grid, so a padded sub-batch costs its size times
its longest length squared in cells, plus a fixed cost per forward and
backward. `_sub_batches` finds the split of least modelled cost exactly,
with no sub-batch of two or more sentences above MAX_SUB_BATCH_CELLS.
Each sub-batch is backpropagated straight after its forward, so only one
sub-batch's tape is alive at a time. Evaluation and prediction use the
same split, one no-grad forward per sub-batch. Each epoch logs one JSON
record; the best dev-F1 parameters are kept. A checkpoint is one
uncompressed zip archive, checkpoint.npz, in a directory: a JSON manifest
(config, vocabularies, epoch, history) and one little-endian .npy member
per parameter, replaced whole by one rename on each save. It holds what
prediction needs and nothing else: there is no resume, so the optimizer
state is not saved.
"""

from __future__ import annotations

import io
import json
import os
import time
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ModelConfig, config_from_flat, config_to_flat
from .corpus import (
    CharVocabulary,
    EntityMention,
    Sentence,
    TagVocabulary,
    build_tag_vocabulary,
)
from .errors import ConfigError, CorpusError, DivergenceError
from .model import CrenerModel

CHECKPOINT_FORMAT_VERSION = 4

# The most padded cells (size x longest length squared) of a training or
# inference forward over two or more sentences; a longer sentence runs
# alone. The bound caps a step's memory, since only one sub-batch's tape
# is alive at a time: with the default config in float32 a 4,096-cell
# forward + loss leaves 19.8 MB of tape for one n = 64 sentence and 21.0 MB
# for four of n = 32, and its backward peaks at 20.8 and 21.9 MB
# (tracemalloc, from just before the forward, after one warm-up step;
# 2-core Xeon, numpy 2.4.6, one BLAS thread). 4,096 is one n = 64 grid.
MAX_SUB_BATCH_CELLS = 4096

# The fixed cost of one sub-batch's forward and backward, in padded cells:
# its time at zero cells over its time per cell. A least-squares fit of
# forward + backward time against padded cells, over sub-batches of 1-8
# sentences whose longest has 4-16 characters (default config, float32,
# one BLAS thread, 2 cores, 104 shapes x 5 reps, eight processes), gave
# 8.1-9.2 ms + 33-38 us per cell, 231-255 cells; with a per-sentence term
# in the fit, 216-237 cells. An earlier measurement of the same step gave
# 7.5 ms and 36 us, about 210 cells. The step is not sensitive to the
# exact value: steps over 8 lengths in [4, 16] averaged 64-65 ms at 160, 240
# and 320 cells alike, and 85 ms as one padded sub-batch. Re-fit the same
# way once the backward stopped copying gradients (eight processes, each
# interleaved with one of the copying backward): 4.5-8.0 ms + 26-31 us per
# cell, 152-292 cells, median 239 (the copying backward: median 223); with
# the per-sentence term, median 207 (224). Re-fit once the subject and
# object views ran as one stream (sub-batches whose other sentences drew
# random lengths up to the longest; four processes per tree, alternating):
# 4.1-4.3 ms + 16.7-18.1 us per cell, 235-251 cells, median 242 (two
# streams: 5.0-5.3 ms, 268-293 cells, median 279); with the per-sentence
# term, 211-230 (239-272). The value is kept, since a new one moves the
# split and so float32 results.
SUB_BATCH_OVERHEAD_CELLS = 240

# The most sentences in one sub-batch. It bounds `_sub_batches`' inner loop,
# which otherwise tries up to MAX_SUB_BATCH_CELLS / n^2 sizes per sentence:
# 4,096 for sentences of one character, so 20,000 lengths in [1, 4] took
# 2.8-4.7 s to plan. Sentences of 4 or more characters fill 4,096 cells with
# at most 256 of them, so the cap changes no split of theirs.
MAX_SUB_BATCH_SENTENCES = 256


class Adam:
    """Adaptive moment estimation with decoupled weight decay and a hard
    cap on the global update norm."""

    def __init__(
        self,
        store,
        learning_rate: float,
        weight_decay: float = 0.0,
        grad_clip_norm: float | None = None,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.store = store
        self.lr = learning_rate
        self.weight_decay = weight_decay
        self.grad_clip_norm = grad_clip_norm
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}

    @property
    def max_update_norm(self) -> float | None:
        """The cap on a step's update norm, grad_clip_norm * learning_rate."""
        return None if self.grad_clip_norm is None else self.grad_clip_norm * self.lr

    def step(self) -> float:
        """Apply one update; returns its norm before clipping."""
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        updates = {}
        sq_norm = 0.0
        for name, t in self.store.items():
            if t.grad is None:
                continue
            g = t.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            upd = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0 and t.data.ndim >= 2:
                upd = upd + self.weight_decay * t.data
            upd = self.lr * upd
            updates[name] = upd
            sq_norm += float((upd.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(sq_norm))
        limit = self.max_update_norm
        if limit is not None and norm > limit:
            scale = limit / norm
            for upd in updates.values():
                upd *= scale
        for name, upd in updates.items():
            self.store[name].data -= upd.astype(self.store[name].data.dtype)
        return norm


@dataclass
class EvalReport:
    """Entity-level exact-match scores with a per-type breakdown."""

    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int
    per_type: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        rows = [("ALL", self.precision, self.recall, self.f1, self.gold)]
        for t in sorted(self.per_type):
            d = self.per_type[t]
            rows.append((t, d["precision"], d["recall"], d["f1"], d["gold"]))
        width = max(len(r[0]) for r in rows)
        lines = [f"{'type':<{width}}  {'P':>8}  {'R':>8}  {'F1':>8}  {'gold':>6}"]
        for name, p, r, f1, gold in rows:
            lines.append(f"{name:<{width}}  {p:>8.4f}  {r:>8.4f}  {f1:>8.4f}  {gold:>6d}")
        return "\n".join(lines)


def _prf(gold: int, predicted: int, correct: int) -> tuple[float, float, float]:
    p = correct / predicted if predicted > 0 else 0.0
    r = correct / gold if gold > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def _predicted_mentions(model: CrenerModel, sentences: list[Sentence]):
    """(position in `sentences`, predicted mentions) for every sentence,
    yielded one sub-batch at a time, in the sub-batches `_sub_batches`
    picks for training: one `predict_batch` call each."""
    for sub in _sub_batches([len(s) for s in sentences], MAX_SUB_BATCH_CELLS):
        yield from zip(sub, model.predict_batch([sentences[k] for k in sub]))


def evaluate_model(model: CrenerModel, sentences) -> EvalReport:
    """Exact (indices, type) matching of predicted vs gold mentions."""
    gold_n = pred_n = correct_n = 0
    per_type: dict[str, dict] = {}

    def bucket(t: str) -> dict:
        return per_type.setdefault(t, {"gold": 0, "predicted": 0, "correct": 0})

    sentences = list(sentences)
    for k, pred in _predicted_mentions(model, sentences):
        gold = sentences[k].entity_set()
        gold_n += len(gold)
        pred_n += len(pred)
        correct_n += len(gold & pred)
        for e in gold:
            bucket(e.type)["gold"] += 1
        for e in pred:
            bucket(e.type)["predicted"] += 1
        for e in gold & pred:
            bucket(e.type)["correct"] += 1

    p, r, f1 = _prf(gold_n, pred_n, correct_n)
    breakdown = {}
    for t, d in per_type.items():
        tp, tr, tf1 = _prf(d["gold"], d["predicted"], d["correct"])
        breakdown[t] = {**d, "precision": tp, "recall": tr, "f1": tf1}
    return EvalReport(
        precision=p, recall=r, f1=f1,
        gold=gold_n, predicted=pred_n, correct=correct_n,
        per_type=breakdown,
    )


# ----------------------------------------------------------------------
# checkpointing


# The archive a checkpoint directory holds.
ARCHIVE_NAME = "checkpoint.npz"

# Manifest keys `Checkpoint.load` reads, with the JSON type each must have.
_MANIFEST_KEYS = {"config": dict, "chars": list, "entity_types": list, "epoch": int}


@dataclass
class Checkpoint:
    config: ModelConfig
    char_vocab: CharVocabulary
    tag_vocab: TagVocabulary
    params: dict
    epoch: int
    history: list
    # The archive `load` read it from, named in data errors.
    path: str | None = None

    def save(self, directory: str) -> None:
        """Write `<directory>/checkpoint.npz`: the manifest as UTF-8 JSON
        bytes in a uint8 member, and one little-endian member per parameter.
        The archive is written to a temporary file beside it, flushed to
        disk and renamed over the old one, so the directory holds the old
        checkpoint or the new one, never a mix."""
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": config_to_flat(self.config),
            "chars": self.char_vocab.chars,
            "entity_types": list(self.tag_vocab.entity_types),
            "epoch": self.epoch,
            "history": self.history,
        }
        text = json.dumps(manifest, ensure_ascii=False).encode("utf-8")
        le = "<f8" if self.config.optimizer.double_precision else "<f4"
        params = {name: np.asarray(array).astype(le) for name, array in self.params.items()}
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, ARCHIVE_NAME)
        with open(path + ".tmp", "wb") as fh:
            np.savez(fh, manifest=np.frombuffer(text, dtype=np.uint8), **params)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(path + ".tmp", path)

    @classmethod
    def load(cls, directory: str) -> "Checkpoint":
        """Read `<directory>/checkpoint.npz`. A damaged archive, manifest
        or parameter raises CorpusError naming the archive; the zip's
        per-member CRC-32 turns a damaged byte into a read error."""
        path = os.path.join(directory, ARCHIVE_NAME)
        if not os.path.exists(path):
            if os.path.exists(os.path.join(directory, "manifest.json")):
                raise ConfigError(
                    f"{directory}: checkpoint formats 1-3 (manifest.json and params/) "
                    "are retired: retrain the model"
                )
            raise CorpusError(f"no checkpoint archive at {path}")
        try:
            params = {}
            with zipfile.ZipFile(path) as archive:
                for member in archive.namelist():
                    name, suffix = os.path.splitext(member)
                    if suffix != ".npy":
                        raise ValueError(f"member {member} is not a .npy array")
                    # `read` checks the member's CRC-32 once it has read it whole.
                    params[name] = np.lib.format.read_array(
                        io.BytesIO(archive.read(member)), allow_pickle=False)
        except Exception as exc:
            # A damaged zip or .npy member raises BadZipFile, NotImplementedError
            # (a flipped compression method, flag or version), EOFError,
            # ValueError, OSError or a decompressor's own error: all are data errors.
            raise CorpusError(f"{path}: unreadable checkpoint archive: {exc}") from None
        raw = params.pop("manifest", None)
        try:
            if raw is None or raw.dtype != np.uint8:
                raise ValueError("no uint8 manifest member")
            manifest = json.loads(raw.tobytes().decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
            raise CorpusError(f"{path}: not a JSON checkpoint manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise CorpusError(f"{path}: checkpoint manifest is not a JSON object")
        version = manifest.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ConfigError(
                f"{path}: unsupported checkpoint format {version!r}; only format "
                f"{CHECKPOINT_FORMAT_VERSION} is read"
            )
        bad = [key for key, kind in _MANIFEST_KEYS.items() if not isinstance(manifest.get(key), kind)]
        for key in ("chars", "entity_types"):
            if key not in bad and not all(isinstance(v, str) for v in manifest[key]):
                bad.append(key)
        if bad:
            raise CorpusError(f"{path}: checkpoint manifest has missing or malformed {', '.join(bad)}")
        flat = manifest["config"]
        # Format-4 manifests written while a softmax regime existed hold
        # predictor.mode; its threshold value is the only regime left.
        if flat.pop("predictor.mode", "threshold") != "threshold":
            raise ConfigError(f"{path}: softmax-mode checkpoints are retired: retrain the model")
        try:
            config = config_from_flat(flat)
            config.validate()
        except ConfigError as exc:
            raise CorpusError(f"{path}: bad checkpoint config: {exc}") from None
        for name, array in params.items():
            # `save` writes finite floats; anything else would fail later, mid-forward.
            if array.dtype.kind != "f" or not np.isfinite(array).all():
                raise CorpusError(f"{path}: checkpoint parameter {name} is not a finite float array")
        return cls(
            config=config,
            char_vocab=CharVocabulary(manifest["chars"][2:]),  # first two slots are pad/unk
            tag_vocab=TagVocabulary(manifest["entity_types"]),
            params=params,
            epoch=manifest["epoch"],
            history=manifest.get("history", []),
            path=path,
        )

    def build_model(self, context_provider: dict | None = None) -> CrenerModel:
        model = CrenerModel(
            self.config, self.char_vocab, self.tag_vocab, context_provider
        )
        try:
            model.store.load_state_dict(self.params)
        except ValueError as exc:  # wrong names, shapes or dtypes
            raise CorpusError(f"{self.path or 'checkpoint'}: {exc}") from None
        return model


def evaluate(checkpoint: Checkpoint, sentences, context_provider=None) -> EvalReport:
    return evaluate_model(checkpoint.build_model(context_provider), sentences)


def predict(checkpoint: Checkpoint, sentences, context_provider=None) -> list[Sentence]:
    """Sentences with entities replaced by model predictions, input order kept."""
    model = checkpoint.build_model(context_provider)
    sentences = list(sentences)
    predicted = dict(_predicted_mentions(model, sentences))
    return [
        Sentence(s.id, list(s.chars), sorted(predicted[k], key=lambda e: (e.indices, e.type)))
        for k, s in enumerate(sentences)
    ]


# ----------------------------------------------------------------------
# training loop


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def _sub_batches(lengths: list[int], max_cells: int) -> list[list[int]]:
    """Positions into `lengths`, sorted by length and cut into contiguous
    sub-batches, in ascending length order, that minimise the sum over
    sub-batches of SUB_BATCH_OVERHEAD_CELLS + size x longest squared. A
    sub-batch holds at most MAX_SUB_BATCH_SENTENCES sentences and, with two
    or more, at most `max_cells` padded cells; a single sentence may hold
    more."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    # best[j]: least cost of the first j sorted sentences; start[j]: where
    # the last sub-batch of that split begins.
    best = np.zeros(len(order) + 1, dtype=np.int64)
    start = [0] * (len(order) + 1)
    positions = np.arange(len(order) + 1)
    for j in range(1, len(order) + 1):
        area = lengths[order[j - 1]] ** 2
        # The last sub-batch is sorted sentences i..j-1: one alone, or up to
        # MAX_SUB_BATCH_SENTENCES within max_cells. Its cost, less the parts
        # that do not depend on i, for each i in [lo, j); the largest i wins
        # a tie.
        lo = max(j - max(1, min(MAX_SUB_BATCH_SENTENCES, max_cells // area)), 0)
        cost = best[lo:j] - area * positions[lo:j]
        start[j] = j - 1 - int(np.argmin(cost[::-1]))
        best[j] = cost[start[j] - lo] + j * area + SUB_BATCH_OVERHEAD_CELLS
    subs: list[list[int]] = []
    j = len(order)
    while j:
        subs.append(order[start[j]:j])
        j = start[j]
    return subs[::-1]


def train(
    config: ModelConfig,
    train_sentences,
    dev_sentences=None,
    context_provider: dict | None = None,
    log_path: str | None = None,
    progress: bool = False,
    stop_at_f1: float | None = None,
) -> Checkpoint:
    """Train from scratch and return the best-dev-F1 checkpoint.

    Vocabularies come from the training split. With no dev split the
    final parameters are kept. `stop_at_f1` stops early once the dev F1
    reaches the bound (useful for overfit probes).
    """
    config.validate()
    if not train_sentences:
        raise CorpusError("empty training corpus")
    char_vocab = CharVocabulary.from_sentences(train_sentences)
    tag_vocab = build_tag_vocabulary(train_sentences)
    model = CrenerModel(config, char_vocab, tag_vocab, context_provider)
    opt_cfg = config.optimizer
    optimizer = Adam(
        model.store,
        learning_rate=opt_cfg.learning_rate,
        weight_decay=opt_cfg.weight_decay,
        grad_clip_norm=opt_cfg.grad_clip_norm,
    )
    shuffle_rng = np.random.default_rng(opt_cfg.seed + 1)
    dropout_rng = np.random.default_rng(opt_cfg.seed + 2)

    history: list[dict] = []
    best_f1 = -1.0
    best_params = model.store.state_dict()
    best_epoch = 0
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, opt_cfg.epochs + 1):
            t0 = time.perf_counter()
            order = shuffle_rng.permutation(len(train_sentences))
            epoch_loss_sum = 0.0
            epoch_cells = 0
            epoch_padded = 0
            norms = []
            clipped = 0
            for batch in _batches(order, opt_cfg.batch_size):
                model.store.zero_grad()
                sentences = [train_sentences[int(idx)] for idx in batch]
                # Drawn in batch order, before sub-batching reorders the sentences.
                dropout = [model.draw_dropout(s, dropout_rng) for s in sentences]
                lengths = [len(s) for s in sentences]
                cells = sum(n * n for n in lengths)
                value = 0.0
                for sub in _sub_batches(lengths, MAX_SUB_BATCH_CELLS):
                    epoch_padded += len(sub) * lengths[sub[-1]] ** 2
                    loss, _ = model.batch_loss(
                        [sentences[k] for k in sub],
                        dropout=[dropout[k] for k in sub],
                    )
                    # Scaled by the whole batch's cells, so the accumulated
                    # gradient is that of the batch's mean loss.
                    loss = loss * (1.0 / max(cells, 1))
                    part = loss.item()
                    if not np.isfinite(part):
                        raise DivergenceError(
                            f"non-finite loss {part} at epoch {epoch}"
                        )
                    loss.backward()
                    value += part
                norms.append(optimizer.step())
                limit = optimizer.max_update_norm
                clipped += limit is not None and norms[-1] > limit
                epoch_loss_sum += value * cells
                epoch_cells += cells

            train_loss = epoch_loss_sum / max(epoch_cells, 1)
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "update_norm_mean": float(np.mean(norms)),
                "update_norm_max": max(norms),
                "clipped_frac": clipped / len(norms),
                "real_cell_frac": epoch_cells / epoch_padded,
            }
            dev_f1 = None
            if dev_sentences is not None:
                report = evaluate_model(model, dev_sentences)
                record.update(
                    dev_p=report.precision, dev_r=report.recall, dev_f1=report.f1
                )
                dev_f1 = report.f1
                if report.f1 > best_f1:
                    best_f1 = report.f1
                    best_params = model.store.state_dict()
                    best_epoch = epoch
            else:
                best_params = model.store.state_dict()
                best_epoch = epoch
            record["seconds"] = round(time.perf_counter() - t0, 3)
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            if progress:
                print(json.dumps(record))
            if stop_at_f1 is not None and dev_f1 is not None and dev_f1 >= stop_at_f1:
                break
    except FloatingPointError as exc:
        raise DivergenceError(str(exc)) from None
    finally:
        if log_fh:
            log_fh.close()

    return Checkpoint(
        config=config,
        char_vocab=char_vocab,
        tag_vocab=tag_vocab,
        params=best_params,
        epoch=best_epoch,
        history=history,
    )
