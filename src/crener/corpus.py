"""Corpus ingestion, vocabularies, and the entity <-> tag-grid codec.

Entities are strictly increasing character index sequences with a type
label. The grid codec maps them onto a boolean (N, N, |R|) array, where
grid[i, j, t] means cell (i, j) carries tag t of a four-role schema:

* NNC / PNC: untyped, mark consecutive same-entity characters in the
  upper / lower triangle,
* THC_y / HTC_y: typed, link the tail and head characters of a type-y
  entity at (tail, head) and (head, tail).

A cell may carry several tags; the absence of tags is implicit and has no
tag of its own.

Gold and predicted grids share this one format; a predicted grid may
break the triangle placement rules.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusError

NNC = "NNC"
PNC = "PNC"

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Synthetic-corpus alphabets: one small block per entity type plus a
# disjoint background pool, so entity membership is learnable from
# character identity alone.
_TYPE_ALPHABET_POOL = "甲乙丙丁戊己庚辛壬癸子丑寅卯辰巳午未申酉戌亥"
_BACKGROUND_ALPHABET = "天地玄黄宇宙洪荒日月盈昃寒来暑往"


@dataclass(frozen=True, slots=True)
class EntityMention:
    """One entity: its character positions (strictly increasing) and type.

    Slotted: a prediction holds hundreds of mentions per long sentence, and
    without an instance dict each one takes about 100 bytes less.
    """

    indices: tuple[int, ...]
    type: str

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if not indices:
            raise CorpusError("entity has no indices")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise CorpusError(f"entity indices not strictly increasing: {list(indices)}")
        if indices[0] < 0:
            raise CorpusError(f"negative entity index: {indices[0]}")
        if not self.type:
            raise CorpusError("entity has empty type label")

    @classmethod
    def trusted(cls, indices: tuple[int, ...], type: str) -> "EntityMention":
        """A mention built without `__post_init__`'s conversion and checks,
        for a caller whose `indices` are already a tuple of strictly
        increasing non-negative ints and whose `type` is not empty."""
        mention = object.__new__(cls)
        object.__setattr__(mention, "indices", indices)
        object.__setattr__(mention, "type", type)
        return mention

    @property
    def head(self) -> int:
        return self.indices[0]

    @property
    def tail(self) -> int:
        return self.indices[-1]


@dataclass
class Sentence:
    """A character sequence with gold entity mentions."""

    id: str
    chars: list[str]
    entities: list[EntityMention] = field(default_factory=list)

    def __post_init__(self):
        if len(self.chars) == 0:
            raise CorpusError(f"sentence {self.id!r} is empty")
        n = len(self.chars)
        for ent in self.entities:
            if ent.tail >= n:
                raise CorpusError(
                    f"sentence {self.id!r}: entity index {ent.tail} out of range (N={n})"
                )

    def __len__(self) -> int:
        return len(self.chars)

    def entity_set(self) -> set[EntityMention]:
        return set(self.entities)


class TagVocabulary:
    """The tag schema instantiated for a fixed, ordered set of entity types.

    Tag order is [NNC, PNC] + THC per type + HTC per type.
    """

    def __init__(self, entity_types):
        self.entity_types: tuple[str, ...] = tuple(entity_types)
        if len(set(self.entity_types)) != len(self.entity_types):
            raise CorpusError("duplicate entity types")
        tags = [NNC, PNC]
        tags += [f"THC_{y}" for y in self.entity_types]
        tags += [f"HTC_{y}" for y in self.entity_types]
        self.tags: tuple[str, ...] = tuple(tags)
        self._ids = {t: i for i, t in enumerate(self.tags)}

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def nnc_id(self) -> int:
        return self._ids[NNC]

    @property
    def pnc_id(self) -> int:
        return self._ids[PNC]

    def thc_id(self, entity_type: str) -> int:
        try:
            return self._ids[f"THC_{entity_type}"]
        except KeyError:
            raise CorpusError(f"unknown entity type {entity_type!r}") from None

    def htc_id(self, entity_type: str) -> int:
        try:
            return self._ids[f"HTC_{entity_type}"]
        except KeyError:
            raise CorpusError(f"unknown entity type {entity_type!r}") from None

    def tag_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise CorpusError(f"unknown tag {name!r}") from None

    @property
    def typed_slices(self) -> tuple[slice, slice]:
        """Tag-axis slices of the THC and HTC slabs, each in entity_types order."""
        start, k = self.pnc_id + 1, len(self.entity_types)
        return slice(start, start + k), slice(start + k, start + 2 * k)


class CharVocabulary:
    """Character-to-id map with reserved padding and unknown slots."""

    def __init__(self, chars):
        self.chars: list[str] = [PAD_TOKEN, UNK_TOKEN]
        seen = set(self.chars)
        for ch in chars:
            if ch not in seen:
                seen.add(ch)
                self.chars.append(ch)
        self._ids = {ch: i for i, ch in enumerate(self.chars)}

    @classmethod
    def from_sentences(cls, sentences) -> "CharVocabulary":
        ordered: dict[str, None] = {}
        for s in sentences:
            for ch in s.chars:
                ordered.setdefault(ch)
        return cls(ordered.keys())

    def __len__(self) -> int:
        return len(self.chars)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def encode(self, chars) -> np.ndarray:
        """Character ids; a character outside the alphabet maps to `unk_id`."""
        return np.asarray([self._ids.get(ch, self.unk_id) for ch in chars], dtype=np.int64)


# ----------------------------------------------------------------------
# serialization


def _sentence_from_obj(obj, where: str) -> Sentence:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: record is not an object")
    if "text" not in obj:
        raise CorpusError(f"{where}: missing 'text' field")
    chars = obj["text"]
    if not isinstance(chars, list) or not all(isinstance(c, str) for c in chars):
        raise CorpusError(f"{where}: 'text' must be a list of characters")
    records = obj.get("entities", [])
    if not isinstance(records, list):
        raise CorpusError(f"{where}: 'entities' must be a list")
    entities = []
    for k, ent in enumerate(records):
        if not isinstance(ent, dict) or "indices" not in ent or "type" not in ent:
            raise CorpusError(f"{where}: malformed entity #{k}: needs 'indices' and 'type'")
        indices, etype = ent["indices"], ent["type"]
        # bool is an int subclass, and int() would truncate a float index.
        if not isinstance(indices, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in indices
        ):
            raise CorpusError(f"{where}: entity #{k}: 'indices' must be a list of integers")
        if not isinstance(etype, str):
            raise CorpusError(f"{where}: entity #{k}: 'type' must be a string")
        try:
            entities.append(EntityMention(tuple(indices), etype))
        except CorpusError as exc:
            raise CorpusError(f"{where}: entity #{k}: {exc}") from None
    sid = str(obj.get("id", where))
    try:
        return Sentence(sid, list(chars), entities)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def sentence_to_obj(sentence: Sentence) -> dict:
    return {
        "id": sentence.id,
        "text": list(sentence.chars),
        "entities": [
            {"indices": list(e.indices), "type": e.type} for e in sentence.entities
        ],
    }


def read_lines(path):
    """(line number, line) pairs of a UTF-8 text file; bytes that are not
    UTF-8 raise a CorpusError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_jsonl(path):
    """("<path>:<line>", record) for each non-blank line of a JSONL file, one
    at a time; a line that is not JSON raises a CorpusError naming it."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{where}: invalid json: {exc}") from None
        yield where, record


def _entities_from_labels(labels: list[str], where: str) -> list[EntityMention]:
    """Convert a BIO or BMES label column into entity mentions."""
    entities = []
    start = None
    cur_type = None

    def close(end: int):
        nonlocal start, cur_type
        if start is not None:
            entities.append(EntityMention(tuple(range(start, end)), cur_type))
        start, cur_type = None, None

    for pos, label in enumerate(labels):
        if label == "O" or label == "":
            close(pos)
            continue
        if len(label) < 3 or label[1] != "-":
            raise CorpusError(f"{where}: unrecognized label {label!r}")
        prefix, etype = label[0], label[2:]
        if prefix == "B":
            close(pos)
            start, cur_type = pos, etype
        elif prefix in ("I", "M"):
            if start is None or etype != cur_type:
                close(pos)
                start, cur_type = pos, etype
        elif prefix == "E":
            if start is None or etype != cur_type:
                start, cur_type = pos, etype
            close(pos + 1)
        elif prefix == "S":
            close(pos)
            entities.append(EntityMention((pos,), etype))
        else:
            raise CorpusError(f"{where}: unrecognized label prefix in {label!r}")
    close(len(labels))
    return entities


def read_conll(path):
    """The sentences of a CoNLL file, one at a time: one `char<TAB>label`
    line per character (BIO or BMES labels), blank lines between
    sentences. The k-th sentence's id is `conll-<k>`; a bad line raises a
    CorpusError naming the file and line, and a bad label one naming the
    sentence's first line."""
    chars: list[str] = []
    labels: list[str] = []
    block_start, count = 1, 0
    # A blank line after the last one ends the final sentence.
    for lineno, line in itertools.chain(read_lines(path), [(0, "")]):
        line = line.rstrip("\n")
        if line.strip():
            cols = line.split("\t") if "\t" in line else line.split()
            if len(cols) != 2:
                raise CorpusError(
                    f"{path}:{lineno}: expected 'char<TAB>label', got {len(cols)} columns"
                )
            chars.append(cols[0])
            labels.append(cols[1])
            continue
        if chars:
            entities = _entities_from_labels(labels, f"{path}:{block_start}")
            yield Sentence(f"conll-{count}", chars, entities)
            count += 1
        chars, labels = [], []
        block_start = lineno + 1


def load_corpus(path, format: str = "jsonl") -> list[Sentence]:
    """Load a corpus file; `format` is "jsonl" or "conll"."""
    if not os.path.exists(path):
        raise CorpusError(f"corpus file not found: {path}")
    if format == "jsonl":
        sentences = (_sentence_from_obj(obj, where) for where, obj in read_jsonl(path))
    elif format == "conll":
        sentences = read_conll(path)
    else:
        raise CorpusError(f"unknown corpus format {format!r}")
    return list(sentences)


def sentences_to_jsonl(sentences) -> str:
    """One `sentence_to_obj` JSON line per sentence, characters unescaped."""
    return "".join(json.dumps(sentence_to_obj(s), ensure_ascii=False) + "\n" for s in sentences)


def save_corpus(sentences, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sentences_to_jsonl(sentences))


# ----------------------------------------------------------------------
# vocabulary and grid codec


def build_tag_vocabulary(sentences) -> TagVocabulary:
    """Tag vocabulary over the sorted distinct entity types in `sentences`."""
    types = sorted({e.type for s in sentences for e in s.entities})
    return TagVocabulary(types)


def encode_grid(sentence: Sentence, vocab: TagVocabulary) -> np.ndarray:
    """Gold boolean (n, n, |R|) grid for a sentence.

    For entity [c_1..c_m] of type y: NNC at each (c_k, c_{k+1}), PNC at
    (c_{k+1}, c_k), THC_y at (c_m, c_1), HTC_y at (c_1, c_m). A
    single-character entity carries both typed tags on the diagonal.
    A cell may carry several tags, so overlapping entities may share cells.
    """
    n = len(sentence)
    grid = np.zeros((n, n, len(vocab)), dtype=bool)
    for ent in sentence.entities:
        idx = ent.indices
        for a, b in zip(idx, idx[1:]):
            grid[a, b, vocab.nnc_id] = True
            grid[b, a, vocab.pnc_id] = True
        grid[ent.tail, ent.head, vocab.thc_id(ent.type)] = True
        grid[ent.head, ent.tail, vocab.htc_id(ent.type)] = True
    return grid


def corpus_stats(sentences) -> dict:
    """Table-style corpus counts plus typed-tag collision diagnostics.

    A collision is a grid cell that receives typed tags of two different
    entity types (possible when mentions overlap); such cells are legal
    (a cell may carry several tags) but worth surfacing.
    """
    vocab = build_tag_vocabulary(sentences)
    thc, htc = vocab.typed_slices
    n_entities = 0
    max_len = 0
    chars = set()
    collisions = 0
    per_type: dict[str, int] = {t: 0 for t in vocab.entity_types}
    for s in sentences:
        n_entities += len(s.entities)
        max_len = max(max_len, len(s))
        chars.update(s.chars)
        for e in s.entities:
            per_type[e.type] += 1
        grid = encode_grid(s, vocab)
        types_here = (grid[:, :, thc] | grid[:, :, htc]).sum(axis=-1)
        collisions += int((types_here > 1).sum())
    return {
        "sentences": len(sentences),
        "entities": n_entities,
        "entity_types": list(vocab.entity_types),
        "entities_per_type": per_type,
        "distinct_characters": len(chars),
        "max_sentence_length": max_len,
        "typed_tag_collisions": collisions,
    }


# ----------------------------------------------------------------------
# synthetic data


def generate_synthetic_corpus(
    seed: int,
    count: int,
    max_len: int,
    types,
    min_len: int = 1,
    nested_fraction: float = 0.0,
    discontinuous_fraction: float = 0.0,
) -> list[Sentence]:
    """Deterministic synthetic sentences with non-overlapping contiguous
    entities; optional fractions of sentences gain a nested mention or a
    two-part discontinuous mention.

    Each entity type draws characters from its own small alphabet so
    that a lookup embedder can learn the tagging from character
    identity. A sentence's background and an entity's characters are
    each one vector draw, which yields the values, and leaves the
    generator in the state, of one scalar draw per character. Mentions
    are built with `EntityMention.trusted`: their indices are strictly
    increasing by construction, and every type is checked once here.
    Sentence i is named `syn-<seed>-<i, five digits>`, so corpora drawn
    with different seeds share no id and one vector sidecar can cover them.
    """
    if count < 0 or max_len < 1 or min_len < 1 or min_len > max_len:
        raise ValueError("count >= 0 and 1 <= min_len <= max_len required")
    types = list(types)
    if not all(types):
        raise CorpusError("entity has empty type label")
    rng = np.random.default_rng(seed)
    pool = _TYPE_ALPHABET_POOL
    alphabets = {
        t: [pool[(4 * i + k) % len(pool)] for k in range(4)] for i, t in enumerate(types)
    }
    background = _BACKGROUND_ALPHABET

    sentences = []
    for si in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        chars = [background[k] for k in rng.integers(len(background), size=n).tolist()]
        occupied = [False] * n
        entities: list[EntityMention] = []
        if types:
            for _ in range(int(rng.integers(0, 4))):
                length = int(rng.integers(1, 5))
                if length > n:
                    continue
                start = int(rng.integers(0, n - length + 1))
                if any(occupied[start:start + length]):
                    continue
                occupied[start:start + length] = [True] * length
                etype = types[int(rng.integers(len(types)))]
                picks = rng.integers(4, size=length).tolist()
                chars[start:start + length] = [alphabets[etype][k] for k in picks]
                entities.append(EntityMention.trusted(tuple(range(start, start + length)), etype))

            if nested_fraction > 0 and rng.random() < nested_fraction:
                outers = [e for e in entities if len(e.indices) >= 3]
                if outers:
                    outer = outers[int(rng.integers(len(outers)))]
                    lo, hi = outer.head, outer.tail
                    a = int(rng.integers(lo, hi + 1))
                    b = int(rng.integers(a, hi + 1))
                    if (a, b) != (lo, hi):
                        etype = types[int(rng.integers(len(types)))]
                        inner = EntityMention.trusted(tuple(range(a, b + 1)), etype)
                        if inner not in entities:
                            entities.append(inner)

            if discontinuous_fraction > 0 and rng.random() < discontinuous_fraction and n >= 3:
                free = [p for p, used in enumerate(occupied) if not used]
                gaps = [p for p in free[:-2] if not occupied[p + 2] and p + 2 < n]
                if gaps:
                    a = gaps[int(rng.integers(len(gaps)))]
                    etype = types[int(rng.integers(len(types)))]
                    occupied[a] = occupied[a + 2] = True
                    chars[a] = alphabets[etype][int(rng.integers(4))]
                    chars[a + 2] = alphabets[etype][int(rng.integers(4))]
                    entities.append(EntityMention.trusted((a, a + 2), etype))

        entities.sort(key=lambda e: (e.indices, e.type))
        sentences.append(Sentence(f"syn-{seed}-{si:05d}", chars, entities))
    return sentences
