"""Corpus model, serialization, tag vocabulary, and the grid codec.

The placement convention is the load-bearing contract here: for an
entity [c_1..c_m] of type y, NNC sits at each (c_k, c_{k+1}), PNC at
the mirrored (c_{k+1}, c_k), THC_y at (tail, head), HTC_y at
(head, tail); a single character carries both typed tags on the
diagonal.
"""

import json
import re

import numpy as np
import pytest

from conftest import tag_grid
from crener import corpus as corpus_mod
from crener.corpus import (
    CharVocabulary,
    EntityMention,
    Sentence,
    TagVocabulary,
    build_tag_vocabulary,
    corpus_stats,
    encode_grid,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    sentence_to_obj,
)
from crener.errors import CorpusError


def scalar_draw_corpus(seed, count, max_len, types, min_len, nested_fraction,
                       discontinuous_fraction):
    """`generate_synthetic_corpus` written with one scalar draw per
    character: the oracle for its vector draws."""
    rng = np.random.default_rng(seed)
    pool = corpus_mod._TYPE_ALPHABET_POOL
    alphabets = {
        t: [pool[(4 * i + k) % len(pool)] for k in range(4)] for i, t in enumerate(types)
    }
    background = corpus_mod._BACKGROUND_ALPHABET
    sentences = []
    for si in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        chars = [background[int(rng.integers(len(background)))] for _ in range(n)]
        occupied = np.zeros(n, dtype=bool)
        entities = []
        if types:
            for _ in range(int(rng.integers(0, 4))):
                length = int(rng.integers(1, 5))
                if length > n:
                    continue
                start = int(rng.integers(0, n - length + 1))
                if occupied[start:start + length].any():
                    continue
                occupied[start:start + length] = True
                etype = types[int(rng.integers(len(types)))]
                for p in range(start, start + length):
                    chars[p] = alphabets[etype][int(rng.integers(4))]
                entities.append(EntityMention(tuple(range(start, start + length)), etype))
            if nested_fraction > 0 and rng.random() < nested_fraction:
                outers = [e for e in entities if len(e.indices) >= 3]
                if outers:
                    outer = outers[int(rng.integers(len(outers)))]
                    lo, hi = outer.head, outer.tail
                    a = int(rng.integers(lo, hi + 1))
                    b = int(rng.integers(a, hi + 1))
                    if (a, b) != (lo, hi):
                        etype = types[int(rng.integers(len(types)))]
                        inner = EntityMention(tuple(range(a, b + 1)), etype)
                        if inner not in entities:
                            entities.append(inner)
            if discontinuous_fraction > 0 and rng.random() < discontinuous_fraction and n >= 3:
                free = np.flatnonzero(~occupied)
                gaps = [p for p in free[:-2] if not occupied[p + 2] and p + 2 < n]
                if gaps:
                    a = int(gaps[int(rng.integers(len(gaps)))])
                    etype = types[int(rng.integers(len(types)))]
                    occupied[a] = occupied[a + 2] = True
                    chars[a] = alphabets[etype][int(rng.integers(4))]
                    chars[a + 2] = alphabets[etype][int(rng.integers(4))]
                    entities.append(EntityMention((a, a + 2), etype))
        entities.sort(key=lambda e: (e.indices, e.type))
        sentences.append(Sentence(f"syn-{seed}-{si:05d}", chars, entities))
    return sentences


class TestDataModel:
    def test_entity_indices_must_strictly_increase(self):
        with pytest.raises(CorpusError):
            EntityMention((2, 1), "PER")
        with pytest.raises(CorpusError):
            EntityMention((1, 1), "PER")
        with pytest.raises(CorpusError):
            EntityMention((), "PER")
        with pytest.raises(CorpusError):
            EntityMention((-1, 0), "PER")

    def test_discontinuous_flag(self):
        assert EntityMention((0, 1, 2), "X").is_contiguous()
        assert not EntityMention((0, 2), "X").is_contiguous()
        e = EntityMention((3, 5, 6), "X")
        assert (e.head, e.tail) == (3, 6)

    def test_sentence_rejects_empty_and_out_of_range(self):
        with pytest.raises(CorpusError):
            Sentence("s", [], [])
        with pytest.raises(CorpusError):
            Sentence("s", ["a", "b"], [EntityMention((1, 2), "X")])

    def test_entity_set_ignores_duplicates(self):
        e = EntityMention((0, 1), "X")
        s = Sentence("s", ["a", "b"], [e, EntityMention((0, 1), "X")])
        assert s.entity_set() == {e}


class TestTagVocabulary:
    def test_order_and_size_implicit(self):
        vocab = TagVocabulary(["A", "B"])
        assert vocab.tags == ("NNC", "PNC", "THC_A", "THC_B", "HTC_A", "HTC_B")
        assert len(vocab) == 2 + 2 * 2
        assert vocab.nnc_id == 0 and vocab.pnc_id == 1

    def test_given_type_order_is_preserved(self):
        # Sorting is the corpus builder's job; the vocabulary itself must
        # keep whatever order it is handed (checkpoints depend on this).
        vocab = TagVocabulary(["B", "A"])
        assert vocab.tags == ("NNC", "PNC", "THC_B", "THC_A", "HTC_B", "HTC_A")

    def test_unknown_type_and_tag(self):
        vocab = TagVocabulary(["A"])
        with pytest.raises(CorpusError):
            vocab.thc_id("Z")
        with pytest.raises(CorpusError):
            vocab.htc_id("Z")
        with pytest.raises(CorpusError):
            vocab.tag_id("BOGUS")

    def test_duplicate_types_rejected(self):
        with pytest.raises(CorpusError, match="duplicate entity types"):
            TagVocabulary(["A", "B", "A"])


class TestGridCodec:
    def test_three_char_entity_placement(self):
        # Entity over characters 0..2: two NNC/PNC mirror pairs plus the
        # typed corner tags at (tail, head) and (head, tail).
        vocab = TagVocabulary(["PER"])
        s = Sentence("s", list("abc"), [EntityMention((0, 1, 2), "PER")])
        grid = encode_grid(s, vocab)
        expect = tag_grid(3, vocab, [
            (0, 1, vocab.nnc_id),
            (1, 2, vocab.nnc_id),
            (1, 0, vocab.pnc_id),
            (2, 1, vocab.pnc_id),
            (2, 0, vocab.thc_id("PER")),
            (0, 2, vocab.htc_id("PER")),
        ])
        assert grid.dtype == bool
        np.testing.assert_array_equal(grid, expect)

    def test_single_char_entity_both_tags_on_diagonal(self):
        vocab = TagVocabulary(["LOC"])
        s = Sentence("s", list("ab"), [EntityMention((1,), "LOC")])
        grid = encode_grid(s, vocab)
        expect = tag_grid(2, vocab, [(1, 1, vocab.thc_id("LOC")), (1, 1, vocab.htc_id("LOC"))])
        np.testing.assert_array_equal(grid, expect)

    def test_discontinuous_entity_shares_cell(self):
        # For indices (0, 2) the PNC and THC land on the same cell.
        vocab = TagVocabulary(["X"])
        s = Sentence("s", list("abc"), [EntityMention((0, 2), "X")])
        grid = encode_grid(s, vocab)
        assert set(np.flatnonzero(grid[2, 0])) == {vocab.pnc_id, vocab.thc_id("X")}
        assert set(np.flatnonzero(grid[0, 2])) == {vocab.nnc_id, vocab.htc_id("X")}


class TestCharVocabulary:
    def test_reserved_slots(self):
        vocab = CharVocabulary(["x", "y"])
        assert vocab.pad_id == 0 and vocab.unk_id == 1
        assert len(vocab) == 4

    def test_encode_unknown_handling(self):
        vocab = CharVocabulary(["x"])
        ids = vocab.encode(["x", "q"])
        assert ids.tolist() == [2, vocab.unk_id]

    def test_from_sentences_first_seen_order(self):
        sents = [Sentence("a", list("ba"), []), Sentence("b", list("ac"), [])]
        vocab = CharVocabulary.from_sentences(sents)
        assert vocab.chars[2:] == ["b", "a", "c"]


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        sents = generate_synthetic_corpus(seed=3, count=25, max_len=14, types=["A", "B"])
        path = tmp_path / "corpus.jsonl"
        save_corpus(sents, path)
        back = load_corpus(path)
        assert [sentence_to_obj(s) for s in back] == [sentence_to_obj(s) for s in sents]

    def test_jsonl_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": ["x"], "entities": []}\nnot json\n')
        with pytest.raises(CorpusError, match=r"bad\.jsonl:2"):
            load_corpus(path)

    def test_jsonl_bad_entity_indices(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "a", "text": ["x", "y"], "entities": [{"indices": [1, 0], "type": "T"}]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=":1"):
            load_corpus(path)

    @pytest.mark.parametrize("entities, phrase", [
        ([{"indices": [0], "type": 3}], "'type' must be a string"),
        ([{"indices": [1.7], "type": "T"}], "'indices' must be a list of integers"),
        ([{"indices": [True], "type": "T"}], "'indices' must be a list of integers"),
        ([{"indices": "01", "type": "T"}], "'indices' must be a list of integers"),
        ([{"type": "T"}], "needs 'indices' and 'type'"),
        (5, "'entities' must be a list"),
    ], ids=["type-int", "index-float", "index-bool", "indices-string", "no-indices",
            "entities-int"])
    def test_jsonl_mistyped_entity(self, tmp_path, entities, phrase):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "text": ["x", "y"], "entities": []}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "entities": entities}) + "\n")
        with pytest.raises(CorpusError, match=rf"bad\.jsonl:2: .*{re.escape(phrase)}"):
            load_corpus(path)

    def test_jsonl_missing_text(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(CorpusError, match="text"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")


class TestConll:
    def _load(self, tmp_path, text):
        path = tmp_path / "data.conll"
        path.write_text(text)
        return load_corpus(path, format="conll")

    def test_bio_spans(self, tmp_path):
        text = "中\tB-LOC\n国\tI-LOC\n人\tO\n\n北\tB-LOC\n"
        sents = self._load(tmp_path, text)
        assert len(sents) == 2
        assert sents[0].entity_set() == {EntityMention((0, 1), "LOC")}
        assert sents[1].entity_set() == {EntityMention((0,), "LOC")}

    def test_bmes_spans(self, tmp_path):
        text = "王\tB-PER\n小\tM-PER\n明\tE-PER\n在\tO\n沪\tS-LOC\n"
        sents = self._load(tmp_path, text)
        assert sents[0].entity_set() == {
            EntityMention((0, 1, 2), "PER"),
            EntityMention((4,), "LOC"),
        }

    def test_lenient_continuation_without_begin(self, tmp_path):
        # An I- after O opens a new span rather than erroring out.
        sents = self._load(tmp_path, "a\tO\nb\tI-X\nc\tI-X\n")
        assert sents[0].entity_set() == {EntityMention((1, 2), "X")}

    def test_type_change_splits_span(self, tmp_path):
        sents = self._load(tmp_path, "a\tB-X\nb\tI-Y\n")
        assert sents[0].entity_set() == {
            EntityMention((0,), "X"),
            EntityMention((1,), "Y"),
        }

    def test_bad_label_reports_location(self, tmp_path):
        with pytest.raises(CorpusError, match="unrecognized label"):
            self._load(tmp_path, "a\tQ_X\n")

    def test_bad_column_count(self, tmp_path):
        with pytest.raises(CorpusError, match=":2"):
            self._load(tmp_path, "a\tO\nb\tO\textra\n")


class TestStatsAndSynthesis:
    def test_corpus_stats_counts(self):
        sents = [
            Sentence("a", list("abcd"), [
                EntityMention((0, 1), "X"),
                EntityMention((3,), "Y"),
            ]),
            Sentence("b", list("ab"), [EntityMention((0,), "X")]),
        ]
        stats = corpus_stats(sents)
        assert stats["sentences"] == 2
        assert stats["entities"] == 3
        assert stats["entity_types"] == ["X", "Y"]
        assert stats["entities_per_type"] == {"X": 2, "Y": 1}
        assert stats["max_sentence_length"] == 4
        assert stats["typed_tag_collisions"] == 0

    def test_typed_tag_collision_detected(self):
        # Same span tagged with two types puts THC_X and THC_Y (and the
        # HTC pair) in shared cells.
        sents = [Sentence("a", list("abc"), [
            EntityMention((0, 1, 2), "X"),
            EntityMention((0, 1, 2), "Y"),
        ])]
        assert corpus_stats(sents)["typed_tag_collisions"] == 2

    def test_synthetic_deterministic(self):
        a = generate_synthetic_corpus(seed=7, count=40, max_len=12, types=["A", "B"])
        b = generate_synthetic_corpus(seed=7, count=40, max_len=12, types=["A", "B"])
        assert [sentence_to_obj(s) for s in a] == [sentence_to_obj(s) for s in b]
        c = generate_synthetic_corpus(seed=8, count=40, max_len=12, types=["A", "B"])
        assert [sentence_to_obj(s) for s in a] != [sentence_to_obj(s) for s in c]

    def test_synthetic_ids_differ_across_seeds(self):
        # The quick start's train (seed 1) and dev (seed 2) corpora; a vector
        # sidecar is keyed by sentence id, so one file covers both only if
        # no id repeats.
        train = generate_synthetic_corpus(seed=1, count=200, max_len=12, types=["PER", "LOC"])
        dev = generate_synthetic_corpus(seed=2, count=50, max_len=12, types=["PER", "LOC"])
        ids = [s.id for s in train + dev]
        assert len(set(ids)) == len(ids)

    def test_synthetic_entities_well_formed(self):
        sents = generate_synthetic_corpus(
            seed=11, count=60, max_len=10, types=["A", "B", "C"],
            nested_fraction=0.5, discontinuous_fraction=0.5,
        )
        assert any(s.entities for s in sents)
        assert any(not e.is_contiguous() for s in sents for e in s.entities)
        for s in sents:
            for e in s.entities:
                assert 0 <= e.head and e.tail < len(s)

    def test_synthetic_plain_mode_contiguous_only(self):
        sents = generate_synthetic_corpus(seed=2, count=50, max_len=30, types=list("ABCD"))
        assert all(e.is_contiguous() for s in sents for e in s.entities)

    @pytest.mark.parametrize("seed, min_len, max_len, types, nested, discontinuous", [
        (0, 1, 8, ["A", "B"], 0.0, 0.0),
        (1, 1, 1, ["A"], 0.5, 0.5),
        (5, 4, 16, ["A", "B"], 0.3, 0.3),
        (9, 48, 64, ["PER", "LOC", "ORG"], 0.2, 0.2),
        (13, 2, 30, list("ABCD"), 1.0, 1.0),
        (17, 1, 12, [], 0.5, 0.5),
    ])
    def test_synthetic_matches_scalar_draws(self, seed, min_len, max_len, types,
                                            nested, discontinuous):
        got = generate_synthetic_corpus(
            seed=seed, count=40, max_len=max_len, types=types, min_len=min_len,
            nested_fraction=nested, discontinuous_fraction=discontinuous,
        )
        expect = scalar_draw_corpus(seed, 40, max_len, types, min_len, nested, discontinuous)
        assert [sentence_to_obj(s) for s in got] == [sentence_to_obj(s) for s in expect]

    def test_build_tag_vocabulary_sorts_types(self):
        sents = [Sentence("a", list("ab"), [
            EntityMention((0,), "Z"),
            EntityMention((1,), "M"),
        ])]
        assert build_tag_vocabulary(sents).entity_types == ("M", "Z")


def test_encode_sets_accumulate_for_nested_mentions():
    vocab = TagVocabulary(["A", "B"])
    s = Sentence("s", list("abcd"), [
        EntityMention((0, 1, 2, 3), "A"),
        EntityMention((1, 2), "B"),
    ])
    grid = encode_grid(s, vocab)
    # The inner mention drops its HTC into the outer chain's NNC cell.
    assert set(np.flatnonzero(grid[1, 2])) == {vocab.nnc_id, vocab.htc_id("B")}
    assert set(np.flatnonzero(grid[2, 1])) == {vocab.pnc_id, vocab.thc_id("B")}
    assert set(np.flatnonzero(grid[3, 0])) == {vocab.thc_id("A")}


def test_encode_grid_positions_match_mask_free_scan(rng):
    # Property: every NNC has its PNC mirror, and typed corners agree
    # with the mention list.
    sents = generate_synthetic_corpus(seed=21, count=30, max_len=16, types=["A", "B"])
    vocab = build_tag_vocabulary(sents)
    for s in sents:
        grid = encode_grid(s, vocab)
        for i, j in zip(*np.nonzero(grid[:, :, vocab.nnc_id])):
            assert grid[j, i, vocab.pnc_id]
        for e in s.entities:
            assert grid[e.tail, e.head, vocab.thc_id(e.type)]
            assert grid[e.head, e.tail, vocab.htc_id(e.type)]
