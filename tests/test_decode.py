"""Grid-to-mention decoding against a brute-force enumerator.

decode_grid tests each typed trigger's span against the unbroken
NNC/PNC chains (contiguous mode) or searches its paths (discontinuous
mode); brute_force_decode tests every candidate index sequence against
the same acceptance rule. On any grid, noisy or not, the two must agree.
"""

import numpy as np
import pytest

from conftest import tag_grid
from crener.corpus import (
    EntityMention,
    Sentence,
    TagVocabulary,
    build_tag_vocabulary,
    encode_grid,
    generate_synthetic_corpus,
)
from crener.decode import decode_grid
from oracles import brute_force_decode


def make_vocab(n_types=1):
    return TagVocabulary([chr(ord("A") + i) for i in range(n_types)])


def test_three_char_entity_round_trip():
    vocab = make_vocab()
    s = Sentence("s", list("wxyz"), [EntityMention((1, 2, 3), "A")])
    grid = encode_grid(s, vocab)
    assert decode_grid(grid, vocab) == {EntityMention((1, 2, 3), "A")}


def test_single_char_entity():
    vocab = make_vocab()
    grid = tag_grid(3, vocab, [(2, 2, vocab.thc_id("A")), (2, 2, vocab.htc_id("A"))])
    assert decode_grid(grid, vocab) == {EntityMention((2,), "A")}


def test_one_sided_diagonal_tag_still_triggers():
    # Either typed tag alone is a trigger; the chain rule does the
    # filtering. A bare THC on the diagonal is a single-char mention.
    vocab = make_vocab()
    grid = tag_grid(2, vocab, [(0, 0, vocab.thc_id("A"))])
    assert decode_grid(grid, vocab) == {EntityMention((0,), "A")}


def test_trigger_without_chain_yields_nothing():
    vocab = make_vocab()
    grid = tag_grid(4, vocab, [(3, 0, vocab.thc_id("A"))])  # no NNC/PNC support
    assert decode_grid(grid, vocab) == set()


def test_half_edge_is_not_enough():
    # NNC without the mirrored PNC must not connect the pair.
    vocab = make_vocab()
    grid = tag_grid(2, vocab, [(1, 0, vocab.thc_id("A")), (0, 1, vocab.nnc_id)])
    assert decode_grid(grid, vocab) == set()
    grid[1, 0, vocab.pnc_id] = True
    assert decode_grid(grid, vocab) == {EntityMention((0, 1), "A")}


def test_nested_mentions_decode_together():
    vocab = make_vocab(2)
    s = Sentence("s", list("abcd"), [
        EntityMention((0, 1, 2, 3), "A"),
        EntityMention((1, 2), "B"),
    ])
    grid = encode_grid(s, vocab)
    assert decode_grid(grid, vocab) == s.entity_set()


def test_discontinuous_entity_needs_discontinuous_mode():
    vocab = make_vocab()
    s = Sentence("s", list("abc"), [EntityMention((0, 2), "A")])
    grid = encode_grid(s, vocab)
    assert decode_grid(grid, vocab, contiguous=True) == set()
    assert decode_grid(grid, vocab, contiguous=False) == {EntityMention((0, 2), "A")}


def test_discontinuous_mode_never_steps_past_the_tail():
    vocab = make_vocab()
    # Chain 0-1-2 with trigger at tail 2, plus a stray edge 2-3.
    grid = tag_grid(4, vocab, [
        (0, 1, vocab.nnc_id),
        (1, 0, vocab.pnc_id),
        (1, 2, vocab.nnc_id),
        (2, 1, vocab.pnc_id),
        (2, 3, vocab.nnc_id),
        (3, 2, vocab.pnc_id),
        (2, 0, vocab.thc_id("A")),
    ])
    out = decode_grid(grid, vocab, contiguous=False)
    assert all(e.tail <= 2 for e in out)
    assert EntityMention((0, 1, 2), "A") in out


def test_multiple_paths_all_emitted():
    # Head 0, tail 3, edges 0-1-3 and 0-2-3: both index sequences carry
    # the same trigger and both must come out in discontinuous mode.
    vocab = make_vocab()
    grid = tag_grid(4, vocab, [(3, 0, vocab.thc_id("A"))])
    for a, b in [(0, 1), (1, 3), (0, 2), (2, 3)]:
        grid[a, b, vocab.nnc_id] = True
        grid[b, a, vocab.pnc_id] = True
    out = decode_grid(grid, vocab, contiguous=False)
    assert out == {EntityMention((0, 1, 3), "A"), EntityMention((0, 2, 3), "A")}


def random_grid(rng, n, vocab, density):
    return rng.random((n, n, len(vocab))) < density


@pytest.mark.parametrize("contiguous", [True, False])
def test_matches_brute_force_on_random_grids(rng, contiguous):
    vocab = make_vocab(2)
    # Contiguous grids go up to the oracle's cap; a dense discontinuous
    # grid has exponentially many paths, so those stop at n = 8.
    max_n = 12 if contiguous else 8
    # Sparse grids as noisy predictions produce them, then dense ones as
    # an untrained model's (it tags nearly every cell).
    for low, high in [(0.02, 0.5), (0.9, 1.0)]:
        for _ in range(300):
            n = int(rng.integers(1, max_n + 1))
            density = float(rng.uniform(low, high))
            grid = random_grid(rng, n, vocab, density)
            fast = decode_grid(grid, vocab, contiguous=contiguous)
            slow = brute_force_decode(grid, vocab, contiguous=contiguous)
            assert fast == slow, f"n={n} density={density:.3f} cells={np.argwhere(grid).tolist()}"


def test_dense_triggers_broken_chain():
    # As an untrained model's grid: every tag on every cell, except that
    # link 1 -> 2 lacks its NNC and link 3 -> 4 its PNC. Contiguous
    # mentions are exactly the spans inside the unbroken runs 0-1, 2-3
    # and 4-5, of both types.
    vocab = make_vocab(2)
    grid = np.ones((6, 6, len(vocab)), dtype=bool)
    grid[1, 2, vocab.nnc_id] = False
    grid[4, 3, vocab.pnc_id] = False
    spans = [(0,), (1,), (0, 1), (2,), (3,), (2, 3), (4,), (5,), (4, 5)]
    expect = {EntityMention(span, y) for span in spans for y in "AB"}
    assert decode_grid(grid, vocab) == expect
    assert brute_force_decode(grid, vocab) == expect


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("n", [0, 1])
def test_grids_without_links(n, contiguous):
    # n = 0 and n = 1 have no link at all: the empty grid decodes to
    # nothing, and the one cell, every tag set, to a single-character
    # mention.
    vocab = make_vocab()
    grid = np.ones((n, n, len(vocab)), dtype=bool)
    expect = {EntityMention((0,), "A")} if n else set()
    assert decode_grid(grid, vocab, contiguous=contiguous) == expect
    assert brute_force_decode(grid, vocab, contiguous=contiguous) == expect


def test_brute_force_refuses_large_grids():
    vocab = make_vocab()
    with pytest.raises(ValueError):
        brute_force_decode(tag_grid(13, vocab), vocab)


def test_round_trip_on_synthetic_corpus():
    sents = generate_synthetic_corpus(
        seed=31, count=120, max_len=12, types=["A", "B", "C"],
        nested_fraction=0.4, discontinuous_fraction=0.3,
    )
    vocab = build_tag_vocabulary(sents)
    for s in sents:
        grid = encode_grid(s, vocab)
        assert decode_grid(grid, vocab, contiguous=False) == s.entity_set()
        # The oracle agrees wherever it is allowed to run.
        if len(s) <= 12:
            assert brute_force_decode(grid, vocab, contiguous=False) == s.entity_set()
