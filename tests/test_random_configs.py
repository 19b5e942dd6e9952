"""`CrenerModel` against the plain numpy forward of `reference_forward.py`
over configs drawn at random from the space `ModelConfig.validate` accepts.

`test_reference_forward.py` checks twelve fixed configs at the default
widths. Here Hypothesis draws the shapes those never build: odd widths,
1-4 heads, kernels 1, 3 and 5, dilations at or above the sentence
length, 0-2 encoder layers, 1-3 rounds, any mix of ablations, and padded
batches of one or two sentences of 1-11 characters. Every parameter is
moved off its initial value. Float64 scores and loss must match the
reference within `RTOL`, and a few entries of the parameter gradient must
match central differences of the reference loss within the bound set
by `GRAD_RTOL` and `GRAD_ATOL`.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crener.config import default_config
from crener.corpus import CharVocabulary, TagVocabulary, encode_grid, generate_synthetic_corpus
from crener.model import CrenerModel
from reference_forward import ReferenceForward
from test_reference_forward import RTOL

TYPES = ("LOC", "PER")
FLAGS = ("use_scaling_factor", "no_region_matrix", "no_distance_matrix", "no_attn_matrix",
         "no_dilated_conv", "no_mlp_predictor", "no_biaffine_predictor")

# Central differences at step H of the reference loss, against the model's
# analytic gradient: |analytic - fd| <= GRAD_RTOL * max(|analytic|, |fd|)
# + GRAD_ATOL * |loss|. Over the 600 entries that the 200 examples below
# check, the largest error was 6.6e-10 of the loss, with a median of
# 6e-12; the bound is at least 25 times every entry's error. The loss
# term covers the round-off of the differences, about 1e-16 * |loss| / H,
# where a gradient is near 0.
H = 1e-5
GRAD_RTOL = 1e-6
GRAD_ATOL = 1e-9
GRAD_ENTRIES = 3


@st.composite
def configs(draw):
    """A float64 config that `validate()` accepts, with small widths."""
    small = st.integers(1, 7)
    cfg = default_config()
    enc, grid, enh, pred = cfg.encoder, cfg.grid, cfg.enhance, cfg.predictor
    enc.heads, enh.heads = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    enc.d_context, enc.d_pos, enc.d_region, enc.d_attn = (draw(small) for _ in range(4))
    # Both attentions split d_h: round d_attn up to a multiple of both head counts.
    enc.d_attn += -enc.d_h % math.lcm(enc.heads, enh.heads)
    enc.layers = draw(st.integers(0, 2))
    enc.dropout = 0.0
    enc.max_len = 16
    grid.d_dist, grid.d_region, grid.d_attn, grid.d_reduced, grid.d_conv = (
        draw(small) for _ in range(5))
    grid.distance_buckets = draw(st.integers(19, 21))
    grid.attn_buckets = draw(st.integers(1, 8))
    grid.kernel = draw(st.sampled_from([1, 3, 5]))
    grid.dilations = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True)))
    enh.d_r = draw(st.integers(1, 5))
    enh.rounds = draw(st.integers(1, 3))
    pred.d_biaffine, pred.d_hidden = draw(small), draw(small)
    pred.threshold = draw(st.sampled_from([0.0, -0.5, 0.75]))
    for flag in FLAGS:
        setattr(cfg.ablations, flag, draw(st.sampled_from([False, False, True])))
    if cfg.ablations.no_mlp_predictor and cfg.ablations.no_biaffine_predictor:
        setattr(cfg.ablations, draw(st.sampled_from(FLAGS[-2:])), False)
    cfg.optimizer.double_precision = True
    cfg.validate()
    return cfg


def reference_loss(model, sentence) -> float:
    reference = ReferenceForward(model)
    return reference.loss(reference.scores(sentence.chars), encode_grid(sentence, model.tag_vocab))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=configs(), lengths=st.lists(st.integers(1, 11), min_size=1, max_size=2),
       seed=st.integers(0, 2**16))
def test_random_config_matches_the_reference(cfg, lengths, seed):
    sentences = [
        generate_synthetic_corpus(seed + i, 1, n, TYPES, min_len=n, nested_fraction=0.5,
                                  discontinuous_fraction=0.5)[0]
        for i, n in enumerate(lengths)
    ]
    model = CrenerModel(cfg, CharVocabulary.from_sentences(sentences), TagVocabulary(TYPES))
    rng = np.random.default_rng(seed)
    for _, t in model.store.items():
        t.data = t.data + rng.normal(0.0, 0.1, size=t.data.shape)
    reference = ReferenceForward(model)

    ids, mask, _ = model._batch_inputs(sentences)
    scores = model.forward(ids, mask)[0].data
    expected_loss = 0.0
    for b, s in enumerate(sentences):
        n = len(s)
        expected = reference.scores(s.chars)
        assert np.abs(scores[b, :n, :n] - expected).max() <= RTOL * np.abs(expected).max()
        expected_loss += reference.loss(expected, encode_grid(s, model.tag_vocab))
    loss, _ = model.batch_loss(sentences)
    assert abs(loss.item() - expected_loss) <= RTOL * abs(expected_loss)

    # The batch loss is a sum over sentences, so each parameter's gradient
    # is the sum of the sentences' central differences.
    loss.backward()
    names = model.store.names()
    for name in rng.choice(names, size=min(GRAD_ENTRIES, len(names)), replace=False):
        t = model.store[name]
        i = int(rng.integers(t.data.size))
        flat = t.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + H
        plus = sum(reference_loss(model, s) for s in sentences)
        flat[i] = orig - H
        minus = sum(reference_loss(model, s) for s in sentences)
        flat[i] = orig
        fd = (plus - minus) / (2 * H)
        analytic = t.grad.reshape(-1)[i]
        bound = GRAD_RTOL * max(abs(analytic), abs(fd)) + GRAD_ATOL * abs(expected_loss)
        assert abs(analytic - fd) <= bound, (name, i, analytic, fd)
