"""`CrenerModel`'s float64 scores and loss against the plain numpy forward
of `reference_forward.py`, over the default config, the scaling mode, each
zero width and empty dilations, encoder depths 0 and 2 and enhancement
rounds 1 and 3.

Every parameter is moved off its initial value first, so that no term
hides behind a zero bias or a unit gain.
"""

import numpy as np
import pytest

from conftest import ABLATIONS
from crener.config import apply_overrides, default_config
from crener.corpus import CharVocabulary, build_tag_vocabulary, encode_grid, generate_synthetic_corpus
from crener.model import CrenerModel
from reference_forward import ReferenceForward

CASES = {
    "default": [],
    **ABLATIONS,
    "layers-2": ["encoder.layers=2"],
    "rounds-3": ["enhance.rounds=3"],
}

# Of the largest magnitude compared. The model's float64 GELU is within
# 1e-15 of erf's; the rest differs from the reference only in the order of
# its sums.
RTOL = 1e-10


def perturbed_model(overrides):
    sentences = generate_synthetic_corpus(seed=5, count=3, max_len=11, types=["PER", "LOC"], min_len=3)
    config = default_config()
    apply_overrides(config, overrides + ["optimizer.double_precision=true", "encoder.dropout=0"])
    model = CrenerModel(config, CharVocabulary.from_sentences(sentences), build_tag_vocabulary(sentences))
    rng = np.random.default_rng(11)
    for _, t in model.store.items():
        t.data = t.data + rng.normal(0.0, 0.1, size=t.data.shape)
    return model, sentences


@pytest.mark.parametrize("case", list(CASES))
def test_scores_and_loss_match_the_reference(case):
    model, sentences = perturbed_model(CASES[case])
    reference = ReferenceForward(model)
    for s in sentences:
        ids, mask, _ = model.sentence_inputs(s)
        scores = model.forward(ids, mask)[0].data
        expected = reference.scores(s.chars)
        assert scores.shape == expected.shape
        assert np.abs(scores - expected).max() <= RTOL * np.abs(expected).max(), s.id

        loss = model.batch_loss([s])[0].item()
        expected_loss = reference.loss(expected, encode_grid(s, model.tag_vocab))
        assert abs(loss - expected_loss) <= RTOL * abs(expected_loss), s.id
