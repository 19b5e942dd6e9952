"""Shared fixtures: small model configs and corpora sized for fast tests."""

import json

import numpy as np
import pytest

from crener import config as cfg_mod
from crener.autodiff import Tensor
from crener.corpus import CharVocabulary, build_tag_vocabulary, generate_synthetic_corpus
from crener.model import CrenerModel
from crener.training import Checkpoint


# The paper's ablations as config overrides, each named by the ingredient it
# removes: the scaling mode, each ingredient at its zero value, and the
# no-adapted-transformer and no-enhancement ablations.
ABLATIONS = {
    "use_scaling_factor": ["encoder.use_scaling_factor=true"],
    "no_region_matrix": ["grid.d_region=0"],
    "no_distance_matrix": ["grid.d_dist=0"],
    "no_attn_matrix": ["grid.d_attn=0"],
    "no_dilated_conv": ["grid.dilations=[]"],
    "no_mlp_predictor": ["predictor.d_hidden=0"],
    "no_biaffine_predictor": ["predictor.d_biaffine=0"],
    "layers-0": ["encoder.layers=0"],
    "rounds-1": ["enhance.rounds=1"],
}


def small_config(double: bool = False, seed: int = 42) -> cfg_mod.ModelConfig:
    cfg = cfg_mod.default_config()
    cfg.encoder.d_context = 8
    cfg.encoder.d_pos = 4
    cfg.encoder.d_region = 2
    cfg.encoder.d_attn = 2
    cfg.encoder.layers = 1
    cfg.encoder.heads = 2
    cfg.encoder.dropout = 0.0
    cfg.encoder.max_len = 32
    cfg.grid.d_dist = 4
    cfg.grid.d_region = 3
    cfg.grid.d_attn = 3
    cfg.grid.d_reduced = 8
    cfg.grid.d_conv = 4
    cfg.enhance.d_r = 4
    cfg.enhance.rounds = 2
    cfg.predictor.d_biaffine = 6
    cfg.predictor.d_hidden = 8
    cfg.optimizer.seed = seed
    cfg.optimizer.double_precision = double
    return cfg


def small_model(double: bool = False, seed: int = 42, config=None):
    cfg = config if config is not None else small_config(double=double, seed=seed)
    sents = generate_synthetic_corpus(seed=9, count=8, max_len=8, types=["A", "B"])
    char_vocab = CharVocabulary.from_sentences(sents)
    return CrenerModel(cfg, char_vocab, build_tag_vocabulary(sents)), sents


def write_sidecar(path, vectors: dict) -> str:
    """Write {sentence id: (n, d_context) array} as a vector sidecar at
    `path` and return the path, ready for `paths.vectors_sidecar`. float32
    rows read back bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, rows in vectors.items():
            fh.write(json.dumps({"id": sid, "vectors": rows.tolist()}) + "\n")
    return str(path)


def untrained_checkpoint(config=None, seed: int = 42) -> Checkpoint:
    """A checkpoint of `small_model`'s initial parameters."""
    model, _ = small_model(seed=seed, config=config)
    return Checkpoint(model.config, model.char_vocab, model.tag_vocab,
                      model.store.state_dict(), epoch=0, history=[])


def assert_same_checkpoint(back: Checkpoint, ck: Checkpoint) -> None:
    """`back` holds `ck`'s config, vocabularies and parameters, bit for bit."""
    assert cfg_mod.config_to_flat(back.config) == cfg_mod.config_to_flat(ck.config)
    assert back.char_vocab.chars == ck.char_vocab.chars
    assert back.tag_vocab.tags == ck.tag_vocab.tags
    assert back.params.keys() == ck.params.keys()
    for name, array in ck.params.items():
        assert back.params[name].dtype == array.dtype
        assert back.params[name].tobytes() == array.tobytes(), name


def tag_grid(n, vocab, cells=()):
    """Boolean (n, n, |R|) tag grid with each (i, j, tag_id) in `cells` set."""
    grid = np.zeros((n, n, len(vocab)), dtype=bool)
    for i, j, t in cells:
        grid[i, j, t] = True
    return grid


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def made_tensors(monkeypatch):
    """Every tensor an operation returns during the test, in creation order."""
    made = []
    make = Tensor._make

    def recording(data, parents, backward):
        out = make(data, parents, backward)
        made.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
    return made
