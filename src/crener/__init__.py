"""Character-relation grid tagging for Chinese NER.

Entities become tags on an N x N character-pair grid, held as a boolean
(N, N, |R|) array; a relative-position transformer encodes characters,
an iterative relation-enhancement network refines pair features, a
biaffine + MLP co-predictor scores every cell, and the decoder reads
mentions back out: contiguous ones by an interval test over neighbour
links, discontinuous ones by a depth-first search.
"""

from .config import AblationFlags, ModelConfig, default_config, parse_config
from .corpus import (
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
)
from .decode import decode_grid
from .errors import ConfigError, CorpusError, CrenerError, DivergenceError
from .model import CrenerModel
from .training import Adam, Checkpoint, EvalReport, evaluate, evaluate_model, predict, train

__version__ = "0.1.0"

__all__ = [
    "AblationFlags",
    "Adam",
    "CharVocabulary",
    "Checkpoint",
    "ConfigError",
    "CorpusError",
    "CrenerError",
    "CrenerModel",
    "DivergenceError",
    "EntityMention",
    "EvalReport",
    "ModelConfig",
    "Sentence",
    "TagVocabulary",
    "build_tag_vocabulary",
    "corpus_stats",
    "decode_grid",
    "default_config",
    "encode_grid",
    "evaluate",
    "evaluate_model",
    "generate_synthetic_corpus",
    "load_corpus",
    "parse_config",
    "predict",
    "save_corpus",
    "train",
    "__version__",
]
