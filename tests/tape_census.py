"""Tape census: how much memory one training step's tape holds, by length.

Run it at two trees and compare the lines:

    PYTHONPATH=src python tests/tape_census.py
    PYTHONPATH=<other tree>/src python tests/tape_census.py

The script uses the public model API only (`CrenerModel.batch_loss`,
`Tensor.backward`), so one copy of it runs against any tree's `src`.
pytest does not collect it.

For the default float32 config and one synthetic sentence of each length
n = 16, 32, 48 and 64 (fixed seed), it prints one line of tracemalloc
readings, in MB (10^6 bytes), counted from just before `batch_loss`:

- `tape`: the memory still allocated once the forward and the loss have
  returned, which is what the tape keeps for the backward;
- `forward_peak`: the peak during the forward and the loss;
- `backward_peak`: the peak during `loss.backward()`;
- `step_peak`: the larger of the two peaks.

The model is built, and one step taken, before tracing starts, so lazy
imports and first-call caches are not counted.
"""

from __future__ import annotations

import tracemalloc

from crener.config import default_config
from crener.corpus import CharVocabulary, build_tag_vocabulary, generate_synthetic_corpus
from crener.model import CrenerModel

LENGTHS = (16, 32, 48, 64)
MB = 1e6


def census(n: int) -> dict:
    """tracemalloc's readings, in bytes, for one step on one sentence of n."""
    sents = generate_synthetic_corpus(seed=3, count=1, max_len=n, types=["PER", "LOC"], min_len=n)
    model = CrenerModel(default_config(), CharVocabulary.from_sentences(sents),
                        build_tag_vocabulary(sents))
    model.batch_loss(sents)[0].backward()  # warm-up, untraced
    model.store.zero_grad()
    tracemalloc.start()
    try:
        loss, _ = model.batch_loss(sents)
        tape, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"tape": tape, "forward_peak": forward_peak, "backward_peak": backward_peak,
            "step_peak": max(forward_peak, backward_peak)}


def main() -> None:
    for n in LENGTHS:
        readings = census(n)
        print(f"n={n} " + " ".join(f"{k}={v / MB:.2f}" for k, v in readings.items()))


if __name__ == "__main__":
    main()
