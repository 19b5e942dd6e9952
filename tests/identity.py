"""Identity digest: one line per fixed training recipe, so that a change
meant to alter no number can show that it altered none.

Run it at two trees and compare the lines:

    PYTHONPATH=src python tests/identity.py
    PYTHONPATH=<other tree>/src python tests/identity.py

The script drives `crener.cli.main` only (`train`, then `predict`), so one
copy of it runs against any tree's `src`. pytest does not collect it.

Each recipe writes a fixed synthetic corpus (48 training sentences and 16
dev sentences of 4 to 16 characters) and trains the default config with
`encoder.dropout = 0.1`, 2 encoder layers, 2 epochs and batch 8. The
recipes are float32, float64, and float32 with a vector sidecar. A line
holds:

- `params`: the SHA-256 over the per-parameter SHA-256s (name, dtype,
  shape and bytes) of the checkpoint's `checkpoint.npz`, in name order;
- `losses`: each epoch's `train_loss` from `train_log.jsonl`;
- `short`, `long`: the SHA-256 of `crener predict`'s output on 16 probe
  sentences of 4 to 16 characters and on 4 of 48 to 64, then the number
  of mentions predicted.

The float32 line also holds `ref_diff`, the largest difference between the
checkpoint's float32 scores and `reference_forward.py`'s float64 scores
over every (cell, tag) of the probe sentences, as a fraction of the
largest reference score, and `near`, the count of float32 scores within
1e-4 of the threshold, where float32 rounding could flip a tag.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import zipfile

import numpy as np

from crener.cli import main
from crener.config import default_config
from crener.corpus import generate_synthetic_corpus, save_corpus
from crener.training import Checkpoint

TYPES = ["PER", "LOC", "ORG"]
RECIPE = {
    "encoder.dropout": "0.1",
    "encoder.layers": "2",
    "optimizer.epochs": "2",
    "optimizer.batch_size": "8",
}
RECIPES = {
    "float32": {},
    "float64": {"optimizer.double_precision": "true"},
    "float32+sidecar": {"paths.vectors_sidecar": "vectors.jsonl"},
}
NEAR = 1e-4


def corpus(root: str) -> dict:
    """Write the splits and probes under `root`; returns their sentences."""
    splits = {
        "train": generate_synthetic_corpus(
            seed=101, count=48, max_len=16, types=TYPES, min_len=4,
            nested_fraction=0.3, discontinuous_fraction=0.3),
        "dev": generate_synthetic_corpus(
            seed=102, count=16, max_len=16, types=TYPES, min_len=4,
            nested_fraction=0.3, discontinuous_fraction=0.3),
        "short": generate_synthetic_corpus(seed=103, count=16, max_len=16, types=TYPES, min_len=4),
        "long": generate_synthetic_corpus(seed=104, count=4, max_len=64, types=TYPES, min_len=48),
    }
    for name, sentences in splits.items():
        save_corpus(sentences, os.path.join(root, f"{name}.jsonl"))
    return splits


def write_sidecar(root: str, splits: dict) -> None:
    """One float32 row of `encoder.d_context` per character of every
    sentence, in `root`/vectors.jsonl."""
    d_context = default_config().encoder.d_context
    rng = np.random.default_rng(105)
    with open(os.path.join(root, "vectors.jsonl"), "w", encoding="utf-8") as fh:
        for sentences in splits.values():
            for s in sentences:
                rows = rng.normal(size=(len(s), d_context)).astype(np.float32)
                fh.write(json.dumps({"id": s.id, "vectors": rows.tolist()}) + "\n")


def run(argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"crener {' '.join(argv)} exited {code}: {err.getvalue()}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_digest(path: str) -> str:
    lines = []
    with zipfile.ZipFile(path) as archive:
        for member in sorted(archive.namelist()):
            name = member.removesuffix(".npy")
            if name == "manifest":
                continue
            array = np.lib.format.read_array(io.BytesIO(archive.read(member)))
            head = f"{array.dtype.str}{array.shape}".encode()
            lines.append(f"{name} {sha256(head + array.tobytes())}\n")
    return sha256("".join(lines).encode())[:16]


def reference_check(checkpoint_dir: str, probes: list) -> str:
    from reference_forward import ReferenceForward

    model = Checkpoint.load(checkpoint_dir).build_model()
    reference = ReferenceForward(model)
    threshold = model.config.predictor.threshold
    diff = scale = 0.0
    near = 0
    for s in probes:
        ids, mask, _ = model.sentence_inputs(s)
        scores = model.forward(ids, mask)[0].data
        expected = reference.scores(s.chars)
        diff = max(diff, float(np.abs(scores - expected).max()))
        scale = max(scale, float(np.abs(expected).max()))
        near += int((np.abs(scores - threshold) < NEAR).sum())
    return f" ref_diff={diff / scale:.2e} near={near}"


def recipe_line(root: str, name: str, splits: dict) -> str:
    settings = {**RECIPE, "paths.train": "train.jsonl", "paths.dev": "dev.jsonl", **RECIPES[name]}
    settings = {key: os.path.join(root, value) if key.startswith("paths.") else value
                for key, value in settings.items()}
    cfg = os.path.join(root, f"{name}.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in settings.items())
    ckpt = os.path.join(root, f"ckpt-{name}")
    run(["train", "--config", cfg, "--checkpoint-dir", ckpt, "--quiet"])
    with open(os.path.join(ckpt, "train_log.jsonl"), encoding="utf-8") as fh:
        losses = ",".join(repr(json.loads(line)["train_loss"]) for line in fh)
    line = f"{name} params={params_digest(os.path.join(ckpt, 'checkpoint.npz'))} losses={losses}"
    for probe in ("short", "long"):
        output = os.path.join(root, f"{name}-{probe}.jsonl")
        run(["predict", "--checkpoint", ckpt, "--input", os.path.join(root, f"{probe}.jsonl"),
             "--output", output])
        with open(output, "rb") as fh:
            text = fh.read()
        mentions = sum(len(json.loads(record)["entities"]) for record in text.splitlines())
        line += f" {probe}={sha256(text)[:16]}:{mentions}"
    if name == "float32":
        line += reference_check(ckpt, splits["short"] + splits["long"])
    return line


def identity_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as root:
        splits = corpus(root)
        write_sidecar(root, splits)
        return [recipe_line(root, name, splits) for name in RECIPES]


if __name__ == "__main__":
    for line in identity_lines():
        print(line)
