"""Every function `src/crener/` defines runs under some CLI command or
the README quick start, or is named in `NOT_RUN_BY_THE_CLI` with the
reason it stays.

The probe runs `train` (with a dev split, a vector sidecar, dropout and
discontinuous decoding), `eval`, `predict` (JSONL and CoNLL),
`decode-grid` (both modes) and `corpus-stats` in-process under
`sys.setprofile`, and compares the code objects entered with every
`def` in the package's source, nested ones included. A helper that only
tests call belongs in `tests/`, beside `tests/oracles.py`.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np

import crener
from conftest import small_config
from crener.cli import main
from crener.corpus import generate_synthetic_corpus, save_corpus
from oracles import save_config

NOT_RUN_BY_THE_CLI = {
    "autodiff._constant": "runs at import, before the probe starts",
    "autodiff.ParamStore.names": "public method of a public type",
    "autodiff.Tensor.__repr__": "public method of a public type",
    "corpus.EntityMention.is_contiguous": "public method of a public type",
    "model.CrenerModel.predict_sentence": "perfbench's predict workload calls it",
    "model.CrenerModel.sentence_loss": "perfbench's tests call it (ROADMAP item 17)",
    "model._NonFiniteScores.__init__": "error path: non-finite scores",
}


def package_functions() -> dict:
    """(file, first line) of each `def` in src/crener/*.py -> its dotted
    name. A decorated function's code starts at its first decorator."""
    found = {}
    for path in sorted(Path(crener.__file__).parent.glob("*.py")):
        scope = []

        def visit(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = ".".join([path.stem] + scope + [child.name])
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope.append(child.name)
                    visit(child)
                    scope.pop()
                else:
                    visit(child)

        visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def run_every_command(root: Path) -> list:
    # The README quick start's two calls.
    sentences = generate_synthetic_corpus(seed=1, count=12, max_len=8, types=["PER", "LOC"])
    save_corpus(sentences, root / "train.jsonl")
    save_corpus(sentences[:6], root / "dev.jsonl")
    (root / "dev.conll").write_text(
        "甲\tB-PER\n乙\tE-PER\n丙\tO\n丁\tS-LOC\n\n戊\tB-LOC\n己\tI-LOC\n庚\tM-LOC\n",
        encoding="utf-8",
    )
    rng = np.random.default_rng(0)
    rows = [(s.id, len(s)) for s in sentences] + [("conll-0", 4), ("conll-1", 3)]
    with open(root / "vectors.jsonl", "w", encoding="utf-8") as fh:
        for sid, n in rows:
            vectors = rng.normal(size=(n, 8)).round(3).tolist()
            fh.write(json.dumps({"id": sid, "vectors": vectors}) + "\n")
    grid = {"n": 3, "cells": [[0, 1, "NNC"], [1, 0, "PNC"], [0, 1, "HTC_PER"], [2, 2, "THC_LOC"]]}
    (root / "grid.jsonl").write_text(json.dumps(grid) + "\n", encoding="utf-8")

    cfg = small_config()
    cfg.encoder.dropout = 0.1
    cfg.optimizer.epochs = 2
    cfg.optimizer.batch_size = 4
    cfg.paths.train = str(root / "train.jsonl")
    cfg.paths.dev = str(root / "dev.jsonl")
    cfg.paths.vectors_sidecar = str(root / "vectors.jsonl")
    save_config(cfg, root / "run.cfg")
    ckpt = str(root / "ckpt")
    return [
        main(["train", "--config", str(root / "run.cfg"), "--checkpoint-dir", ckpt,
              "--set", "decode.contiguous=false"]),
        main(["eval", "--checkpoint", ckpt, "--data", str(root / "dev.jsonl"),
              "--out", str(root / "report.json")]),
        main(["predict", "--checkpoint", ckpt, "--input", str(root / "dev.jsonl"),
              "--output", str(root / "predicted.jsonl")]),
        main(["predict", "--checkpoint", ckpt, "--input", str(root / "dev.conll"),
              "--format", "conll", "--output", "-"]),
        main(["decode-grid", "--grid", str(root / "grid.jsonl")]),
        main(["decode-grid", "--grid", str(root / "grid.jsonl"), "--discontinuous"]),
        main(["corpus-stats", "--data", str(root / "train.jsonl")]),
    ]


def test_every_function_runs_under_the_cli_or_is_allowlisted(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = run_every_command(tmp_path)
    finally:
        sys.setprofile(previous)
    assert codes == [0] * 7, capsys.readouterr().err
    entered = {(code.co_filename, code.co_firstlineno) for code in entered}
    never = {name for where, name in package_functions().items() if where not in entered}
    assert never == set(NOT_RUN_BY_THE_CLI)
