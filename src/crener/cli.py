"""Command-line interface.

Commands: train, eval, predict, decode-grid, corpus-stats. Exit codes:
0 success, 1 configuration error, 2 data error, 3 training divergence,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import training
from .config import apply_overrides, parse_config
from .corpus import TagVocabulary, corpus_stats, load_corpus, read_jsonl, sentences_to_jsonl
from .decode import decode_grid
from .encoder import EncoderConfig
from .errors import ConfigError, CorpusError, DivergenceError


def _load_split(path: str, format: str, what: str):
    if not path:
        raise ConfigError(f"paths.{what} is not set")
    return load_corpus(path, format=format)


def cmd_train(args) -> int:
    config = parse_config(args.config)
    apply_overrides(config, args.set)
    config.validate()
    ckpt_dir = args.checkpoint_dir or config.paths.checkpoint_dir
    if not ckpt_dir:
        raise ConfigError("paths.checkpoint_dir is not set")
    train_sents = _load_split(config.paths.train, args.format, "train")
    dev_sents = (
        load_corpus(config.paths.dev, format=args.format) if config.paths.dev else None
    )
    os.makedirs(ckpt_dir, exist_ok=True)
    checkpoint = training.train(
        config,
        train_sents,
        dev_sents,
        log_path=os.path.join(ckpt_dir, "train_log.jsonl"),
        progress=not args.quiet,
    )
    checkpoint.save(ckpt_dir)
    best = next(
        (h for h in checkpoint.history if h["epoch"] == checkpoint.epoch), None
    )
    if best and "dev_f1" in best:
        print(f"best epoch {checkpoint.epoch}: dev F1 {best['dev_f1']:.4f}")
    print(f"checkpoint written to {ckpt_dir}")
    return 0


def cmd_eval(args) -> int:
    checkpoint = training.Checkpoint.load(args.checkpoint)
    sentences = load_corpus(args.data, format=args.format)
    report = training.evaluate_model(checkpoint.build_model(), sentences)
    print(report.format_table())
    out_path = args.out or "report.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {out_path}")
    return 0


def cmd_predict(args) -> int:
    checkpoint = training.Checkpoint.load(args.checkpoint)
    sentences = load_corpus(args.input, format=args.format)
    predicted = training.predict(checkpoint.build_model(), sentences)
    text = sentences_to_jsonl(predicted)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"predictions written to {args.output}")
    return 0


def _grid_from_obj(obj, where: str) -> tuple[np.ndarray, TagVocabulary]:
    if not isinstance(obj, dict) or "n" not in obj or "cells" not in obj:
        raise CorpusError(f"{where}: grid record needs 'n' and 'cells'")
    unknown = sorted(set(obj) - {"n", "cells"})
    if unknown:
        raise CorpusError(f"{where}: unknown grid record key {unknown[0]!r}")
    n, cells = obj["n"], obj["cells"]
    # The array costs n * n * |R| bytes, so the side is capped at the
    # longest sentence the encoder accepts by default.
    max_side = EncoderConfig.max_len
    if not _is_int(n) or not 0 <= n <= max_side:
        raise CorpusError(f"{where}: 'n' must be an integer in [0, {max_side}], got {n!r}")
    if not isinstance(cells, list) or not all(
        isinstance(c, list) and len(c) == 3 and _is_int(c[0]) and _is_int(c[1]) for c in cells
    ):
        raise CorpusError(f"{where}: cell entries must be [i, j, tag] with integer i, j")
    names = [str(c[2]) for c in cells]
    types = {name[4:] for name in names if name[:4] in ("THC_", "HTC_")}
    if "" in types:
        raise CorpusError(f"{where}: typed tag with an empty entity type")
    vocab = TagVocabulary(sorted(types))
    grid = np.zeros((n, n, len(vocab)), dtype=bool)
    for (i, j, _), name in zip(cells, names):
        if not (0 <= i < n and 0 <= j < n):
            raise CorpusError(f"{where}: cell ({i}, {j}) outside grid of side {n}")
        try:
            grid[i, j, vocab.tag_id(name)] = True
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
    return grid, vocab


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def cmd_decode_grid(args) -> int:
    for where, obj in read_jsonl(args.grid):
        grid, vocab = _grid_from_obj(obj, where)
        mentions = decode_grid(grid, vocab, contiguous=not args.discontinuous)
        for m in sorted(mentions, key=lambda e: (e.indices, e.type)):
            indices = json.dumps(list(m.indices), separators=(",", ":"))
            print(f"{indices} {m.type}")
    return 0


def cmd_corpus_stats(args) -> int:
    sentences = load_corpus(args.data, format=args.format)
    stats = corpus_stats(sentences)
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
        elif isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        print(f"{key:<{width}}  {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crener",
        description="Character-relation grid tagging for Chinese NER",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="override paths.checkpoint_dir")
    p.add_argument("--format", default="jsonl", choices=["jsonl", "conll"])
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "conll"])
    p.add_argument("--out", default=None, help="report path (default report.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict mentions for a jsonl corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output jsonl path, or - for stdout")
    p.add_argument("--format", default="jsonl", choices=["jsonl", "conll"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("decode-grid", help="decode a jsonl grid dump into mentions")
    p.add_argument("--grid", required=True, help="jsonl file of {n, cells} records")
    p.add_argument("--discontinuous", action="store_true",
                   help="allow non-contiguous index sequences")
    p.set_defaults(func=cmd_decode_grid)

    p = sub.add_parser("corpus-stats", help="print corpus counts")
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "conll"])
    p.set_defaults(func=cmd_corpus_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A missing input, a directory where a file is read or written, a
        # file where a directory is made, or an output that cannot be
        # written (full disk, permission denied).
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        # Non-finite scores in eval or predict, from a checkpoint whose
        # parameters load finite: bad input. `train` raises DivergenceError.
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # `train` saves only after `training.train` returns.
        after = ": no checkpoint was written" if args.func is cmd_train else ""
        print(f"interrupted{after}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
