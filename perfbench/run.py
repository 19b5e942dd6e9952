#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of crener's train, eval and predict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 25 --trace 0

Each run builds its inputs with ``corpus.generate_synthetic_corpus`` from
``--seed``, then spends ``--seconds`` in three phases, in one process with
the BLAS thread count pinned:

* train: ``training.train(config, sentences)`` calls on 16 sentences each
  (two optimizer steps, one epoch, no dev split);
* eval: ``training.evaluate_model(model, sentences)`` calls on 16 sentences
  each, with a model at its seeded initialisation;
* predict: single-sentence ``CrenerModel.predict_sentence`` calls in a
  closed loop with one caller, at least 200 so that p95 is defined.

Every workload runs all three phases, their operations interleaved over
the run; the workload decides the sentence lengths of each and how the
time is split, so that one phase carries most of the work (see
WORKLOADS). Set-up (corpus generation, vocabularies, model construction)
is timed SETUP_REPEATS times, also spread over the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the phases run for half their time untraced, then the
same operations are replayed with timing wrappers installed (spans.py);
the last line carries the per-layer metrics and the tracing overhead.
Outputs are checked in both modes, with the tolerances stated below. Run
metadata, sample counts and (traced) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from arith import percentile, tail_percentile
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # metric names and units

# One BLAS thread: on 2 cores it is both faster and steadier than two for
# these small GEMMs, and a single-process benchmark should not contend
# with itself.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TYPES = ("PER", "LOC", "ORG", "GPE")
NESTED_FRACTION = 0.3
DISCONTINUOUS_FRACTION = 0.3
SHORT = (4, 16)
LONG = (48, 64)

TRAIN_OP = 16  # two optimizer steps at the default batch size of 8
EVAL_OP = 16
MIN_PREDICT = 200  # p95 needs 10 samples beyond it (arith.tail_percentile)
SETUP_REPEATS = 11
HARD_DEADLINE_S = 140.0  # stop measuring so that a run ends within 180 s

CANARY_SEED = 0
CANARY_EVAL_SENTENCES = 8
# Stated tolerances of the output checks.
LOSS_RTOL = 1e-4  # canary train loss against the stored reference
CANARY_DIFF_SHARE = 0.25  # canary sentences whose mentions may differ
CROSS_RTOL = 0.01  # eval vs predict counts over the same sentences


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    train_lengths: tuple[int, int]
    infer_lengths: tuple[int, int]  # eval and predict
    train_count: int  # corpus sizes; phases cycle through them if they run out
    infer_count: int
    shares: tuple[float, float, float]  # train, eval, predict share of --seconds


WORKLOADS = {
    "train-short": Workload(
        "72% training on n in [4, 16], where per-sentence tape overhead (backward, "
        "enhancement) dominates; short eval and predict probes",
        SHORT, SHORT, 1024, 512, (0.72, 0.14, 0.14)),
    "train-long": Workload(
        "72% training on n in [48, 64], where conv backward and the grid forward dominate "
        "and memory peaks; short eval and predict probes",
        LONG, SHORT, 192, 512, (0.72, 0.14, 0.14)),
    "eval-long": Workload(
        "eval and predict on n in [48, 64] with an untrained model, whose dense grids make "
        "predict_cells and decode heavy; short train probe",
        SHORT, LONG, 256, 256, (0.08, 0.42, 0.5)),
}
PHASES = ("train", "eval", "predict")


class CheckFailed(Exception):
    """An output check did not hold; the operation counts as failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# environment


def load_crener():
    """Pin BLAS threads, then import numpy and crener from this checkout."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = threads
    src = ROOT / "src"
    if not (src / "crener" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no crener package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import crener
    import numpy

    return crener, numpy


def blas_threads(np) -> int | None:
    """Threads the loaded BLAS reports, via its own query function."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (OSError, AttributeError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(crener, np, workload: str, seed: int, trace: int, counts: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    backend = getattr(crener.kernels, "active_backend", None)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "sentences": counts,
        "nproc": os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_pinned": int(os.environ[BLAS_ENV[0]]),
            "threads_reported": blas_threads(np),
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "kernels_backend": backend() if callable(backend) else "absent",
    }


# ----------------------------------------------------------------------
# inputs


def balanced_corpus(crener, np, seed: int, lengths, count: int, prefix: str):
    """`count` synthetic sentences whose lengths cycle through every value in
    `lengths` once per block, in a seeded order per block.

    Every prefix of whole blocks has the same length mix, whatever the
    seed, so the cost of a time-bounded phase does not swing with it.
    """
    lo, hi = lengths
    sizes = range(lo, hi + 1)
    blocks = -(-count // len(sizes))
    by_length = {
        n: crener.generate_synthetic_corpus(
            seed * 1000 + n, blocks, n, TYPES, min_len=n,
            nested_fraction=NESTED_FRACTION,
            discontinuous_fraction=DISCONTINUOUS_FRACTION,
        )
        for n in sizes
    }
    order = np.random.default_rng(seed)
    out = []
    for block in range(blocks):
        for n in order.permutation(len(sizes)) + lo:
            sentence = by_length[int(n)][block]
            out.append(dataclasses.replace(sentence, id=f"{prefix}-{len(out):05d}"))
    return out[:count]


def eval_model(crener, sentences):
    """A model at its seeded initialisation over `sentences`' vocabularies.

    Characters are numbered in sorted order, not order of appearance, so
    every seed gets the same embedding per character and hence the same
    untrained model: how densely it tags a grid, and so the cost of
    predict_cells and decode, then does not swing with the seed.
    """
    chars = sorted({ch for s in sentences for ch in s.chars})
    return crener.CrenerModel(
        crener.default_config(),
        crener.CharVocabulary(chars),
        crener.build_tag_vocabulary(sentences),
    )


def setup(crener, np, workload: Workload, seed: int):
    """Corpus generation, vocabularies and model construction."""
    train_set = balanced_corpus(
        crener, np, 2 * seed, workload.train_lengths, workload.train_count, "train")
    infer_set = balanced_corpus(
        crener, np, 2 * seed + 1, workload.infer_lengths, workload.infer_count, "eval")
    return train_set, infer_set, eval_model(crener, infer_set)


def chunks(sentences, size: int):
    return [sentences[i:i + size] for i in range(0, len(sentences) - size + 1, size)]


# ----------------------------------------------------------------------
# operations; each returns what its checks compare


def train_op(crener, sentences) -> float:
    config = crener.default_config()
    config.optimizer.epochs = 1
    history = crener.train(config, sentences).history
    check(len(history) == 1, f"expected one epoch record, got {len(history)}")
    loss = history[0]["train_loss"]
    check(math.isfinite(loss) and 0.0 < loss < 100.0, f"train loss {loss} out of range")
    return loss


def eval_op(crener, model, sentences) -> tuple[int, int, int]:
    report = crener.evaluate_model(model, sentences)
    gold = sum(len(s.entity_set()) for s in sentences)
    check(report.gold == gold, f"eval counted {report.gold} gold mentions, corpus has {gold}")
    check(0 <= report.correct <= min(report.gold, report.predicted),
          f"eval counts inconsistent: {report.to_dict()}")
    return report.gold, report.predicted, report.correct


def predict_op(model, sentence) -> frozenset:
    mentions = model.predict_sentence(sentence)
    types = set(model.tag_vocab.entity_types)
    for m in mentions:
        check(m.tail < len(sentence) and m.type in types, f"invalid mention {m} in {sentence.id}")
    return frozenset(mentions)


def mention_digest(mentions) -> str:
    rows = sorted([list(m.indices), m.type] for m in mentions)
    return f"{len(rows)}:" + hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# checks that compare results


def canary(crener, np) -> dict:
    """Fixed-seed train loss and per-sentence predicted mentions, compared
    with the values the reference commit produced (reference.json)."""
    train_set = balanced_corpus(crener, np, CANARY_SEED, SHORT, TRAIN_OP, "canary")
    infer_set = balanced_corpus(
        crener, np, CANARY_SEED + 1, LONG, CANARY_EVAL_SENTENCES, "canary")
    model = eval_model(crener, infer_set)
    return {
        "train_loss": train_op(crener, train_set),
        "mentions": [mention_digest(predict_op(model, s)) for s in infer_set],
    }


def check_canary(result: dict, reference: dict) -> None:
    ref_loss = reference["train_loss"]
    check(abs(result["train_loss"] - ref_loss) <= LOSS_RTOL * abs(ref_loss),
          f"canary train loss {result['train_loss']!r} != reference {ref_loss!r}")
    check(len(result["mentions"]) == len(reference["mentions"]), "canary sentence count")
    differ = sum(a != b for a, b in zip(result["mentions"], reference["mentions"]))
    check(differ <= CANARY_DIFF_SHARE * len(reference["mentions"]),
          f"canary mentions differ on {differ} of {len(reference['mentions'])} sentences")


def check_cross(eval_items, eval_outputs, predict_items, predict_outputs) -> None:
    """Eval and predict over the same sentences must agree on gold exactly and
    on predicted and correct counts within CROSS_RTOL."""
    by_id = {s.id: out for s, out in zip(predict_items, predict_outputs) if out is not None}
    for chunk, counts in zip(eval_items, eval_outputs):
        if counts is None or any(s.id not in by_id for s in chunk):
            continue
        gold = predicted = correct = 0
        for s in chunk:
            mentions = by_id[s.id]
            gold += len(s.entity_set())
            predicted += len(mentions)
            correct += len(mentions & s.entity_set())
        for what, ours, theirs in (("predicted", predicted, counts[1]),
                                   ("correct", correct, counts[2])):
            check(abs(ours - theirs) <= CROSS_RTOL * max(ours, theirs),
                  f"eval {what} {theirs} vs predict {ours} on {chunk[0].id}..")
        check(gold == counts[0], f"eval gold {counts[0]} vs {gold} on {chunk[0].id}..")


# ----------------------------------------------------------------------
# phases


@dataclasses.dataclass
class Phase:
    name: str
    items: list = dataclasses.field(default_factory=list)
    outputs: list = dataclasses.field(default_factory=list)  # None where the op failed
    seconds: list = dataclasses.field(default_factory=list)
    spent: float = 0.0  # including failed operations

    def sentences(self) -> int:
        return sum(len(item) if isinstance(item, list) else 1
                   for item, out in zip(self.items, self.outputs) if out is not None)

    def busy(self) -> float:
        return sum(t for t, out in zip(self.seconds, self.outputs) if out is not None)


def run_op(phase: Phase, op, item) -> None:
    start = time.perf_counter()
    try:
        out = op(item)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        out = None
    phase.seconds.append(time.perf_counter() - start)
    phase.spent += phase.seconds[-1]
    phase.items.append(item)
    phase.outputs.append(out)


def run_interleaved(ops, inputs, budgets, min_ops, deadline: float):
    """Run every phase's operations, interleaved so that each phase samples
    the whole run rather than one stretch of it.

    The next operation goes to the phase furthest behind, its progress being
    the smaller of its share of `budgets` seconds spent (a budget of 0 asks
    for none) and of `min_ops` operations done; inputs are taken in order,
    cycling. Stops when every phase is done or at the deadline. Returns the
    phases and the order the operations ran in.
    """
    phases = {name: Phase(name) for name in ops}

    def progress(name: str) -> float:
        p = phases[name]
        spent = p.spent / budgets[name] if budgets[name] else 1.0
        return min(spent, len(p.items) / min_ops[name])

    order = []
    while time.perf_counter() < deadline:
        name = min(phases, key=progress)
        if progress(name) >= 1.0:
            break
        items = inputs[name]
        run_op(phases[name], ops[name], items[len(phases[name].items) % len(items)])
        order.append(name)
    return phases, order


def replay(ops, phases, order):
    """The same operations again, in the same order, on the same inputs."""
    again = {name: Phase(name) for name in phases}
    for name in order:
        run_op(again[name], ops[name], phases[name].items[len(again[name].items)])
    return again


def compare_outputs(first: Phase, second: Phase) -> int:
    """Operations whose repeat gave a different result (exact comparison)."""
    return sum(a is not None and b is not None and a != b
               for a, b in zip(first.outputs, second.outputs))


# ----------------------------------------------------------------------
# main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    crener, np = load_crener()

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = failed = 0

    def tally(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    t0 = time.perf_counter()
    train_set, infer_set, model = setup(crener, np, workload, args.seed)
    first_setup = time.perf_counter() - t0

    # The canary is also the warm-up: it runs every phase's code once.
    try:
        check_canary(canary(crener, np), reference)
        tally(True, "canary")
    except Exception as exc:
        traceback.print_exc()
        tally(False, f"canary: {exc}")

    ops = {
        "train": lambda chunk: train_op(crener, chunk),
        "eval": lambda chunk: eval_op(crener, model, chunk),
        "predict": lambda sentence: predict_op(model, sentence),
        "setup": lambda _: setup(crener, np, workload, args.seed) is not None,
    }
    inputs = {
        "train": chunks(train_set, TRAIN_OP),
        "eval": chunks(infer_set, EVAL_OP),
        "predict": infer_set,
        "setup": [None],
    }
    deadline = started + HARD_DEADLINE_S
    scale = 0.5 if args.trace else 1.0
    budgets = {name: share * args.seconds * scale
               for name, share in zip(PHASES, workload.shares)}
    # Set-up repeats are spread over the run too: on a machine whose speed
    # drifts, back-to-back repeats would all land in one slow or fast spell.
    budgets["setup"] = 0.0
    min_ops = {"train": 1, "eval": 1, "predict": 1 if args.trace else MIN_PREDICT,
               "setup": SETUP_REPEATS - 1}
    phases, order = run_interleaved(ops, inputs, budgets, min_ops, deadline)
    for out in phases["setup"].outputs:
        tally(out is not None, "setup")
    setup_times = [first_setup] + phases.pop("setup").seconds
    order = [name for name in order if name != "setup"]
    tracer = Tracer()
    traced: dict[str, Phase] = {}
    if args.trace:
        tracer.install()
        try:
            traced = replay(ops, phases, order)
        finally:
            tracer.uninstall()
        for name in PHASES:
            mismatched = compare_outputs(phases[name], traced[name])
            tally(mismatched == 0, f"{name}: {mismatched} traced results differ from untraced")

    for phase in list(phases.values()) + list(traced.values()):
        for out in phase.outputs:
            tally(out is not None, f"{phase.name} operation")

    # Determinism: the first train call again, untimed, must give the same loss.
    first = phases["train"]
    if first.outputs and first.outputs[0] is not None:
        try:
            again = ops["train"](first.items[0])
            tally(again == first.outputs[0],
                  f"train repeat gave loss {again!r}, first {first.outputs[0]!r}")
        except Exception as exc:
            traceback.print_exc()
            tally(False, f"train repeat: {exc}")

    try:
        check_cross(phases["eval"].items, phases["eval"].outputs,
                    phases["predict"].items, phases["predict"].outputs)
        tally(True, "cross")
    except CheckFailed as exc:
        tally(False, str(exc))

    latencies = [t * 1e3 for t, out in zip(phases["predict"].seconds,
                                           phases["predict"].outputs) if out is not None]
    counts = {name: {"operations": len(p.items), "sentences": p.sentences(),
                     "busy_s": p.busy()} for name, p in phases.items()}
    if args.trace:
        sentences = sum(p.sentences() for p in traced.values())
        traced_s = sum(p.busy() for p in traced.values())
        values = tracer.layer_metrics(sentences)
        values["trace.traced_ms_per_sentence"] = traced_s * 1e3 / max(sentences, 1)
        for name in PHASES:
            base = phases[name].busy()
            values[f"trace.overhead_{name}_pct"] = (
                (traced[name].busy() / base - 1.0) * 100 if base else 0.0)
    else:
        tally((tail_percentile(len(latencies)) or 0) >= 95,
              f"{len(latencies)} predict samples are too few for p95")
        values = {
            "train_sent_per_s": phases["train"].sentences() / max(phases["train"].busy(), 1e-9),
            "eval_sent_per_s": phases["eval"].sentences() / max(phases["eval"].busy(), 1e-9),
            "predict_ms_p50": percentile_or_zero(latencies, 50),
            "predict_ms_p95": percentile_or_zero(latencies, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}

    meta = metadata(crener, np, args.workload, args.seed, args.trace, counts)
    meta["predict_samples"] = len(latencies)
    meta["setup_s"] = setup_times
    if args.trace:
        meta["absent"] = tracer.absent
    write_outputs(args, meta, metrics, tracer if args.trace else None)
    print("meta " + json.dumps(meta))
    if args.trace:
        print_layer_table(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def percentile_or_zero(samples, p: float) -> float:
    return percentile(samples, p) if samples else 0.0


def print_layer_table(metrics: dict) -> None:
    total = metrics["trace.traced_ms_per_sentence"]["value"]
    rows = sorted(((v["value"], k) for k, v in metrics.items()
                   if v["unit"] == "ms/sentence" and k != "trace.traced_ms_per_sentence"),
                  reverse=True)
    print(f"{'layer self time':<36} {'ms/sentence':>12} {'share':>7}")
    for value, key in rows:
        print(f"{key:<36} {value:>12.4f} {value / total if total else 0.0:>7.1%}")
    print(f"{'traced total':<36} {total:>12.4f}")


def write_outputs(args, meta: dict, metrics: dict, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics}, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span._asdict()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
