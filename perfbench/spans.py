"""Timing wrappers around the calls into each crener layer, and the
per-layer metrics computed from the spans they record.

A wrapper replaces a function under every name a caller looks it up by:
each module-level binding in a loaded ``crener`` module that holds the
original (so ``model.encode_grid``, imported by name, is caught as well as
``co_predictor.predict_cells``, looked up through the module), or the
attribute on the class for methods. A name that does not resolve is
recorded as absent and its metrics read 0, so a layer that a later change
deletes or renames does not stop the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from arith import Span, conv_backward_flops, conv_forward_flops, self_times

# (span name, defining module, attribute path). Order is install order.
LAYER_SPANS = (
    ("training.train", "crener.training", "train"),
    ("model.predict_sentence", "crener.model", "CrenerModel.predict_sentence"),
    ("model.forward", "crener.model", "CrenerModel.forward"),
    ("encoder.encode", "crener.encoder", "encode"),
    ("grid.cln", "crener.grid", "conditional_layer_norm"),
    ("grid.pair_features", "crener.grid", "pair_features"),
    ("grid.dilated_convolutions", "crener.grid", "dilated_convolutions"),
    ("kernels.conv_fwd", "crener.kernels", "conv2d_forward"),
    ("kernels.conv_bwd", "crener.kernels", "conv2d_backward"),
    ("relation_enhance.tag_features", "crener.relation_enhance", "tag_features"),
    ("relation_enhance.pool_recover", "crener.relation_enhance", "pool_recover"),
    ("relation_enhance.enhance_round", "crener.relation_enhance", "enhance_round"),
    ("co_predictor.biaffine", "crener.co_predictor", "biaffine_scores"),
    ("co_predictor.mlp", "crener.co_predictor", "mlp_scores"),
    ("co_predictor.loss", "crener.co_predictor", "multi_tag_loss"),
    ("co_predictor.predict_cells", "crener.co_predictor", "predict_cells"),
    ("decode.decode_grid", "crener.decode", "decode_grid"),
    ("autodiff.backward", "crener.autodiff", "Tensor.backward"),
    ("training.adam_step", "crener.training", "Adam.step"),
    ("corpus.encode_grid", "crener.corpus", "encode_grid"),
)

# Per-layer metric -> span whose self time (ms per sentence) it reports.
SELF_TIME_METRICS = {
    "autodiff.backward_ms": "autodiff.backward",
    "kernels.conv_fwd_ms": "kernels.conv_fwd",
    "kernels.conv_bwd_ms": "kernels.conv_bwd",
    "grid.cln_ms": "grid.cln",
    "grid.pair_features_ms": "grid.pair_features",
    "grid.dilated_convolutions_ms": "grid.dilated_convolutions",
    "relation_enhance.tag_features_ms": "relation_enhance.tag_features",
    "relation_enhance.pool_recover_ms": "relation_enhance.pool_recover",
    "relation_enhance.enhance_round_ms": "relation_enhance.enhance_round",
    "encoder.encode_ms": "encoder.encode",
    "co_predictor.biaffine_ms": "co_predictor.biaffine",
    "co_predictor.mlp_ms": "co_predictor.mlp",
    "co_predictor.loss_ms": "co_predictor.loss",
    "co_predictor.predict_cells_ms": "co_predictor.predict_cells",
    "decode.decode_grid_ms": "decode.decode_grid",
    "model.forward_self_ms": "model.forward",
    "training.adam_step_ms": "training.adam_step",
    "corpus.encode_grid_ms": "corpus.encode_grid",
}

# Time spent in the wrappers' own counting, kept out of every layer's self time.
HOOK_SPAN = "trace.hooks"


def _crener_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "crener" or name.startswith("crener."))]


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, value) for a dotted attribute, or None if any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Records spans and counts while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._steps = 0

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        for span_name, module_name, attr_path in LAYER_SPANS:
            found = _resolve(module_name, attr_path)
            if found is None or not callable(found[2]):
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            owner, attr, original = found
            key = span_name.replace(".", "_")
            before = getattr(self, "_before_" + key, None)
            after = getattr(self, "_after_" + key, None)
            self._replace(owner, attr, original,
                          self._span_wrapper(span_name, original, before, after))
        try:
            module = importlib.import_module("crener.autodiff")
        except ImportError:
            self.absent.append("crener.autodiff")
            return
        for name, fn in list(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                self._replace(module, name, fn, self._counting_wrapper(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        if inspect.isclass(owner):
            targets = [(owner, attr)]
        else:
            # Every binding of the original in a loaded crener module: the
            # defining module and any module that imported it by name.
            targets = [(m, name) for m in _crener_modules()
                       for name, value in list(vars(m).items()) if value is original]
        for target, name in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, name: str, fn, before, after):
        """`before(args, kwargs)` may set the request id; `after(args, result)`
        does the counting, timed as a HOOK_SPAN child of the enclosing span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                start = clock()
                try:
                    after(args, result)
                except Exception as exc:  # a changed signature must not fail the call
                    note = f"{name} counts: {type(exc).__name__}: {exc}"
                    if note not in self.absent:
                        self.absent.append(note)
                spans.append([HOOK_SPAN, start, clock(), stack[-1] if stack else -1, self.request])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["autodiff.ops"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_kernels_conv_fwd(self, args, result) -> None:
        x, w = args[0], args[1]
        self.counts["kernels.flop"] += conv_forward_flops(x.shape, w.shape)
        self.counts["kernels.cells"] += x[..., 0].size
        # Masked cells enter the conv as all-zero rows; a real cell is
        # all-zero only with probability ~0 after GELU.
        self.counts["kernels.real_cells"] += int(x.any(axis=-1).sum())

    def _after_kernels_conv_bwd(self, args, result) -> None:
        x, w = args[0], args[1]
        self.counts["kernels.flop"] += conv_backward_flops(x.shape, w.shape)

    def _after_co_predictor_predict_cells(self, args, result) -> None:
        cells = getattr(result, "cells", None)
        if cells is not None and hasattr(result, "n"):  # TagGrid
            tagged, total = len(cells), result.n * result.n
        elif hasattr(result, "ndim") and result.ndim >= 3:  # boolean hit array
            tagged, total = int(result.any(axis=-1).sum()), result[..., 0].size
        else:
            return
        self.counts["co_predictor.tagged_cells"] += tagged
        self.counts["co_predictor.cells"] += total

    def _after_decode_decode_grid(self, args, result) -> None:
        self.counts["decode.mentions"] += len(result)

    # Request ids: the sentence for predict and eval, the optimizer step for train.

    def _before_model_predict_sentence(self, args, kwargs) -> None:
        sentence = args[1] if len(args) > 1 else kwargs.get("sentence")
        self.request = f"sentence:{getattr(sentence, 'id', '?')}"

    def _before_training_train(self, args, kwargs) -> None:
        self.request = f"step:{self._steps + 1}"

    def _after_training_adam_step(self, args, result) -> None:
        self._steps += 1
        self.request = f"step:{self._steps + 1}"

    # ------------------------------------------------------------------
    # results

    def span_records(self) -> list[Span]:
        return [Span(*record) for record in self.spans]

    def layer_metrics(self, sentences: int) -> dict[str, float]:
        """Per-layer metrics over `sentences` sentences run while installed."""
        spans = self.span_records()
        self_ms: dict[str, float] = defaultdict(float)
        total_ms: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(spans, self_times(spans)):
            self_ms[span.name] += own * 1e3
            total_ms[span.name] += (span.end - span.start) * 1e3
            calls[span.name] += 1
        per = max(sentences, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {key: self_ms[span] / per for key, span in SELF_TIME_METRICS.items()}
        conv_ms = total_ms["kernels.conv_fwd"] + total_ms["kernels.conv_bwd"]
        metrics.update({
            "autodiff.ops_per_sentence": self.counts["autodiff.ops"] / per,
            "kernels.conv_fwd_calls": calls["kernels.conv_fwd"] / per,
            "kernels.conv_bwd_calls": calls["kernels.conv_bwd"] / per,
            "kernels.conv_gflop": self.counts["kernels.flop"] / 1e9 / per,
            "kernels.conv_gflops": ratio(self.counts["kernels.flop"] / 1e9, conv_ms / 1e3),
            "kernels.useful_cell_frac": ratio(self.counts["kernels.real_cells"],
                                              self.counts["kernels.cells"]),
            "relation_enhance.pool_recover_calls_per_forward": ratio(
                calls["relation_enhance.pool_recover"], calls["model.forward"]),
            "co_predictor.tagged_cell_frac": ratio(self.counts["co_predictor.tagged_cells"],
                                                   self.counts["co_predictor.cells"]),
            "decode.mentions_per_sentence": ratio(self.counts["decode.mentions"],
                                                  calls["decode.decode_grid"]),
            "trace.hooks_ms": self_ms[HOOK_SPAN] / per,
        })
        return metrics
