"""Tests of the benchmark's own arithmetic, its wrappers, and the shape of
its output. No timing value is asserted, so load on the machine cannot
fail them. Run with: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from arith import (
    Span,
    conv_backward_flops,
    conv_forward_flops,
    covered,
    percentile,
    self_times,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0
    assert covered([(12, 15)], 0, 10) == 0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: [3, 4] is subtracted from root once
        Span("a.inner", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # runs past its parent: clipped to [9, 10]
    ]
    assert self_times(spans) == [10 - 5 - 1, 3 - 1, 3, 1, 3]


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(200, 0, -1))  # order must not matter
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    assert sum(s > percentile(samples, 95) for s in samples) == 10
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_conv_flops_for_the_model_shape():
    # n = 64, c_in = 64, c_out = 16, 3 x 3 kernel: 75.5 MFLOP forward.
    assert conv_forward_flops((64, 64, 64), (3, 3, 64, 16)) == 75_497_472
    assert conv_backward_flops((64, 64, 64), (3, 3, 64, 16)) == 150_994_944
    # A leading batch axis counts every padded cell too.
    assert conv_forward_flops((2, 64, 64, 64), (3, 3, 64, 16)) == 2 * 75_497_472


@pytest.fixture
def crener_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))


def test_tracer_reports_missing_names_as_absent(crener_path, monkeypatch):
    import spans

    extra = (("gone.fn", "crener.kernels", "set_backend_removed"),
             ("gone.module", "crener.no_such_module", "f"),
             ("gone.class", "crener.corpus", "NoGrid.cells"))
    monkeypatch.setattr(spans, "LAYER_SPANS", spans.LAYER_SPANS + extra)
    import numpy as np
    from crener import kernels

    tracer = spans.Tracer()
    tracer.install()
    try:
        # Called by keyword, the conv's counting hook cannot find its inputs;
        # that is noted, and the call itself still succeeds.
        out = kernels.conv2d_forward(x=np.ones((4, 4, 2)), w=np.ones((3, 3, 2, 1)),
                                     b=np.zeros(1), dilation=1)
    finally:
        tracer.uninstall()
    assert out.shape == (4, 4, 1)
    assert tracer.absent[:3] == ["crener.kernels.set_backend_removed",
                                 "crener.no_such_module.f", "crener.corpus.NoGrid.cells"]
    assert tracer.absent[3].startswith("kernels.conv_fwd counts: IndexError")
    assert tracer.layer_metrics(0)["co_predictor.predict_cells_ms"] == 0.0


def test_tracer_patches_every_binding_and_restores_them(crener_path):
    import crener
    from crener import corpus, model
    from spans import SELF_TIME_METRICS, Tracer

    original = corpus.encode_grid
    sentences = crener.generate_synthetic_corpus(3, 2, 6, ["PER"], min_len=6)
    m = crener.CrenerModel(crener.default_config(),
                           crener.CharVocabulary.from_sentences(sentences),
                           crener.build_tag_vocabulary(sentences))
    tracer = Tracer()
    tracer.install()
    try:
        # model.py imports encode_grid by name; that binding is wrapped too.
        assert model.encode_grid is not original and corpus.encode_grid is model.encode_grid
        m.sentence_loss(sentences[0])[0].backward()
        crener.Adam(m.store, learning_rate=1e-3).step()
        m.predict_sentence(sentences[1])
    finally:
        tracer.uninstall()
    assert model.encode_grid is original and corpus.encode_grid is original
    assert tracer.absent == []
    names = {s.name for s in tracer.span_records()}
    assert {span for span in SELF_TIME_METRICS.values()} <= names
    metrics = tracer.layer_metrics(2)
    assert metrics["kernels.conv_fwd_calls"] == 6.0  # 3 dilations x 2 rounds per forward
    assert metrics["kernels.conv_bwd_calls"] == 3.0
    assert metrics["kernels.useful_cell_frac"] == 1.0
    assert metrics["relation_enhance.pool_recover_calls_per_forward"] == 2.0
    assert metrics["autodiff.ops_per_sentence"] > 0
    requests = {s.name: s.request for s in tracer.span_records()}
    assert requests["co_predictor.loss"] is None  # before the first optimizer step
    assert requests["decode.decode_grid"] == f"sentence:{sentences[1].id}"


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_the_result_schema(trace, section):
    command = [sys.executable, *BENCHMARK["command"][1:],
               "--workload", BENCHMARK["workloads"][0]["name"],
               "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    command = [sys.executable, *BENCHMARK["command"][1:],
               "--workload", "train-short", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
