"""Config file parsing and the command-line entry points, driven through
main() the way a shell would use them."""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import small_config
from crener.cli import main
from crener.config import (
    apply_overrides,
    config_to_flat,
    config_to_text,
    default_config,
    parse_config_text,
    save_config,
)
from crener.corpus import Sentence, generate_synthetic_corpus, save_corpus
from crener.errors import ConfigError


class TestConfigText:
    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text(
            "# run settings\n\noptimizer.epochs = 3\n  # indented comment\n"
            "encoder.heads = 2\n"
        )
        assert cfg.optimizer.epochs == 3
        assert cfg.encoder.heads == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="optimizer.momentum"):
            parse_config_text("optimizer.momentum = 0.9")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("scheduler.rate = 1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("encoder.layers = banana")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("optimizer.epochs 3")

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1e400"])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(ConfigError, match="predictor.threshold: expected a finite number"):
            parse_config_text(f"predictor.threshold = {value}")

    def test_json_list_becomes_tuple(self):
        cfg = parse_config_text("grid.dilations = [1, 4]")
        assert cfg.grid.dilations == (1, 4)

    def test_bare_strings_allowed_for_paths(self):
        cfg = parse_config_text('paths.train = data/train.jsonl\npaths.dev = "d.jsonl"')
        assert cfg.paths.train == "data/train.jsonl"
        assert cfg.paths.dev == "d.jsonl"

    def test_booleans(self):
        cfg = parse_config_text(
            "ablations.use_scaling_factor = true\nablations.no_dilated_conv = false"
        )
        assert cfg.ablations.use_scaling_factor is True
        assert cfg.ablations.no_dilated_conv is False

    def test_text_round_trip(self):
        cfg = default_config()
        cfg.optimizer.epochs = 7
        cfg.predictor.mode = "softmax"
        cfg.paths.train = "x.jsonl"
        back = parse_config_text(config_to_text(cfg))
        assert config_to_flat(back) == config_to_flat(cfg)

    def test_apply_overrides(self):
        cfg = default_config()
        apply_overrides(cfg, ["optimizer.epochs=3", "encoder.heads=2"])
        assert cfg.optimizer.epochs == 3 and cfg.encoder.heads == 2
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["no-equals-sign"])

    def test_readme_table_names_every_key(self):
        """The README's configuration table lists exactly the config keys,
        section by section and in order, so a deleted knob cannot linger."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        table = {
            m.group(1): m.group(2).split(", ")
            for m in re.finditer(r"^\| `(\w+)` \| `([\w, ]+)` \|", section, re.MULTILINE)
        }
        expected = {}
        for key in config_to_flat(default_config()):
            name, field = key.split(".")
            expected.setdefault(name, []).append(field)
        assert table == expected


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file, train/dev corpora, and a trained checkpoint directory."""
    root = tmp_path_factory.mktemp("cli")
    sents = generate_synthetic_corpus(seed=3, count=12, max_len=8, types=["PER", "LOC"])
    train_path = root / "train.jsonl"
    dev_path = root / "dev.jsonl"
    save_corpus(sents, train_path)
    save_corpus(sents[:6], dev_path)

    cfg = small_config()
    cfg.optimizer.epochs = 2
    cfg.optimizer.batch_size = 4
    cfg.paths.train = str(train_path)
    cfg.paths.dev = str(dev_path)
    cfg_path = root / "run.cfg"
    save_config(cfg, cfg_path)

    ckpt = root / "ckpt"
    code = main(["train", "--config", str(cfg_path), "--checkpoint-dir", str(ckpt),
                 "--quiet"])
    assert code == 0
    return {"root": root, "cfg": cfg_path, "ckpt": ckpt, "dev": dev_path}


class TestTrainCommand:
    def test_checkpoint_layout(self, workspace, capsys):
        ckpt = workspace["ckpt"]
        assert (ckpt / "manifest.json").is_file()
        assert (ckpt / "train_log.jsonl").is_file()
        assert any((ckpt / "params").glob("*.npy"))
        log = [json.loads(l) for l in (ckpt / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2]

    def test_progress_output(self, workspace, capsys, tmp_path):
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--set", "optimizer.epochs=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch 1" in out
        assert "checkpoint written to" in out

    def test_env_seed_overrides_config(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CRENER_SEED", "7")
        ckpt = tmp_path / "seeded"
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(ckpt), "--quiet",
                     "--set", "optimizer.epochs=1"])
        assert code == 0
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["config"]["optimizer.seed"] == 7

    def test_bad_env_seed_is_config_error(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CRENER_SEED", "soon")
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 1
        assert "CRENER_SEED" in capsys.readouterr().err

    def test_unknown_override_exits_1(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "x"),
                     "--set", "optimizer.wrong=1", "--quiet"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["predictor.threshold=nan",
                                          "optimizer.learning_rate=inf"])
    def test_non_finite_float_exits_1(self, workspace, tmp_path, capsys, override):
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "x"), "--quiet",
                     "--set", override])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {override.split('=')[0]}: expected a finite number")
        assert not (tmp_path / "x").exists()

    def test_missing_train_file_exits_2(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "x"), "--quiet",
                     "--set", "paths.train=/nonexistent/t.jsonl"])
        assert code == 2

    def test_divergence_exits_3(self, workspace, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(workspace["cfg"]),
                         "--checkpoint-dir", str(tmp_path / "x"), "--quiet",
                         "--set", "optimizer.learning_rate=1e30"])
        assert code == 3
        assert "diverged" in capsys.readouterr().err


class TestEvalCommand:
    def test_report_written(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(workspace["ckpt"]),
                     "--data", str(workspace["dev"]), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0].split()[:2] == ["type", "P"]
        report = json.loads(out.read_text())
        for key in ("precision", "recall", "f1", "gold", "predicted", "per_type"):
            assert key in report

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "none"),
                     "--data", str(tmp_path / "none.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("version", [1, 2])
    def test_format_1_checkpoint_exits_1(self, workspace, tmp_path, capsys, version):
        ckpt = tmp_path / "old"
        shutil.copytree(workspace["ckpt"], ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["format_version"] = version
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workspace["dev"]), "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "retired" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_sentence_longer_than_max_len_exits_2(workspace, tmp_path, capsys, command):
    data = tmp_path / "long.jsonl"
    save_corpus([Sentence("long-1", ["字"] * 40, [])], data)  # max_len is 32
    if command == "eval":
        argv = ["eval", "--data", str(data), "--out", str(tmp_path / "r.json")]
    else:
        argv = ["predict", "--input", str(data), "--output", "-"]
    code = main(argv + ["--checkpoint", str(workspace["ckpt"])])
    assert code == 2
    err = capsys.readouterr().err
    assert "'long-1'" in err and "max_len" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entity", [
    {"indices": [0], "type": 3}, {"indices": [1.7], "type": "PER"},
    {"indices": [True], "type": "PER"},
], ids=["type-int", "index-float", "index-bool"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_mistyped_entity_exits_2(workspace, tmp_path, capsys, command, entity):
    data = tmp_path / "mistyped.jsonl"
    data.write_text(json.dumps({"id": "s", "text": ["a", "b"], "entities": [entity]}) + "\n")
    if command == "eval":
        argv = ["eval", "--data", str(data), "--out", str(tmp_path / "r.json")]
    else:
        argv = ["predict", "--input", str(data), "--output", "-"]
    assert main(argv + ["--checkpoint", str(workspace["ckpt"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data}:1: entity #0: ") and "Traceback" not in err


MANIFEST_KEYS = ["config", "chars", "entity_types", "none_is_implicit", "parameters", "epoch"]
# case -> (change made to the manifest, phrase the error must contain)
MANIFEST_DAMAGE = {
    "manifest-chars-not-strings": (
        lambda m: m["chars"].append(["x"]), "missing or malformed chars"),
    "manifest-types-not-strings": (
        lambda m: m["entity_types"].append(["x"]), "missing or malformed entity_types"),
    "manifest-config-unknown-key": (
        lambda m: m["config"].update({"encoder.bogus": 1}),
        "bad checkpoint config: unknown config key 'encoder.bogus'"),
    "manifest-config-mistyped": (
        lambda m: m["config"].update({"encoder.heads": "many"}),
        "bad checkpoint config: encoder.heads: expected an integer"),
    "manifest-config-invalid": (
        lambda m: m["config"].update({"encoder.heads": 0}),
        "bad checkpoint config: encoder.heads must be >= 1"),
    "manifest-none-contradicts-mode": (
        lambda m: m.update({"none_is_implicit": not m["none_is_implicit"]}),
        "contradicts its predictor.mode"),
}
CORRUPT_CHECKPOINT_CASES = (
    ["manifest-not-utf8", "manifest-not-json"]
    + [f"manifest-without-{key}" for key in MANIFEST_KEYS]
    + list(MANIFEST_DAMAGE)
    + ["param-missing", "param-unreadable", "param-non-finite", "param-wrong-shape"]
)


def corrupt_checkpoint(workspace, tmp_path, case):
    """(checkpoint dir, path the error must name, phrase it must contain)
    for a copy of the workspace checkpoint damaged as `case` says."""
    ckpt = tmp_path / "damaged"
    shutil.copytree(workspace["ckpt"], ckpt)
    manifest_path = ckpt / "manifest.json"
    param_path = ckpt / "params" / "embed.attn.wk.npy"
    if case == "manifest-not-utf8":
        manifest_path.write_bytes(b"\xff\xfe{")
        return ckpt, manifest_path, "not a JSON checkpoint manifest"
    if case == "manifest-not-json":
        manifest_path.write_text('{"format_version": 2')
        return ckpt, manifest_path, "not a JSON checkpoint manifest"
    if case.startswith("manifest-without-"):
        key = case[len("manifest-without-"):]
        manifest = json.loads(manifest_path.read_text())
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        return ckpt, manifest_path, f"missing or malformed {key}"
    if case in MANIFEST_DAMAGE:
        damage, phrase = MANIFEST_DAMAGE[case]
        manifest = json.loads(manifest_path.read_text())
        damage(manifest)
        manifest_path.write_text(json.dumps(manifest))
        return ckpt, manifest_path, phrase
    if case == "param-missing":
        param_path.unlink()
        return ckpt, param_path, "unreadable checkpoint parameter"
    if case == "param-unreadable":
        param_path.write_bytes(b"not an npy file")
        return ckpt, param_path, "unreadable checkpoint parameter"
    if case == "param-non-finite":
        array = np.load(param_path)
        array.flat[0] = np.nan
        np.save(param_path, array)
        return ckpt, param_path, "not a finite float array"
    np.save(param_path, np.zeros(3, dtype="<f4"))  # param-wrong-shape
    return ckpt, ckpt, "shape mismatch for embed.attn.wk"


@pytest.mark.parametrize("case", CORRUPT_CHECKPOINT_CASES)
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_corrupt_checkpoint_exits_2(workspace, tmp_path, capsys, command, case):
    ckpt, path, phrase = corrupt_checkpoint(workspace, tmp_path, case)
    if command == "eval":
        argv = ["eval", "--data", str(workspace["dev"]), "--out", str(tmp_path / "r.json")]
    else:
        argv = ["predict", "--input", str(workspace["dev"]), "--output", "-"]
    assert main(argv + ["--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and phrase in err
    assert "Traceback" not in err

def checkpoint_with_sidecar(workspace, tmp_path, records):
    """A copy of the workspace checkpoint whose config points at a sidecar."""
    sidecar = tmp_path / "vectors.jsonl"
    sidecar.write_text("".join(json.dumps(r) + "\n" for r in records))
    ckpt = tmp_path / "with-sidecar"
    shutil.copytree(workspace["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["paths.vectors_sidecar"] = str(sidecar)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    return ckpt


@pytest.mark.parametrize("extra_rows, where", [(1, "rows"), (None, "vectors.jsonl:1")],
                         ids=["one-row-too-many", "empty-vectors"])
def test_bad_sidecar_exits_2(workspace, tmp_path, capsys, extra_rows, where):
    sentence = json.loads(workspace["dev"].read_text().splitlines()[0])
    d_context = small_config().encoder.d_context
    rows = [] if extra_rows is None else [[0.0] * d_context] * (len(sentence["text"]) + extra_rows)
    ckpt = checkpoint_with_sidecar(workspace, tmp_path, [{"id": sentence["id"], "vectors": rows}])
    data = tmp_path / "one.jsonl"
    data.write_text(json.dumps(sentence) + "\n")
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(data), "--output", "-"])
    assert code == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    if extra_rows is not None:
        assert repr(sentence["id"]) in err


def sidecar_run(workspace, tmp_path, command, value) -> tuple[int, str]:
    """Exit code of `command` run with a sidecar whose first dev sentence's
    vectors all hold `value`, and that sentence's id."""
    sentence = json.loads(workspace["dev"].read_text().splitlines()[0])
    rows = [[value] * small_config().encoder.d_context] * len(sentence["text"])
    records = [{"id": sentence["id"], "vectors": rows}]
    if command == "train":
        sidecar = tmp_path / "vectors.jsonl"
        sidecar.write_text("".join(json.dumps(r) + "\n" for r in records))
        return main(["train", "--config", str(workspace["cfg"]), "--quiet",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--set", f"paths.vectors_sidecar={sidecar}"]), sentence["id"]
    data = tmp_path / "one.jsonl"
    data.write_text(json.dumps(sentence) + "\n")
    ckpt = checkpoint_with_sidecar(workspace, tmp_path, records)
    argv = (["eval", "--data", str(data), "--out", str(tmp_path / "r.json")] if command == "eval"
            else ["predict", "--input", str(data), "--output", "-"])
    return main(argv + ["--checkpoint", str(ckpt)]), sentence["id"]


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_nan_sidecar_exits_2(workspace, tmp_path, capsys, command):
    code, sid = sidecar_run(workspace, tmp_path, command, float("nan"))
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("data error: ") and "vectors.jsonl:1" in err and repr(sid) in err
    assert "finite" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_overflowing_sidecar_exits_2(workspace, tmp_path, capsys, command):
    code, sid = sidecar_run(workspace, tmp_path, command, 1e30)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"data error: sentence {sid!r}: non-finite scores")
    assert err.count("\n") == 1


class TestPredictCommand:
    def test_stdout_mode_emits_jsonl(self, workspace, capsys):
        code = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                     "--input", str(workspace["dev"]), "--output", "-"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            obj = json.loads(line)
            assert set(obj) >= {"id", "text", "entities"}

    def test_file_mode(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.jsonl"
        code = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                     "--input", str(workspace["dev"]), "--output", str(out)])
        assert code == 0
        assert "predictions written to" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 6


class TestDecodeGridCommand:
    def write_grid(self, tmp_path, records):
        path = tmp_path / "grid.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_contiguous_entity_printed(self, tmp_path, capsys):
        cells = [[1, 2, "NNC"], [2, 1, "PNC"], [2, 3, "NNC"], [3, 2, "PNC"],
                 [3, 1, "THC_PER"], [1, 3, "HTC_PER"]]
        path = self.write_grid(tmp_path, [{"n": 4, "cells": cells}])
        assert main(["decode-grid", "--grid", str(path)]) == 0
        assert capsys.readouterr().out == "[1,2,3] PER\n"

    def test_single_char_entity(self, tmp_path, capsys):
        path = self.write_grid(
            tmp_path, [{"n": 2, "cells": [[0, 0, "THC_X"], [0, 0, "HTC_X"]]}]
        )
        assert main(["decode-grid", "--grid", str(path)]) == 0
        assert capsys.readouterr().out == "[0] X\n"

    def test_discontinuous_needs_flag(self, tmp_path, capsys):
        cells = [[0, 2, "NNC"], [2, 0, "PNC"], [2, 0, "THC_ORG"], [0, 2, "HTC_ORG"]]
        record = {"n": 3, "cells": cells}
        path = self.write_grid(tmp_path, [record])
        main(["decode-grid", "--grid", str(path)])
        assert capsys.readouterr().out == ""
        main(["decode-grid", "--grid", str(path), "--discontinuous"])
        assert capsys.readouterr().out == "[0,2] ORG\n"

    @pytest.mark.parametrize("record", [
        {"n": 2},
        {"n": "abc", "cells": []},
        {"n": 2, "cells": [["x", 0, "NNC"]]},
        {"n": -1, "cells": []},
        {"n": 257, "cells": []},
        {"n": 2, "cells": [[-1, 0, "NNC"]]},
        {"n": 2, "cells": [[0, 2, "NNC"]]},
        {"n": 3, "cells": [[2, 2, "THC_"]]},
        {"n": 3, "cells": [[0, 2, "HTC_"], [0, 1, "NNC"], [1, 0, "PNC"]]},
    ], ids=["missing-cells", "non-integer-n", "non-integer-index", "negative-n",
            "n-above-256", "cell-at-minus-1", "cell-at-n", "empty-type-decoded",
            "empty-type-not-decoded"])
    def test_malformed_record_exits_2(self, tmp_path, capsys, record):
        path = self.write_grid(tmp_path, [record])
        assert main(["decode-grid", "--grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert "grid.jsonl:1" in err and "Traceback" not in err

    def test_largest_side_accepted(self, tmp_path, capsys):
        path = self.write_grid(tmp_path, [{"n": 256, "cells": [[255, 255, "THC_X"]]}])
        assert main(["decode-grid", "--grid", str(path)]) == 0
        assert capsys.readouterr().out == "[255] X\n"


def test_corpus_stats_command(workspace, capsys):
    code = main(["corpus-stats", "--data", str(workspace["dev"])])
    assert code == 0
    out = capsys.readouterr().out
    assert "sentences" in out and "entities_per_type" in out


def path_error_case(name, workspace, tmp_path):
    """(argv, offending path) for one bad-path case."""
    directory = tmp_path / "a-directory"
    directory.mkdir()
    binary = tmp_path / "latin1.jsonl"
    binary.write_bytes('{"id": "s", "text": ["é"], "entities": []}\n'.encode("latin-1"))
    a_file = tmp_path / "a-file"
    a_file.write_text("x\n")
    ckpt, cfg, dev = str(workspace["ckpt"]), str(workspace["cfg"]), str(workspace["dev"])
    train = ["train", "--config", cfg, "--quiet", "--checkpoint-dir", str(tmp_path / "ck")]
    cases = {
        "data-dir": (["corpus-stats", "--data", str(directory)], directory),
        "data-not-utf8": (["corpus-stats", "--data", str(binary)], binary),
        "data-not-utf8-conll": (["corpus-stats", "--format", "conll", "--data", str(binary)],
                                binary),
        "eval-data-dir": (["eval", "--checkpoint", ckpt, "--data", str(directory),
                           "--out", str(tmp_path / "r.json")], directory),
        "input-dir": (["predict", "--checkpoint", ckpt, "--input", str(directory),
                       "--output", "-"], directory),
        "input-not-utf8": (["predict", "--checkpoint", ckpt, "--input", str(binary),
                            "--output", "-"], binary),
        "grid-dir": (["decode-grid", "--grid", str(directory)], directory),
        "grid-not-utf8": (["decode-grid", "--grid", str(binary)], binary),
        "paths-train-dir": (train + ["--set", f"paths.train={directory}"], directory),
        "paths-dev-not-utf8": (train + ["--set", f"paths.dev={binary}"], binary),
        "paths-sidecar-dir": (train + ["--set", f"paths.vectors_sidecar={directory}"],
                              directory),
        "paths-sidecar-not-utf8": (train + ["--set", f"paths.vectors_sidecar={binary}"],
                                   binary),
        "checkpoint-dir-is-file": (["train", "--config", cfg, "--quiet",
                                    "--checkpoint-dir", str(a_file)], a_file),
        "output-dir": (["predict", "--checkpoint", ckpt, "--input", dev,
                        "--output", str(directory)], directory),
        "out-dir": (["eval", "--checkpoint", ckpt, "--data", dev, "--out", str(directory)],
                    directory),
    }
    return cases[name]


@pytest.mark.parametrize("case", [
    "data-dir", "data-not-utf8", "data-not-utf8-conll", "eval-data-dir", "input-dir",
    "input-not-utf8", "grid-dir", "grid-not-utf8", "paths-train-dir", "paths-dev-not-utf8",
    "paths-sidecar-dir", "paths-sidecar-not-utf8", "checkpoint-dir-is-file", "output-dir",
    "out-dir",
])
def test_bad_path_exits_2(workspace, tmp_path, capsys, case):
    argv, path = path_error_case(case, workspace, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_1(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("paths.train = é.jsonl\n".encode("latin-1"))
    assert main(["train", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"cannot read config {path}" in err and "Traceback" not in err
