"""Config file parsing and the command-line entry points, driven through
main() the way a shell would use them."""

import ast
import errno
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_checkpoint, small_config, untrained_checkpoint
from crener import training
from crener.cli import main
from crener.config import apply_overrides, config_to_flat, default_config, parse_config_text
from crener.corpus import Sentence, generate_synthetic_corpus, save_corpus
from crener.errors import ConfigError, CorpusError
from oracles import config_to_text, save_config


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

    def test_paths_test_is_an_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("paths.train = train.jsonl\npaths.test = test.jsonl\n")
        assert main(["train", "--config", str(path), "--quiet"]) == 1
        assert "unknown config key 'paths.test'" in capsys.readouterr().err

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
        cfg.paths.train = "x.jsonl"
        cfg.paths.dev = "y.jsonl"
        back = parse_config_text(config_to_text(cfg))
        assert config_to_flat(back) == config_to_flat(cfg)

    def test_apply_overrides(self):
        cfg = default_config()
        apply_overrides(cfg, ["optimizer.epochs=3", "encoder.heads=2"])
        assert cfg.optimizer.epochs == 3 and cfg.encoder.heads == 2
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["no-equals-sign"])

    def test_max_len_is_bounded(self):
        # Validation alone: a rejected value never reaches the position table.
        cfg = default_config()
        cfg.encoder.max_len = 1024
        cfg.validate()
        cfg.encoder.max_len = 10**9
        with pytest.raises(ConfigError, match="encoder.max_len must be <= 1024, got 1000000000"):
            cfg.validate()

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
        assert sorted(os.listdir(ckpt)) == ["checkpoint.npz", "train_log.jsonl"]
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

    def test_seed_override_lands_in_checkpoint(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "seeded"
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(ckpt), "--quiet",
                     "--set", "optimizer.epochs=1", "--set", "optimizer.seed=7"])
        assert code == 0
        assert training.Checkpoint.load(str(ckpt)).config.optimizer.seed == 7

    @pytest.mark.parametrize("override, message", [
        ("optimizer.seed=-1", "optimizer.seed must be >= 0"),
        ("grid.dilations=[-1,2,3]", "grid.dilations must all be >= 1"),
        ("grid.dilations=[0,2]", "grid.dilations must all be >= 1"),
    ], ids=["optimizer.seed=-1", "grid.dilations=[-1,2,3]", "grid.dilations=[0,2]"])
    def test_invalid_value_exits_1(self, workspace, tmp_path, capsys, override, message):
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "x"), "--quiet", "--set", override])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_odd_encoder_width_trains(self, workspace, tmp_path, capsys):
        # d_h = 33 + 4 + 2 + 2 = 41 reaches the relative-position table.
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "odd"), "--quiet",
                     "--set", "optimizer.epochs=1", "--set", "encoder.heads=1",
                     "--set", "enhance.heads=1", "--set", "encoder.d_context=33"])
        assert code == 0
        config = training.Checkpoint.load(str(tmp_path / "odd")).config
        assert config.encoder.d_h == 41

    def test_huge_dilation_trains(self, workspace, tmp_path, capsys):
        # Every tap but the centre reads only padding, which is not allocated.
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "wide"), "--quiet",
                     "--set", "optimizer.epochs=1", "--set", "grid.dilations=[10000000]"])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert training.Checkpoint.load(str(tmp_path / "wide")).config.grid.dilations == (10_000_000,)

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

    def test_enhance_heads_must_divide_width_exits_1(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["cfg"]),
                     "--checkpoint-dir", str(tmp_path / "x"), "--quiet",
                     "--set", "enhance.heads=3"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: enhance.heads 3 does not divide the encoder width d_h 16\n"
        )
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

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_format_1_checkpoint_exits_1(self, workspace, tmp_path, capsys, version):
        """A directory of formats 1-3 holds manifest.json and params/*.npy."""
        ckpt = tmp_path / "old"
        (ckpt / "params").mkdir(parents=True)
        (ckpt / "manifest.json").write_text(json.dumps({"format_version": version}))
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


MANIFEST_KEYS = ["config", "chars", "entity_types", "epoch"]
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
}
CORRUPT_CHECKPOINT_CASES = (
    ["manifest-missing", "manifest-not-utf8", "manifest-not-json", "manifest-not-object"]
    + [f"manifest-without-{key}" for key in MANIFEST_KEYS]
    + list(MANIFEST_DAMAGE)
    + ["param-missing", "param-unreadable", "param-non-finite", "param-wrong-shape"]
)


def rewrite_archive(ckpt, edit):
    """Rewrite the archive in `ckpt` with `edit` applied to its members, a
    dict from name to array in which a bytes value is written as the
    member's raw contents; returns the archive's path."""
    path = ckpt / "checkpoint.npz"
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in members.items():
            if not isinstance(value, bytes):
                buffer = io.BytesIO()
                np.save(buffer, value)
                value = buffer.getvalue()
            archive.writestr(name + ".npy", value)
    return path


def manifest_member(text: bytes) -> np.ndarray:
    return np.frombuffer(text, dtype=np.uint8)


def edit_manifest(damage):
    """An archive edit that applies `damage` to the parsed manifest."""
    def edit(members):
        manifest = json.loads(members["manifest"].tobytes())
        damage(manifest)
        members["manifest"] = manifest_member(json.dumps(manifest).encode())
    return edit


def corrupt_checkpoint(workspace, tmp_path, case):
    """(checkpoint dir, path the error must name, phrase it must contain)
    for a copy of the workspace checkpoint damaged as `case` says."""
    ckpt = tmp_path / "damaged"
    shutil.copytree(workspace["ckpt"], ckpt)
    name = "embed.attn.wk"
    if case.startswith("manifest-without-"):
        key = case[len("manifest-without-"):]
        edit, phrase = edit_manifest(lambda m: m.pop(key)), f"missing or malformed {key}"
    elif case in MANIFEST_DAMAGE:
        damage, phrase = MANIFEST_DAMAGE[case]
        edit = edit_manifest(damage)
    else:
        edit, phrase = {
            "manifest-missing": (lambda m: m.pop("manifest"), "not a JSON checkpoint manifest"),
            "manifest-not-utf8": (lambda m: m.update(manifest=manifest_member(b"\xff\xfe{")),
                                  "not a JSON checkpoint manifest"),
            "manifest-not-json": (
                lambda m: m.update(manifest=manifest_member(b'{"format_version": 4')),
                "not a JSON checkpoint manifest"),
            "manifest-not-object": (lambda m: m.update(manifest=manifest_member(b"[4]")),
                                    "checkpoint manifest is not a JSON object"),
            "param-missing": (lambda m: m.pop(name), f"missing=['{name}']"),
            "param-unreadable": (lambda m: m.update({name: b"not an npy file"}),
                                 "unreadable checkpoint archive"),
            "param-non-finite": (lambda m: np.put(m[name], 0, np.nan),
                                 f"checkpoint parameter {name} is not a finite float array"),
            "param-wrong-shape": (lambda m: m.update({name: np.zeros(3, dtype="<f4")}),
                                  f"shape mismatch for {name}"),
        }[case]
    return ckpt, rewrite_archive(ckpt, edit), phrase


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

@pytest.mark.parametrize("damage", ["empty", "truncated", "npy"])
def test_unreadable_archive_exits_2(workspace, tmp_path, capsys, damage):
    ckpt = tmp_path / "damaged"
    shutil.copytree(workspace["ckpt"], ckpt)
    path = ckpt / "checkpoint.npz"
    if damage == "npy":
        with path.open("wb") as fh:
            np.save(fh, np.zeros(3, dtype="<f4"))
    else:
        path.write_bytes(b"" if damage == "empty" else path.read_bytes()[:-100])
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["dev"]),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"data error: {path}: unreadable checkpoint archive")


def with_predictor_mode(mode):
    """A manifest edit that puts `predictor.mode` back where the format-4
    writer of the softmax-regime era put it, after `predictor.d_hidden`."""
    def damage(manifest):
        items = list(manifest["config"].items())
        at = [k for k, _ in items].index("predictor.d_hidden") + 1
        manifest["config"] = dict(items[:at] + [("predictor.mode", mode)] + items[at:])
    return edit_manifest(damage)


def test_format_4_threshold_mode_manifest_predicts_the_same(workspace, tmp_path, capsys):
    """Format-4 manifests written while the softmax regime existed hold
    `predictor.mode = "threshold"`; the key is dropped on load."""
    ckpt = tmp_path / "with-mode"
    shutil.copytree(workspace["ckpt"], ckpt)
    rewrite_archive(ckpt, with_predictor_mode("threshold"))
    outputs = []
    for directory in (workspace["ckpt"], ckpt):
        assert main(["predict", "--checkpoint", str(directory),
                     "--input", str(workspace["dev"]), "--output", "-"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 6
    assert_same_checkpoint(training.Checkpoint.load(str(ckpt)),
                           training.Checkpoint.load(str(workspace["ckpt"])))


REFUSED_MANIFESTS = {
    "softmax-mode": (with_predictor_mode("softmax"),
                     "softmax-mode checkpoints are retired: retrain the model"),
    "format-5": (edit_manifest(lambda m: m.update(format_version=5)),
                 "unsupported checkpoint format 5; only format 4 is read"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_MANIFESTS))
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_refused_manifest_exits_1(workspace, tmp_path, capsys, command, case):
    edit, message = REFUSED_MANIFESTS[case]
    ckpt = tmp_path / "refused"
    shutil.copytree(workspace["ckpt"], ckpt)
    path = rewrite_archive(ckpt, edit)
    if command == "eval":
        argv = ["eval", "--data", str(workspace["dev"]), "--out", str(tmp_path / "r.json")]
    else:
        argv = ["predict", "--input", str(workspace["dev"]), "--output", "-"]
    assert main(argv + ["--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {path}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("where", ["file", "set"])
def test_predictor_mode_is_an_unknown_key(workspace, tmp_path, capsys, where):
    cfg = tmp_path / "run.cfg"
    text = workspace["cfg"].read_text()
    argv = ["train", "--config", str(cfg), "--quiet", "--checkpoint-dir", str(tmp_path / "ck")]
    if where == "file":
        text += "predictor.mode = threshold\n"
    else:
        argv += ["--set", "predictor.mode=threshold"]
    cfg.write_text(text)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(
        "unknown config key 'predictor.mode'\n")
    assert not (tmp_path / "ck").exists()


# Small-config ablations that leave 28 of the 79 parameters, so that the
# archive, and the flipped-byte test over it, stays short.
FEW_PARAMETERS = [
    "encoder.layers=0", "enhance.rounds=1", "ablations.no_biaffine_predictor=true",
    "ablations.no_dilated_conv=true", "ablations.no_region_matrix=true",
    "ablations.no_distance_matrix=true", "ablations.no_attn_matrix=true",
]


def test_flipped_bytes_fail_or_change_nothing(workspace, tmp_path, capsys):
    """Flip (xor 0xff) every byte of the zip's central directory and every
    31st byte before it, one at a time. Each flip either fails the load with
    a data error naming the archive or loads the checkpoint unchanged. The
    load and build are the first steps of `crener eval`, which exits 2 on
    a data error; every 16th failure also runs the command."""
    cfg = small_config()
    apply_overrides(cfg, FEW_PARAMETERS)
    ck = untrained_checkpoint(cfg)
    ckpt = tmp_path / "ckpt"
    ck.save(str(ckpt))
    path = ckpt / "checkpoint.npz"
    data = path.read_bytes()
    assert data[-22:-18] == b"PK\x05\x06"  # the end record, with no comment after it
    (directory_start,) = struct.unpack("<I", data[-6:-2])
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(workspace["dev"]),
            "--out", str(tmp_path / "r.json")]
    failed = unchanged = 0
    with path.open("r+b") as fh:
        for position in sorted({*range(0, directory_start, 31),
                                *range(directory_start, len(data))}):
            fh.seek(position)
            fh.write(bytes([data[position] ^ 0xFF]))
            fh.flush()
            try:
                back = training.Checkpoint.load(str(ckpt))
                back.build_model()
            except CorpusError as exc:
                assert str(exc).startswith(f"{path}: ")
                failed += 1
                if failed % 16 == 0:
                    assert main(argv) == 2
                    err = capsys.readouterr().err
                    assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
            else:
                assert_same_checkpoint(back, ck)
                unchanged += 1
            fh.seek(position)
            fh.write(data[position:position + 1])
            fh.flush()
    assert failed > unchanged > 0


def checkpoint_with_sidecar(workspace, tmp_path, records):
    """A copy of the workspace checkpoint whose config points at a sidecar."""
    sidecar = tmp_path / "vectors.jsonl"
    sidecar.write_text("".join(json.dumps(r) + "\n" for r in records))
    ckpt = tmp_path / "with-sidecar"
    checkpoint = training.Checkpoint.load(str(workspace["ckpt"]))
    checkpoint.config.paths.vectors_sidecar = str(sidecar)
    checkpoint.save(str(ckpt))
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


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_overflowing_sidecar_exits_2(workspace, tmp_path, capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, sid = sidecar_run(workspace, tmp_path, command, 1e30)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.startswith(f"data error: sentence {sid!r}: non-finite scores")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_overflowing_sidecar_in_a_shared_sub_batch_exits_2(workspace, tmp_path, capsys, command):
    """The data error names the sentence whose scores overflow, not the
    sentences that share its padded forward."""
    sentences = [json.loads(line) for line in workspace["dev"].read_text().splitlines()]
    (sub,) = training._sub_batches([len(s["text"]) for s in sentences],
                                   training.MAX_SUB_BATCH_CELLS)
    bad = sentences[sub[1]]
    d_context = small_config().encoder.d_context
    records = [
        {"id": s["id"], "vectors": [[1e30 if s is bad else 0.5] * d_context] * len(s["text"])}
        for s in sentences
    ]
    ckpt = checkpoint_with_sidecar(workspace, tmp_path, records)
    dev = str(workspace["dev"])
    argv = (["eval", "--data", dev, "--out", str(tmp_path / "r.json")] if command == "eval"
            else ["predict", "--input", dev, "--output", "-"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--checkpoint", str(ckpt)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    message = f"sentence {bad['id']!r}: non-finite scores in forward pass"
    assert captured.err == f"data error: {message}\n"


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_sidecar_one_row_short_exits_2(workspace, tmp_path, capsys, command):
    """`CrenerModel.sentence_inputs` is the one check of a sidecar's row
    count: the encoder reads the vectors as given."""
    sentences = [json.loads(line) for line in
                 (workspace["root"] / "train.jsonl").read_text().splitlines()]
    bad = next(s for s in sentences if len(s["text"]) > 1)
    d_context = small_config().encoder.d_context
    records = [
        {"id": s["id"], "vectors": [[0.5] * d_context] * (len(s["text"]) - (s is bad))}
        for s in sentences
    ]
    if command == "train":
        sidecar = tmp_path / "vectors.jsonl"
        sidecar.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = main(["train", "--config", str(workspace["cfg"]), "--quiet",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--set", f"paths.vectors_sidecar={sidecar}"])
    else:
        data = tmp_path / "one.jsonl"
        data.write_text(json.dumps(bad) + "\n")
        argv = (["eval", "--data", str(data), "--out", str(tmp_path / "r.json")]
                if command == "eval" else ["predict", "--input", str(data), "--output", "-"])
        code = main(argv + ["--checkpoint", str(checkpoint_with_sidecar(workspace, tmp_path, records))])
    n = len(bad["text"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: sidecar vectors for sentence {bad['id']!r} have {n - 1} rows, "
        f"expected one per character ({n})\n"
    )

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

    @pytest.mark.parametrize("extra", [{"types": ["A"]}, {"N": 2}], ids=["types", "N"])
    def test_unknown_record_key_exits_2(self, tmp_path, capsys, extra):
        (key,) = extra
        path = self.write_grid(tmp_path, [{"n": 2, "cells": []}, {"n": 2, "cells": [], **extra}])
        assert main(["decode-grid", "--grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path}:2: unknown grid record key {key!r}\n"

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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_output_on_a_full_disk_exits_2(workspace, capsys, command):
    """Writing to /dev/full fails with ENOSPC when the file is flushed,
    an OSError that names no file."""
    ckpt, dev = str(workspace["ckpt"]), str(workspace["dev"])
    if command == "eval":
        argv = ["eval", "--checkpoint", ckpt, "--data", dev, "--out", "/dev/full"]
    else:
        argv = ["predict", "--checkpoint", ckpt, "--input", dev, "--output", "/dev/full"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "data error: No space left on device\n"


def test_checkpoint_save_on_a_full_disk_exits_2(workspace, tmp_path, capsys, monkeypatch):
    def full(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", full)
    ckpt = tmp_path / "ck"
    code = main(["train", "--config", str(workspace["cfg"]), "--checkpoint-dir", str(ckpt),
                 "--quiet", "--set", "optimizer.epochs=1"])
    assert code == 2
    assert capsys.readouterr().err == "data error: No space left on device\n"
    assert not (ckpt / "checkpoint.npz").exists()


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


def test_importing_the_cli_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import sys, crener.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def sweep_cases():
    """Every int, float and tuple config key at -1, 0 and 1, plus an odd
    encoder width (d_h = 41)."""
    cases = []
    for key, value in config_to_flat(default_config()).items():
        if isinstance(value, (int, float, tuple)) and not isinstance(value, bool):
            form = "[{}]" if isinstance(value, tuple) else "{}"
            cases += [[f"{key}={form.format(v)}"] for v in (-1, 0, 1)]
    return cases + [["encoder.heads=1", "enhance.heads=1", "encoder.d_context=33"]]


def test_config_sweep_exits_with_a_documented_code(tmp_path, capsys):
    """No config value the parser accepts makes `train` end in a traceback:
    validation rejects it (exit 1) or the run ends with exit 0, 2 or 3.
    Each case trains one epoch on 4 sentences."""
    save_corpus(generate_synthetic_corpus(seed=5, count=4, max_len=6, types=["PER"]),
                tmp_path / "train.jsonl")
    cfg = small_config()
    cfg.optimizer.epochs = 1
    cfg.paths.train = str(tmp_path / "train.jsonl")
    save_config(cfg, tmp_path / "run.cfg")
    cases = sweep_cases()
    assert len(cases) == 3 * 29 + 1
    failures = []
    for k, overrides in enumerate(cases):
        argv = ["train", "--config", str(tmp_path / "run.cfg"), "--checkpoint-dir",
                str(tmp_path / f"ck{k}"), "--quiet"]
        for item in overrides:
            argv += ["--set", item]
        try:
            with np.errstate(all="ignore"):
                code = main(argv)
        except Exception as exc:  # what a shell would see as a traceback
            failures.append(f"{overrides}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            failures.append(f"{overrides}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)


def test_package_raises_no_bare_crener_error():
    """Every error the package raises is a `CrenerError` subclass that
    `cli.main` maps to an exit code, never the base class itself."""
    src = Path(__file__).resolve().parents[1] / "src" / "crener"
    raised, bare = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            raised.add(name)
            if name == "CrenerError":
                bare.append(f"{path.name}:{node.lineno}")
    assert {"ConfigError", "CorpusError", "DivergenceError"} <= raised
    assert not bare, bare
