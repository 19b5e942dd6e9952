"""Run configuration: nested dataclasses addressed by flat dotted keys.

A config file is plain text, one `section.field = value` per line, `#`
comments on their own lines. Values parse as JSON when possible and
fall back to bare strings, so paths need no quoting. Unknown keys and
non-finite numbers (nan, inf) are rejected. CLI `--set key=value`
overrides reuse the same machinery.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields

from .co_predictor import PredictorConfig
from .encoder import EncoderConfig
from .errors import ConfigError
from .grid import GridConfig
from .relation_enhance import EnhanceConfig


@dataclass
class AblationFlags:
    """Switches that each remove or alter one architectural ingredient.

    The no-adapted-transformer and no-enhancement ablations are
    `encoder.layers = 0` and `enhance.rounds = 1`. A removed ingredient
    gets no parameters (see `CrenerModel._build_params`).
    """

    use_scaling_factor: bool = False
    no_region_matrix: bool = False
    no_distance_matrix: bool = False
    no_attn_matrix: bool = False
    no_dilated_conv: bool = False
    no_mlp_predictor: bool = False
    no_biaffine_predictor: bool = False

    def validate(self) -> None:
        if self.no_mlp_predictor and self.no_biaffine_predictor:
            raise ConfigError("cannot disable both predictor heads")


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    grad_clip_norm: float = 1.0
    batch_size: int = 8
    epochs: int = 20
    seed: int = 42
    double_precision: bool = False

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("optimizer.learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("optimizer.weight_decay must be >= 0")
        if self.grad_clip_norm <= 0:
            raise ConfigError("optimizer.grad_clip_norm must be > 0")
        if self.batch_size < 1:
            raise ConfigError("optimizer.batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("optimizer.epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("optimizer.seed must be >= 0")


@dataclass
class DecodeOptions:
    contiguous: bool = True


@dataclass
class PathsConfig:
    train: str = ""
    dev: str = ""
    vectors_sidecar: str = ""
    checkpoint_dir: str = ""


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    enhance: EnhanceConfig = field(default_factory=EnhanceConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    ablations: AblationFlags = field(default_factory=AblationFlags)
    decode: DecodeOptions = field(default_factory=DecodeOptions)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> None:
        self.encoder.validate()
        self.grid.validate()
        self.enhance.validate()
        self.predictor.validate()
        # Enhancement's multi-head attention splits the encoder width.
        if self.encoder.d_h % self.enhance.heads != 0:
            raise ConfigError(
                f"enhance.heads {self.enhance.heads} does not divide "
                f"the encoder width d_h {self.encoder.d_h}"
            )
        self.optimizer.validate()
        self.ablations.validate()


def default_config() -> ModelConfig:
    return ModelConfig()


# ----------------------------------------------------------------------
# flat-key plumbing


def _coerce(tp, value, key: str):
    origin = typing.get_origin(tp)
    if tp is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None
        if not math.isfinite(number):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return number
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if origin is tuple:
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError:
                raise ConfigError(f"{key}: expected a list, got {value!r}") from None
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        inner = typing.get_args(tp)[0]
        return tuple(_coerce(inner, v, key) for v in value)
    raise ConfigError(f"{key}: unsupported config field type {tp}")


# A section's field types, resolved once per section: resolving them on
# every key took about 6 ms of each checkpoint load.
_field_types = functools.cache(typing.get_type_hints)


def set_key(config: ModelConfig, dotted_key: str, value) -> None:
    """Assign one flat key; `value` may be a raw string or a parsed value."""
    parts = dotted_key.split(".")
    if len(parts) != 2:
        raise ConfigError(f"bad config key {dotted_key!r} (expected section.field)")
    section_name, field_name = parts
    sections = {f.name: getattr(config, f.name) for f in fields(config)}
    if section_name not in sections:
        raise ConfigError(f"unknown config section {section_name!r}")
    section = sections[section_name]
    hints = _field_types(type(section))
    if field_name not in hints:
        raise ConfigError(f"unknown config key {dotted_key!r}")
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # bare string
    setattr(section, field_name, _coerce(hints[field_name], value, dotted_key))


def config_to_flat(config: ModelConfig) -> dict:
    flat = {}
    for sec in fields(config):
        section = getattr(config, sec.name)
        for f in fields(section):
            flat[f"{sec.name}.{f.name}"] = getattr(section, f.name)
    return flat


def parse_config_text(text: str, base: ModelConfig | None = None) -> ModelConfig:
    config = copy.deepcopy(base) if base is not None else default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        set_key(config, key.strip(), value.strip())
    return config


def parse_config(path, base: ModelConfig | None = None) -> ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return parse_config_text(text, base)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def apply_overrides(config: ModelConfig, overrides) -> None:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"bad override {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        set_key(config, key.strip(), value.strip())


def config_from_flat(flat: dict) -> ModelConfig:
    config = default_config()
    for key, value in flat.items():
        set_key(config, key, value)
    return config
