"""Run configuration: one JSON file, every field defaulted, unknown keys
rejected by name. Command-line flags override file values. No key sets a
shape the data decides: `RunConfig.model_config` takes the feature width
and the class count from the data."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .errors import ConfigError, check_rules, rule
from .model import ModelConfig
from .seeding import derive_seed
from .segmentation import DEFAULT_THRESHOLD
from .training import TrainConfig


@dataclass(frozen=True)
class ModelSection:
    layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    window: int = 50

    def __post_init__(self):
        ModelConfig(**asdict(self), input_dim=1, classes=1)  # ModelConfig checks the values


@dataclass(frozen=True)
class DataSection:
    manifest: str | None = None  # None: generate synthetic data
    classes: int = rule(10, ">= 2")
    per_class: int = rule(20, ">= 1")
    dim: int = rule(12, ">= 1")
    noise_sigma: float = rule(0.05, ">= 0")
    split_ratio: float = rule(0.8, "in (0, 1)")
    val_fraction: float = rule(0.1, "in (0, 1)")

    __post_init__ = check_rules


@dataclass(frozen=True)
class SegmentationSection:
    stride: int = rule(1, ">= 1")
    threshold: float = rule(DEFAULT_THRESHOLD, "in (0, 1)")
    n_streams: int = rule(20, ">= 1")
    signs_per_stream: int = rule(10, ">= 1")

    __post_init__ = check_rules


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainConfig = field(default_factory=TrainConfig)  # seed unused: see train_config
    data: DataSection = field(default_factory=DataSection)
    segmentation: SegmentationSection = field(default_factory=SegmentationSection)
    out_dir: str = "out"
    seed: int = 0

    def model_config(self, input_dim: int, classes: int) -> ModelConfig:
        """Concrete architecture: the data gives the feature width and the
        class count, the model section everything else."""
        return ModelConfig(**asdict(self.model), input_dim=input_dim, classes=classes)

    def train_config(self) -> TrainConfig:
        return replace(self.training, seed=derive_seed(self.seed, "train"))


# fields a config file may not set
_NOT_SETTABLE = {("training", "seed")}


def _check_type(path: str, value, expected: type):
    if expected is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key {path}: expected an integer, got {value!r}")
    elif expected is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key {path}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past float range stays an int, which check_rules names not finite
            pass
    elif expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key {path}: expected a string, got {value!r}")
    return value


def load_config(source: bytes | str | None) -> RunConfig:
    """Parse a JSON config, filling defaults for everything absent.

    An empty document ({}) is valid and yields the full default config.
    Unknown keys and type mismatches raise ConfigError naming the key.
    Each key's value must have its default's type; a key whose default is
    None (data.manifest) takes null or a string.
    """
    cfg = RunConfig()
    if source is None:
        return cfg
    try:
        obj = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past the int-digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config top level must be a JSON object")

    top_level = {f.name for f in fields(RunConfig)}
    for name, given in obj.items():
        if name not in top_level:
            raise ConfigError(f"unknown config key: {name}")
        section = getattr(cfg, name)
        if not is_dataclass(section):  # a top-level scalar: out_dir, seed
            setattr(cfg, name, _check_type(name, given, type(section)))
            continue
        if not isinstance(given, dict):
            raise ConfigError(f"config key {name}: expected an object")
        defaults = {f.name: f.default for f in fields(section) if (name, f.name) not in _NOT_SETTABLE}
        changes = {}
        for key, value in given.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {name}.{key}")
            default = defaults[key]
            if value is not None or default is not None:
                value = _check_type(f"{name}.{key}", value, str if default is None else type(default))
            changes[key] = value
        try:  # every section checks its values on construction
            setattr(cfg, name, replace(section, **changes))
        except ConfigError as exc:
            raise ConfigError(f"{name}.{exc}") from exc
    return cfg
