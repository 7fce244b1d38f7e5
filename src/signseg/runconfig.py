"""Run configuration: one JSON file, every field defaulted, unknown keys
rejected by name. Command-line flags override file values."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError
from .model import ModelConfig
from .seeding import derive_seed
from .training import TrainConfig


@dataclass
class ModelSection:
    layers: int = 12
    heads: int = 8
    d_model: int = 128
    d_ff: int = 512
    window: int = 50
    input_dim: int | None = None  # None: take the data's feature dim
    classes: int | None = None  # None: take the data's class count


@dataclass
class DataSection:
    manifest: str | None = None  # None: generate synthetic data
    classes: int = 10
    per_class: int = 20
    dim: int = 12
    noise_sigma: float = 0.05
    hands: int = 1
    split_ratio: float = 0.8
    val_fraction: float = 0.1


@dataclass
class SegmentationSection:
    stride: int = 1
    threshold: float = 0.51
    n_streams: int = 20
    signs_per_stream: int = 10


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainConfig = field(default_factory=TrainConfig)  # seed unused: see train_config
    data: DataSection = field(default_factory=DataSection)
    segmentation: SegmentationSection = field(default_factory=SegmentationSection)
    out_dir: str = "out"
    seed: int = 0

    def model_config(self, input_dim: int, classes: int) -> ModelConfig:
        """Concrete architecture, filling unset dims from the data."""
        values = asdict(self.model)
        from_data = {"input_dim": input_dim, "classes": classes}
        values.update({k: v for k, v in from_data.items() if values[k] is None})
        return ModelConfig(**values)

    def train_config(self) -> TrainConfig:
        return replace(self.training, seed=derive_seed(self.seed, "train"))


_SECTIONS = ("model", "training", "data", "segmentation")
# fields that accept null (filled from data, or no manifest) and their type
_OPTIONAL = {("model", "input_dim"): int, ("model", "classes"): int, ("data", "manifest"): str}
# fields a config file may not set
_NOT_SETTABLE = {("training", "seed")}


def _check_type(path: str, value, expected: type):
    if expected is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key {path}: expected an integer, got {value!r}")
    elif expected is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key {path}: expected a number, got {value!r}")
        value = float(value)
    elif expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key {path}: expected a string, got {value!r}")
    return value


def load_config(source: bytes | str | None) -> RunConfig:
    """Parse a JSON config, filling defaults for everything absent.

    An empty document ({}) is valid and yields the full default config.
    Unknown keys and type mismatches raise ConfigError naming the key.
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

    for section_name, section_value in obj.items():
        if section_name in ("out_dir", "seed"):
            expected = str if section_name == "out_dir" else int
            setattr(cfg, section_name, _check_type(section_name, section_value, expected))
            continue
        if section_name not in _SECTIONS:
            raise ConfigError(f"unknown config key: {section_name}")
        if not isinstance(section_value, dict):
            raise ConfigError(f"config key {section_name}: expected an object")
        section = getattr(cfg, section_name)
        defaults = {f.name: f.default for f in fields(section) if (section_name, f.name) not in _NOT_SETTABLE}
        changes = {}
        for key, value in section_value.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {section_name}.{key}")
            path = f"{section_name}.{key}"
            optional = _OPTIONAL.get((section_name, key))
            if value is None and optional is not None:
                changes[key] = None
            else:
                changes[key] = _check_type(path, value, optional or type(defaults[key]))
        try:  # TrainConfig checks its values on construction
            setattr(cfg, section_name, replace(section, **changes))
        except ConfigError as exc:
            raise ConfigError(f"{section_name}.{exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Cross-field checks shared by file loading and flag overrides."""
    try:
        cfg.model_config(input_dim=1, classes=1)  # the data fills unset dims later
    except ConfigError as exc:
        raise ConfigError(f"model.{exc}") from exc

    d = cfg.data
    if d.classes < 2:
        raise ConfigError(f"data.classes must be >= 2, got {d.classes}")
    if d.per_class < 1:
        raise ConfigError(f"data.per_class must be >= 1, got {d.per_class}")
    if d.dim < 1:
        raise ConfigError(f"data.dim must be >= 1, got {d.dim}")
    if d.noise_sigma < 0:
        raise ConfigError(f"data.noise_sigma must be >= 0, got {d.noise_sigma}")
    if d.hands not in (1, 2):
        raise ConfigError(f"data.hands must be 1 or 2, got {d.hands}")
    if not 0 < d.split_ratio < 1:
        raise ConfigError(f"data.split_ratio must be in (0, 1), got {d.split_ratio}")
    if not 0 < d.val_fraction < 1:
        raise ConfigError(f"data.val_fraction must be in (0, 1), got {d.val_fraction}")

    s = cfg.segmentation
    if s.stride < 1:
        raise ConfigError(f"segmentation.stride must be >= 1, got {s.stride}")
    if not 0 < s.threshold < 1:
        raise ConfigError(f"segmentation.threshold must be in (0, 1), got {s.threshold}")
    if s.n_streams < 1 or s.signs_per_stream < 1:
        raise ConfigError("segmentation.n_streams and signs_per_stream must be >= 1")

    # cfg.training needs no check here: a TrainConfig validates itself when built
