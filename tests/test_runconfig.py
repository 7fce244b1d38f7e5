import json
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from signseg import ConfigError, ModelConfig, TrainConfig, load_config, make_dataset
from signseg.errors import RANGES
from signseg.runconfig import DataSection, ModelSection, RunConfig, SegmentationSection


class TestDefaults:
    def test_none_source_is_all_defaults(self):
        cfg = load_config(None)
        assert cfg.model.layers == 2
        assert cfg.model.heads == 4
        assert cfg.model.d_model == 64
        assert cfg.model.d_ff == 256
        assert cfg.model.window == 50
        assert cfg.training.batch_size == 50
        assert cfg.training.lr0 == 0.005
        assert cfg.training.max_epochs == 200
        assert cfg.data.manifest is None
        assert cfg.data.classes == 10
        assert cfg.data.per_class == 20
        assert cfg.data.dim == 12
        assert cfg.data.noise_sigma == 0.05
        assert cfg.segmentation.stride == 1
        assert cfg.segmentation.threshold == 0.51
        assert cfg.segmentation.n_streams == 20
        assert cfg.segmentation.signs_per_stream == 10
        assert cfg.out_dir == "out"
        assert cfg.seed == 0

    def test_empty_object_equals_defaults(self):
        assert load_config("{}") == load_config(None)

    def test_bytes_accepted(self):
        cfg = load_config(b'{"seed": 7}')
        assert cfg.seed == 7


class TestOverrides:
    def test_partial_section_keeps_other_defaults(self):
        cfg = load_config(json.dumps({"segmentation": {"stride": 5}}))
        assert cfg.segmentation.stride == 5
        assert cfg.segmentation.threshold == 0.51

    def test_top_level_scalars(self):
        cfg = load_config(json.dumps({"out_dir": "runs/a", "seed": 3}))
        assert (cfg.out_dir, cfg.seed) == ("runs/a", 3)

    def test_optional_fields_take_values_and_null(self):
        cfg = load_config(json.dumps({"data": {"manifest": "m.json"}}))
        assert cfg.data.manifest == "m.json"
        cfg = load_config(json.dumps({"data": {"manifest": None}}))
        assert cfg.data.manifest is None

    def test_float_field_accepts_int_literal(self):
        cfg = load_config(json.dumps({"training": {"weight_decay": 0}}))
        assert cfg.training.weight_decay == 0.0
        assert isinstance(cfg.training.weight_decay, float)


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config key: optimizer"):
            load_config(json.dumps({"optimizer": {}}))

    def test_threads_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config key: threads"):
            load_config(json.dumps({"threads": 2}))

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigError, match="unknown config key: model.depth"):
            load_config(json.dumps({"model": {"depth": 3}}))

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="model.layers"):
            load_config(json.dumps({"model": {"layers": "twelve"}}))

    def test_bool_rejected_for_int(self):
        with pytest.raises(ConfigError, match="training.batch_size"):
            load_config(json.dumps({"training": {"batch_size": True}}))

    def test_null_rejected_outside_optional_fields(self):
        with pytest.raises(ConfigError, match="model.layers"):
            load_config(json.dumps({"model": {"layers": None}}))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config("{nope")

    @pytest.mark.parametrize(
        "source", [b"\xff\xfe", '{"seed": ' + "9" * 5000 + "}"], ids=["not_utf8", "past_int_digit_limit"]
    )
    def test_undecodable_input_is_config_error(self, source):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(source)

    def test_non_object_top_level(self):
        with pytest.raises(ConfigError, match="top level"):
            load_config("[1, 2]")

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="model"):
            load_config(json.dumps({"model": 3}))

    @pytest.mark.parametrize("section, key", [("model", "input_dim"), ("model", "classes"), ("data", "hands")])
    def test_keys_the_data_decides_are_unknown(self, section, key):
        # the feature width and the class count always come from the data
        with pytest.raises(ConfigError, match=f"unknown config key: {section}.{key}"):
            load_config(json.dumps({section: {key: 1}}))


class TestValidate:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError, match="heads"):
            load_config(json.dumps({"model": {"heads": 7, "d_model": 128}}))

    def test_odd_d_model(self):
        with pytest.raises(ConfigError, match="even"):
            load_config(json.dumps({"model": {"d_model": 65, "heads": 5}}))

    def test_threshold_range(self):
        with pytest.raises(ConfigError, match="threshold"):
            load_config(json.dumps({"segmentation": {"threshold": 1.0}}))

    def test_training_values_checked(self):
        with pytest.raises(ConfigError):
            load_config(json.dumps({"training": {"beta1": 1.5}}))

    def test_sections_check_their_values_when_built(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError, match="heads"):
            replace(cfg.model, heads=3)
        with pytest.raises(ConfigError, match="classes must be >= 2"):
            replace(cfg.data, classes=1)
        with pytest.raises(ConfigError, match="stride must be >= 1"):
            replace(cfg.segmentation, stride=0)


class TestDerivedConfigs:
    def test_model_config_fills_dims_from_data(self):
        cfg = load_config("{}")
        mcfg = cfg.model_config(input_dim=24, classes=7)
        assert mcfg.input_dim == 24
        assert mcfg.classes == 7
        assert mcfg.d_model == 64

    def test_model_section_mirrors_model_config(self):
        # every ModelConfig field but the two the data gives needs a config default
        from_data = ("input_dim", "classes")
        assert [f.name for f in fields(ModelSection)] == [f.name for f in fields(ModelConfig) if f.name not in from_data]

    def test_train_config_seed_derived_from_run_seed(self):
        a = load_config(json.dumps({"seed": 1})).train_config()
        b = load_config(json.dumps({"seed": 1})).train_config()
        c = load_config(json.dumps({"seed": 2})).train_config()
        assert a.seed == b.seed
        assert a.seed != c.seed
        assert a.batch_size == 50


class TestTrainingSection:
    def test_every_train_config_field_but_seed_loads(self):
        from dataclasses import fields

        from signseg import TrainConfig

        values = {}
        for f in fields(TrainConfig):
            if f.name != "seed":
                default = f.default
                values[f.name] = default + 1 if isinstance(default, int) else default / 2
        cfg = load_config(json.dumps({"training": values}))
        for name, value in values.items():
            assert getattr(cfg.training, name) == value
            assert getattr(cfg.train_config(), name) == value

    def test_training_seed_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config key: training.seed"):
            load_config(json.dumps({"training": {"seed": 1}}))

    def test_model_errors_name_the_model_key(self):
        with pytest.raises(ConfigError, match="model.layers must be >= 0"):
            load_config(json.dumps({"model": {"layers": -1}}))
        with pytest.raises(ConfigError, match="model.d_ff must be >= 1"):
            load_config(json.dumps({"model": {"d_ff": 0}}))

    def test_training_value_errors_name_the_training_key(self):
        with pytest.raises(ConfigError, match=r"training\.beta1 must be in \[0, 1\)"):
            load_config(json.dumps({"training": {"beta1": 1.5}}))


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("model", "window", 0, "model.window must be >= 1, got 0"),
        ("data", "classes", 1, "data.classes must be >= 2, got 1"),
        ("data", "per_class", 0, "data.per_class must be >= 1, got 0"),
        ("data", "dim", 0, "data.dim must be >= 1, got 0"),
        ("data", "noise_sigma", -0.5, "data.noise_sigma must be >= 0, got -0.5"),
        ("data", "split_ratio", 1, "data.split_ratio must be in (0, 1), got 1.0"),
        ("data", "val_fraction", 0, "data.val_fraction must be in (0, 1), got 0.0"),
        ("segmentation", "stride", 0, "segmentation.stride must be >= 1, got 0"),
        ("segmentation", "threshold", 0, "segmentation.threshold must be in (0, 1), got 0.0"),
        ("segmentation", "n_streams", 0, "segmentation.n_streams must be >= 1, got 0"),
        ("segmentation", "signs_per_stream", 0, "segmentation.signs_per_stream must be >= 1, got 0"),
        ("training", "lr_decay_every", 0, "training.lr_decay_every must be >= 1, got 0"),
        ("training", "lr_decay_factor", 1.5, "training.lr_decay_factor must be in (0, 1], got 1.5"),
        ("training", "max_epochs", -1, "training.max_epochs must be >= 0, got -1"),
        ("training", "weight_decay", -1, "training.weight_decay must be >= 0, got -1.0"),
        ("training", "adam_eps", 0, "training.adam_eps must be > 0, got 0.0"),
        ("training", "early_stop_patience", 0, "training.early_stop_patience must be >= 1, got 0"),
    ],
)
def test_out_of_range_value_names_its_key(section, key, value, message):
    with pytest.raises(ConfigError) as exc:
        load_config(json.dumps({section: {key: value}}))
    assert str(exc.value) == message


FLOAT_KEYS = [
    (section, key)
    for section, values in asdict(RunConfig()).items()
    if isinstance(values, dict)
    for key, default in values.items()
    if isinstance(default, float)
]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_float_names_its_key(section, key, literal):
    # a NaN learning rate used to load and fail later, naming a parameter
    assert len(FLOAT_KEYS) == 10
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
        load_config(f'{{"{section}": {{"{key}": {literal}}}}}')
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        replace(getattr(RunConfig(), section), **{key: float(literal.lower())})


def test_readme_config_example_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    defaults = asdict(RunConfig())
    del defaults["training"]["seed"]  # derived from the run seed, not a config key
    assert example == defaults


# every field of the four checked config classes; data.manifest is load_config's to check
CONFIG_FIELDS = [
    (cls, f)
    for cls in (ModelConfig, TrainConfig, DataSection, SegmentationSection)
    for f in fields(cls)
    if (cls, f.name) != (DataSection, "manifest")
]
MISTYPED = [
    (cls, f.name, value)
    for cls, f in CONFIG_FIELDS
    for value in ("1", True) + ((2.5,) if f.type in (int, "int") else ())
]
GATE_MODEL = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)


@pytest.mark.parametrize(
    "cls, name, value", MISTYPED, ids=[f"{cls.__name__}.{name}-{value!r}" for cls, name, value in MISTYPED]
)
def test_a_directly_built_config_rejects_a_mistyped_value_by_name(cls, name, value):
    # built directly, not through load_config, which checks JSON types first
    base = GATE_MODEL if cls is ModelConfig else cls()
    with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got |^{name} must be a number, got "):
        replace(base, **{name: value})


@pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.25), np.int64(1), 1])
def test_a_float_field_takes_any_real_number(value):
    assert TrainConfig(lr0=value).lr0 == value


@pytest.mark.parametrize("cls, f", CONFIG_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in CONFIG_FIELDS])
def test_every_config_field_declares_a_rule(cls, f):
    # a field added without a rule would go unchecked
    assert f.type in (int, float, "int", "float")
    assert "bound" in f.metadata and f.metadata["bound"] in (None, *RANGES)


PAST_FLOAT_RANGE = 10**400
OVERFLOWING = {
    "load_config": (lambda: load_config('{"training": {"lr0": 1' + "0" * 400 + "}}"), ConfigError, r"training\.lr0"),
    "TrainConfig": (lambda: TrainConfig(lr0=PAST_FLOAT_RANGE), ConfigError, "lr0"),
    "DataSection": (lambda: DataSection(noise_sigma=PAST_FLOAT_RANGE), ConfigError, "noise_sigma"),
    "SegmentationSection": (lambda: SegmentationSection(threshold=PAST_FLOAT_RANGE), ConfigError, "threshold"),
    "make_dataset": (lambda: make_dataset(0, 2, 1, 3, 4, noise_sigma=PAST_FLOAT_RANGE), ValueError, "noise_sigma"),
}


@pytest.mark.parametrize("call, error, key", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_an_integer_past_float_range_is_not_finite(call, error, key):
    # float(10**400) raises OverflowError, which once escaped unnamed
    with pytest.raises(error, match=rf"^{key} must be finite, got 10{{400}}$"):
        call()
