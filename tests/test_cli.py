import json

import numpy as np
import pytest

import signseg.cli
import signseg.segmentation
import signseg.training
from signseg import (
    ContinuousStream,
    ModelConfig,
    TrainConfig,
    build_streams,
    carve_validation,
    init_weights,
    load_stream_features,
    load_weights_file,
    make_dataset,
    save_weights_file,
    segment_report,
    split_dataset,
)
from signseg.cli import main
from signseg.seeding import derive_seed
from signseg.segmentation import windows_csv

FAST = {
    "model": {"layers": 1, "heads": 2, "d_model": 16, "d_ff": 32, "window": 10},
    "training": {"max_epochs": 6, "batch_size": 8, "early_stop_patience": 3},
    "data": {
        "classes": 3,
        "per_class": 6,
        "dim": 6,
        "noise_sigma": 0.02,
        "split_ratio": 0.8,
        "val_fraction": 0.2,
    },
    "segmentation": {"stride": 10, "threshold": 0.51, "n_streams": 2, "signs_per_stream": 3},
    "seed": 11,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared trained run; training is the slow part."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(FAST))
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return root, cfg, out


def _gen_data_config(tmp_path, **data):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"model": {"window": 5}, "data": {"classes": 2, "per_class": 2, "dim": 6, **data}}))
    return str(path)


class TestGenData:
    def test_writes_samples_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["gen-data", "--config", _gen_data_config(tmp_path), "--seed", "3", "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "sample_00000.jsonl", "sample_00001.jsonl",
                         "sample_00002.jsonl", "sample_00003.jsonl"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["label"] for e in manifest] == [0, 0, 1, 1]
        assert all(e["file"] == f"sample_{i:05d}.jsonl" for i, e in enumerate(manifest))
        first = (out / "sample_00000.jsonl").read_text().strip().split("\n")
        assert len(first) == 5  # model.window frames

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen-data", "--config", _gen_data_config(tmp_path), "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("manifest.json", "sample_00000.jsonl", "sample_00003.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_dim_exits_1(self, tmp_path):
        rc = main(["gen-data", "--config", _gen_data_config(tmp_path, dim=7, per_class=1),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_size_flags_are_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--classes", "2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestTrain:
    def test_artifacts(self, workdir):
        _, _, out = workdir
        assert (out / "model.bin").exists()
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,loss,val_accuracy,lr,val_straddle_loss"
        assert len(history) >= 2
        summary = json.loads((out / "train.json").read_text())
        assert set(summary) == {"epochs_run", "best_epoch", "best_val_accuracy", "test_accuracy"}
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        assert summary["epochs_run"] == len(history) - 1
        assert load_weights_file(out / "model.bin").config.classes == FAST["data"]["classes"]  # the data's count


class TestEval:
    def test_matches_train_summary(self, workdir, tmp_path):
        _, cfg, out = workdir
        rc = main(["eval", "--config", str(cfg), "--model", str(out / "model.bin"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 0
        got = json.loads((tmp_path / "ev" / "eval.json").read_text())["test_accuracy"]
        want = json.loads((out / "train.json").read_text())["test_accuracy"]
        assert got == want

    def test_missing_model_exits_1(self, workdir, tmp_path):
        _, cfg, _ = workdir
        rc = main(["eval", "--config", str(cfg), "--model", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 1


@pytest.mark.parametrize("command", ["eval", "segment"])
def test_saved_model_window_wins_over_the_config(workdir, tmp_path, capsys, command):
    _, cfg, out = workdir
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(dict(FAST, model=dict(FAST["model"], window=12))))
    runs = {}
    for name, path in (("matching", cfg), ("wider", wider)):
        capsys.readouterr()
        rc = main([command, "--config", str(path), "--model", str(out / "model.bin"),
                   "--out", str(tmp_path / name)])
        assert rc == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        runs[name] = (capsys.readouterr().out, files)
    assert runs["wider"] == runs["matching"]


class TestAblate:
    def test_csv_schema_and_rerun(self, workdir, tmp_path):
        _, cfg, _ = workdir
        base = ["ablate", "--config", str(cfg), "--layers", "1", "--heads", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        text = (a / "ablation.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "Model,synthetic"
        assert lines[1].startswith("1 layer with 2 heads,")
        assert text == (b / "ablation.csv").read_text()

    def test_impossible_head_count_is_config_error_cell(self, workdir, tmp_path):
        _, cfg, _ = workdir
        out = tmp_path / "c"
        assert main(["ablate", "--config", str(cfg), "--layers", "1", "--heads", "3",
                     "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[1] == "1 layer with 3 heads,config-error"

    def test_empty_layer_list_exits_1(self, workdir, tmp_path):
        _, cfg, _ = workdir
        assert main(["ablate", "--config", str(cfg), "--layers", ",", "--out", str(tmp_path / "d")]) == 1


def _totals(seg):
    """The totals text a segment run prints, from the segment.json it wrote."""
    payload = json.loads((seg / "segment.json").read_text())
    return (
        f"{payload['false_with_pp']} with post-processing, "
        f"{payload['false_collapse_only']} collapse-only, {payload['false_without_pp']} without"
    )


class TestSegment:
    def test_synthetic_streams(self, workdir, tmp_path):
        _, cfg, out = workdir
        seg = tmp_path / "seg"
        rc = main(["segment", "--config", str(cfg), "--model", str(out / "model.bin"),
                   "--out", str(seg)])
        assert rc == 0
        assert (seg / "stream_000_windows.csv").exists()
        assert (seg / "stream_001_windows.csv").exists()
        header = (seg / "stream_000_windows.csv").read_text().split("\n")[0]
        assert header == "window_start,argmax_class,max_prob,emitted_label"
        summary = (seg / "segment_summary.csv").read_text().split("\n")[0]
        assert summary.startswith("stream,avg_softmax_recognized,")
        payload = json.loads((seg / "segment.json").read_text())
        assert set(payload) == {
            "avg_softmax_with_pp",
            "avg_softmax_without_pp",
            "false_collapse_only",
            "false_with_pp",
            "false_without_pp",
        }

    def test_synthetic_streams_print_the_totals_of_segment_json(self, workdir, tmp_path, capsys):
        _, cfg, out = workdir
        seg = tmp_path / "seg"
        assert main(["segment", "--config", str(cfg), "--model", str(out / "model.bin"), "--out", str(seg)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"totals: false {_totals(seg)}"

    def test_window_mismatch_exits_1(self, workdir, tmp_path, capsys):
        # decoding runs at the saved model's window; the config has no key for it
        root, _, out = workdir
        bad = dict(FAST)
        bad["segmentation"] = dict(FAST["segmentation"], window=12)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["segment", "--config", str(cfg), "--model", str(out / "model.bin"),
                   "--out", str(tmp_path / "seg")])
        assert rc == 1
        assert "unknown config key: segmentation.window" in capsys.readouterr().err


MANIFEST_CFG = {
    "model": {"layers": 1, "heads": 2, "d_model": 16, "d_ff": 32, "window": 10},
    "training": {"max_epochs": 6, "batch_size": 8},
    "data": {
        "classes": 2,
        "per_class": 5,
        "dim": 6,
        "noise_sigma": 0.02,
        "split_ratio": 0.8,
        "val_fraction": 0.2,
    },
    "segmentation": {"stride": 5, "threshold": 0.51, "n_streams": 2, "signs_per_stream": 2},
    "seed": 13,
}


@pytest.fixture(scope="module")
def manifest_run(tmp_path_factory):
    """gen-data then train on the written manifest; shared by stream tests."""
    root = tmp_path_factory.mktemp("cli_manifest")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(MANIFEST_CFG))
    data = root / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--manifest", str(data / "manifest.json"),
                 "--out", str(run)]) == 0
    return root, cfg, data, run


def _two_sign_stream(data, path):
    manifest = json.loads((data / "manifest.json").read_text())
    by_label = {}
    for entry in manifest:
        by_label.setdefault(entry["label"], entry["file"])
    path.write_text((data / by_label[0]).read_text() + (data / by_label[1]).read_text())
    return path


class TestSegmentStream:
    def test_stream_with_labels(self, manifest_run, tmp_path):
        root, cfg, data, run = manifest_run
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")
        seg = tmp_path / "seg"
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(stream), "--labels", "0,1", "--out", str(seg)])
        assert rc == 0
        assert (seg / "stream_windows.csv").exists()
        assert (seg / "segment_summary.csv").exists()
        payload = json.loads((seg / "segment.json").read_text())
        assert payload["false_with_pp"] >= 0

    def test_stream_with_labels_prints_the_totals_of_segment_json(self, manifest_run, tmp_path, capsys):
        root, cfg, data, run = manifest_run
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")
        seg = tmp_path / "seg"
        assert main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                     "--stream", str(stream), "--labels", "0,1", "--out", str(seg)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith(f"false recognitions {_totals(seg)}; edit distance ")

    def test_stream_with_labels_classifies_each_window_once(self, manifest_run, tmp_path, monkeypatch):
        root, cfg, data, run = manifest_run
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")
        calls = []  # windows per call: forward_probs takes one window or a batch
        forward = signseg.segmentation.forward_probs
        monkeypatch.setattr(
            signseg.segmentation, "forward_probs",
            lambda w, frames: calls.append(len(frames) if np.ndim(frames) == 3 else 1) or forward(w, frames),
        )
        seg = tmp_path / "seg"
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(stream), "--labels", "0,1", "--out", str(seg)])
        assert rc == 0
        windows = len((seg / "stream_windows.csv").read_text().strip().split("\n")) - 1
        assert windows == 3  # 20 frames, window 10, stride 5
        assert sum(calls) == windows

    @pytest.mark.parametrize("labels, bad", [("0,2", 2), ("0,-1", -1)], ids=["past_the_head", "negative"])
    def test_labels_past_the_model_exit_1_before_any_forward_pass(self, manifest_run, tmp_path, monkeypatch,
                                                                  capsys, labels, bad):
        root, cfg, data, run = manifest_run  # a 2-class model
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")

        def no_forward(*args):
            raise AssertionError("forward pass before the labels were checked")

        monkeypatch.setattr(signseg.segmentation, "forward_probs", no_forward)
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(stream), "--labels", labels, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: the recording has label {bad} but the model has 2 classes\n"
        assert not (tmp_path / "o").exists()

    def test_stream_without_labels_writes_windows_only(self, manifest_run, tmp_path):
        root, cfg, data, run = manifest_run
        manifest = json.loads((data / "manifest.json").read_text())
        stream = tmp_path / "solo.jsonl"
        stream.write_text((data / manifest[0]["file"]).read_text())
        seg = tmp_path / "seg"
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(stream), "--out", str(seg)])
        assert rc == 0
        assert (seg / "stream_windows.csv").exists()
        assert not (seg / "segment.json").exists()

    def test_stream_without_labels_writes_and_prints_the_unscored_decode(
        self, manifest_run, tmp_path, monkeypatch, capsys
    ):
        root, cfg, data, run = manifest_run
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")
        # the decode of segment_report's row against an empty ground truth
        weights = load_weights_file(run / "model.bin")
        seg_cfg = MANIFEST_CFG["segmentation"]
        row = segment_report(
            weights, [ContinuousStream(load_stream_features(stream), [])], weights.config.window,
            seg_cfg["stride"], seg_cfg["threshold"],
        ).rows[0]
        expected_csv = windows_csv(row.window_probs, seg_cfg["threshold"]).encode()
        expected_out = f"decoded {len(row.decoded)} labels: {[d.label for d in row.decoded]}\n"

        calls = []
        forward = signseg.segmentation.forward_probs
        monkeypatch.setattr(
            signseg.segmentation, "forward_probs", lambda w, frames: calls.append(len(frames)) or forward(w, frames)
        )
        capsys.readouterr()
        seg = tmp_path / "seg"
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(stream), "--out", str(seg)])
        assert rc == 0
        assert (seg / "stream_windows.csv").read_bytes() == expected_csv
        assert capsys.readouterr().out == expected_out
        assert sum(calls) == len(row.window_probs) == 3  # one forward pass per window
        assert sorted(p.name for p in seg.iterdir()) == ["stream_windows.csv"]

    def test_labels_without_stream_is_a_usage_error(self, manifest_run, tmp_path, capsys):
        root, cfg, data, run = manifest_run
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                  "--labels", "1,2,3", "--out", str(tmp_path / "seg")])
        assert exc.value.code == 2
        assert "--labels needs --stream" in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    def test_bad_labels_exit_1(self, manifest_run, tmp_path, capsys):
        root, cfg, data, run = manifest_run
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(stream), "--labels", "1,x", "--out", str(tmp_path / "seg")])
        assert rc == 1
        assert "--labels expects comma-separated integers, got '1,x'" in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    def test_too_short_stream_exits_1(self, manifest_run, tmp_path, capsys):
        root, cfg, data, run = manifest_run
        manifest = json.loads((data / "manifest.json").read_text())
        lines = (data / manifest[0]["file"]).read_text().strip().split("\n")
        short = tmp_path / "short.jsonl"
        short.write_text("\n".join(lines[:3]) + "\n")
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(short), "--out", str(tmp_path / "seg")])
        assert rc == 1
        assert "stream has 3 frames, one window needs 10" in capsys.readouterr().err
        assert not (tmp_path / "seg" / "stream_windows.csv").exists()

    def test_huge_coordinate_exits_1(self, manifest_run, tmp_path, capsys):
        root, cfg, data, run = manifest_run
        manifest = json.loads((data / "manifest.json").read_text())
        lines = (data / manifest[0]["file"]).read_text().strip().split("\n")
        point = "[" + "1" + "0" * 400 + ", 0.0, 0.0]"  # past float range: OverflowError in numpy
        lines[2] = '{"hands": [[' + ", ".join([point] + ["[0.0, 0.0, 1.0]"] * 20) + "]]}"
        bad = tmp_path / "huge.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["segment", "--config", str(cfg), "--model", str(run / "model.bin"),
                   "--stream", str(bad), "--out", str(tmp_path / "seg")])
        assert rc == 1
        assert "line 3:" in capsys.readouterr().err


def _two_hand_recording(data, path):
    """A one-hand generated recording with its hand doubled in every frame."""
    manifest = json.loads((data / "manifest.json").read_text())
    lines = (data / manifest[0]["file"]).read_text().strip().split("\n")
    frames = [json.loads(line)["hands"] for line in lines]
    path.write_text("".join(json.dumps({"hands": hands * 2}) + "\n" for hands in frames))
    return path


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("eval", [], "the data has 6 features per frame but the model takes 60"),
        ("segment", [], "the data has 6 features per frame but the model takes 60"),
        ("segment", ["--stream"], "the recording has 120 features per frame but the model takes 60"),
    ],
    ids=["eval", "segment", "segment_stream"],
)
def test_width_mismatch_exits_1_before_any_forward_pass(manifest_run, tmp_path, monkeypatch, capsys,
                                                       command, extra, message):
    # a manifest-trained model (one hand, 60 features) on synthetic data
    # (data.dim 6) or on a two-hand recording
    root, cfg, data, run = manifest_run
    if extra:
        extra = extra + [str(_two_hand_recording(data, tmp_path / "two.jsonl"))]

    def no_forward(*args):
        raise AssertionError("forward pass before the width was checked")

    monkeypatch.setattr(signseg.training, "forward_probs", no_forward)
    monkeypatch.setattr(signseg.segmentation, "forward_probs", no_forward)
    rc = main([command, "--config", str(cfg), "--model", str(run / "model.bin"),
               "--out", str(tmp_path / "o")] + extra)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "segment"])
def test_labels_past_the_model_exit_1_before_any_forward_pass(workdir, tmp_path, monkeypatch, capsys, command):
    # the shared model has 3 classes; a config with 5 has labels 3 and 4
    root, _, out = workdir
    cfg = tmp_path / "five.json"
    cfg.write_text(json.dumps(dict(FAST, data=dict(FAST["data"], classes=5))))

    def no_forward(*args):
        raise AssertionError("forward pass before the labels were checked")

    monkeypatch.setattr(signseg.training, "forward_probs", no_forward)
    monkeypatch.setattr(signseg.segmentation, "forward_probs", no_forward)
    rc = main([command, "--config", str(cfg), "--model", str(out / "model.bin"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: the data has label 4 but the model has 3 classes\n"
    assert not (tmp_path / "o").exists()


class TestErrors:
    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"modle": {"layers": 1}}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_hand_count_mismatch_exits_1(self, manifest_run, tmp_path, capsys):
        # the hand count comes from the recordings; the config has no key for it
        root, _, data, _ = manifest_run
        bad = dict(MANIFEST_CFG)
        bad["data"] = dict(MANIFEST_CFG["data"], hands=2)
        cfg = tmp_path / "two_hands.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["train", "--config", str(cfg), "--manifest", str(data / "manifest.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown config key: data.hands\n"

    def test_empty_manifest_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("[]")
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: manifest {manifest}: lists no recordings\n"

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["train", "--no-such-flag"])
        assert exc.value.code == 2

    def test_threads_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--threads", "2"])
        assert exc.value.code == 2


GATE_MCFG = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)


class _Stop(Exception):
    """Ends a command at the call _capture rebinds."""


def _capture(monkeypatch, name: str) -> list:
    """Rebinds signseg.cli's `name` to record its arguments and stop the command."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Stop

    monkeypatch.setattr(signseg.cli, name, record)
    return calls


def _gate_splits(seed: int):
    """core, validation and test samples, by the calls test_end_to_end_synthetic_pipeline makes."""
    data = make_dataset(
        seed=derive_seed(seed, "data"), classes=10, n_per_class=20, dim=12, window=50, noise_sigma=0.05
    )
    train_all, test_set = split_dataset(data, 0.8, derive_seed(seed, "split"))
    core, val = carve_validation(train_all, 0.1, derive_seed(seed, "val"))
    return core, val, test_set


def _samples(samples) -> list:
    return [(s.frames.tobytes(), s.label) for s in samples]


class TestTheDefaultRunIsTheGate:
    """With no config, `train --seed S` and then `segment --seed S` run the
    acceptance gate's pipeline at seed S, input for input."""

    def test_train_passes_the_gates_inputs(self, monkeypatch, tmp_path):
        calls = _capture(monkeypatch, "train")
        with pytest.raises(_Stop):
            main(["train", "--seed", "42", "--out", str(tmp_path)])
        (core, val, mcfg, tcfg), _ = calls[0]
        gate_core, gate_val, _ = _gate_splits(42)
        assert _samples(core) == _samples(gate_core)
        assert _samples(val) == _samples(gate_val)
        assert mcfg == GATE_MCFG
        assert tcfg == TrainConfig(seed=derive_seed(42, "train"))

    def test_segment_passes_the_gates_inputs(self, monkeypatch, tmp_path):
        model = tmp_path / "model.bin"
        save_weights_file(init_weights(GATE_MCFG, derive_seed(42, "init")), model)
        calls = _capture(monkeypatch, "segment_report")
        with pytest.raises(_Stop):
            main(["segment", "--seed", "42", "--model", str(model), "--out", str(tmp_path / "seg")])
        (_, streams, window, stride, threshold), _ = calls[0]
        gate_streams = build_streams(_gate_splits(42)[2], 20, 10, derive_seed(42, "streams"))
        assert [(s.frames.tobytes(), s.gt_labels, s.boundaries) for s in streams] == [
            (s.frames.tobytes(), s.gt_labels, s.boundaries) for s in gate_streams
        ]
        assert (window, stride, threshold) == (50, 1, 0.51)

    def test_the_default_shape_trains(self, tmp_path):
        # the 12-layer default this shape replaced trained to chance: test accuracy 0.1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"training": {"max_epochs": 15}}))
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert json.loads((tmp_path / "run" / "train.json").read_text())["test_accuracy"] >= 0.9
