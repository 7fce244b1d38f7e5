import json

import numpy as np
import pytest

import signseg.cli
import signseg.segmentation
from signseg import ContinuousStream, load_stream_features, load_weights_file, segment_report
from signseg.cli import main
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
            "false_with_pp",
            "false_without_pp",
        }

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

    def test_stream_without_labels_decodes_without_scoring(self, manifest_run, tmp_path, monkeypatch, capsys):
        root, cfg, data, run = manifest_run
        stream = _two_sign_stream(data, tmp_path / "stream.jsonl")
        # what the scoring path writes against an empty ground truth
        weights = load_weights_file(run / "model.bin")
        seg_cfg = MANIFEST_CFG["segmentation"]
        row = segment_report(
            weights, [ContinuousStream(load_stream_features(stream), [])], weights.config.window,
            seg_cfg["stride"], seg_cfg["threshold"],
        ).rows[0]
        expected_csv = windows_csv(row.window_probs, row.decoded, seg_cfg["threshold"]).encode()
        expected_out = f"decoded {len(row.decoded)} labels: {[d.label for d in row.decoded]}\n"

        monkeypatch.setattr(signseg.cli, "segment_report", None)  # any call fails
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


class TestErrors:
    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"modle": {"layers": 1}}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_hand_count_mismatch_exits_1(self, manifest_run, tmp_path):
        # generated manifests hold one hand per frame; declaring two must
        # be rejected before training starts
        root, _, data, _ = manifest_run
        bad = dict(MANIFEST_CFG)
        bad["data"] = dict(MANIFEST_CFG["data"], hands=2)
        cfg = tmp_path / "two_hands.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["train", "--config", str(cfg), "--manifest", str(data / "manifest.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

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
