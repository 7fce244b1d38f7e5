"""The three benchmark workloads, their timed operations and output checks.

Each workload builds its inputs from the seed in setup(), then runs
operations through signseg's public functions. A pass is one sweep over the
workload's inputs; op(i) runs the i-th operation of the endless cycle of
passes, times itself and checks its own outputs after the clock stops.

- train_gate: train() at the acceptance gate's shapes for a fixed number of
  epochs. gradients and training do most of the work.
- decode_gate: segment_report() per stream at stride 1 with weights from a
  short seeded training, saved and reloaded through SGSEG1. The small-shape
  forward and segmentation do almost all of the work, and adjacent windows
  share all frames but one.
- recordings_wide: the real-file path over two-hand JSON Lines recordings
  with the CLI's default 12-layer architecture at seeded init. Keypoint
  parsing and a flop-bound forward dominate, and windows barely overlap.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from signseg import (
    ContinuousStream,
    ModelConfig,
    TrainConfig,
    build_streams,
    evaluate_isolated,
    init_weights,
    load_isolated_dataset,
    load_stream_features,
    load_weights,
    load_weights_file,
    make_dataset,
    resample_sequence,
    save_weights,
    save_weights_file,
    segment_report,
    train,
)
from signseg.model import forward_probs
from signseg.seeding import derive_rng, derive_seed
from signseg.training import carve_validation, split_dataset

THRESHOLD = 0.51
ROW_SUM_TOL = 1e-9
REFERENCE_TOL = 1e-9
# The acceptance gate asks 0.95 at its own seed, but a correct trainer misses
# that on some seeds: at seed 19 validation on 16 samples picks the epoch-5
# model, which scores 0.948 on 440 held-out samples. 0.9 still fails any
# broken trainer, which scores near chance (0.1).
MIN_ACCURACY = 0.9
FRESH_PER_CLASS = 20  # unseen samples per class added to train_gate's test split
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; the benchmark runs FULL."""

    gate: ModelConfig
    wide: ModelConfig
    per_class: int
    train_epochs: int
    decode_epochs: int
    streams: int
    signs: int
    wide_per_class: int
    wide_raw_len: int
    recordings: int
    recording_signs: int
    wide_stride: int


FULL = Sizes(
    gate=ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10),
    wide=ModelConfig(layers=12, heads=8, d_model=128, d_ff=512, window=50, input_dim=120, classes=10),
    per_class=20,
    train_epochs=16,
    decode_epochs=10,
    streams=20,
    signs=10,
    wide_per_class=3,
    wide_raw_len=60,
    recordings=4,
    recording_signs=8,
    wide_stride=32,
)


@dataclass
class OpResult:
    seconds: float
    items: int  # throughput units: training samples, windows or frames
    latency: list[float] = field(default_factory=list)  # user-visible op times in it
    ingest_s: float = 0.0
    ingest_frames: int = 0
    decode_s: float = 0.0
    windows: int = 0

    def scaled(self, factor: float) -> OpResult:
        """The same op with every time multiplied by factor."""
        return replace(
            self, seconds=self.seconds * factor, latency=[t * factor for t in self.latency],
            ingest_s=self.ingest_s * factor, decode_s=self.decode_s * factor,
        )


def brute_force_decode(rows: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """Threshold each row, drop Blanks, collapse runs of one label."""
    out: list[tuple[int, int, float]] = []
    previous = None
    for index, row in enumerate(rows):
        label = int(np.argmax(row))
        if row[label] < threshold:
            continue
        if label != previous:
            out.append((label, index, float(row[label])))
        previous = label
    return out


def check_stream_row(row, threshold: float) -> list[str]:
    """Row sums and decoder output of one decoded stream."""
    if row.error is not None:
        return [f"stream {row.index}: {row.error}"]
    rows = np.stack([w.probs for w in row.window_probs])
    errors = []
    worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if not worst <= ROW_SUM_TOL:
        errors.append(f"probability row sum off by {worst:.3e}")
    got = [(d.label, d.window_index, d.prob) for d in row.decoded]
    if got != brute_force_decode(rows, threshold):
        errors.append("post_process differs from the brute-force reference")
    return errors


def _gate_data(sizes: Sizes, seed: int, tracer, fresh_per_class: int = 0):
    """The gate's core/validation/test split, plus fresh_per_class more
    samples per class that no split holds."""
    cfg = sizes.gate
    n = sizes.per_class + fresh_per_class
    with tracer.span("synthgen.make_dataset"):
        data = make_dataset(derive_seed(seed, "data"), cfg.classes, n, cfg.input_dim, cfg.window, NOISE_SIGMA)
    # make_dataset is class-major and seeds each sample by its class and
    # index, so the first per_class of each class do not depend on n
    gate = [s for i, s in enumerate(data) if i % n < sizes.per_class]
    fresh = [s for i, s in enumerate(data) if i % n >= sizes.per_class]
    train_all, test = split_dataset(gate, 0.8, derive_seed(seed, "split"))
    core, val = carve_validation(train_all, 0.1, derive_seed(seed, "val"))
    return core, val, test, fresh


def _fixed_epochs(seed: int, epochs: int) -> TrainConfig:
    # patience above the epoch count: every run trains exactly `epochs` epochs
    return TrainConfig(seed=derive_seed(seed, "train"), max_epochs=epochs, early_stop_patience=epochs + 1)


class Workload:
    name = ""
    setups = 3  # set-up runs per benchmark run; setup_s is their median
    item_unit = ""
    # what throughput_per_s and latency_p50_s measure on this workload
    throughput_name = ""
    latency_name = ""
    # share of the timed work of each kind, for machine.ReferenceClock
    work_mix = {"small_matmul": 1.0}

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []
        # called between the timed parts of a long op; its time is not counted
        self.pause = lambda: None

    @property
    def config(self) -> ModelConfig:
        return self.sizes.gate

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def op(self, index: int, tracer) -> OpResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every op's output; runs after the clock stops."""

    def report(self) -> list[tuple[str, float, str]]:
        """Workload-specific figures for the human-readable table."""
        return []


class TrainGate(Workload):
    name = "train_gate"
    setups = 21  # set-up takes milliseconds, so many runs steady its median
    item_unit = "training samples"
    throughput_name = "train.samples_per_s"
    latency_name = "train.epoch_p50_s"

    def setup(self, tracer):
        self.core, self.val, test, fresh = _gate_data(self.sizes, self.seed, tracer, FRESH_PER_CLASS)
        self.held_out = test + fresh
        self.tcfg = _fixed_epochs(self.seed, self.sizes.train_epochs)
        self.first_blob = None
        self.first_weights = None
        self.accuracy = float("nan")

    def ops_per_pass(self):
        return 1

    def op(self, index, tracer):
        epochs = []
        resumed = time.perf_counter()

        def on_epoch(record):
            nonlocal resumed
            epochs.append(time.perf_counter() - resumed)
            self.pause()
            resumed = time.perf_counter()

        with tracer.span("training.train"):
            weights, history = train(self.core, self.val, self.sizes.gate, self.tcfg, on_epoch=on_epoch)
        with tracer.span("serialize.save"):
            blob = save_weights(weights)
        seconds = sum(epochs) + time.perf_counter() - resumed
        tracer.count("serialize.bytes", len(blob))
        tracer.count("training.epochs", len(history.records))

        if len(history.records) != self.tcfg.max_epochs:
            self.errors.append(f"trained {len(history.records)} epochs, expected {self.tcfg.max_epochs}")
        if self.first_blob is None:
            self.first_blob, self.first_weights = blob, weights
        elif blob != self.first_blob:
            self.errors.append(f"run {index}: same-seed retraining gave a different SGSEG1 blob")
        return OpResult(seconds, len(self.core) * len(history.records), latency=epochs)

    def finish(self):
        if self.first_blob is None:
            return
        self.accuracy = evaluate_isolated(self.first_weights, self.held_out)
        if not self.accuracy >= MIN_ACCURACY:
            self.errors.append(f"held-out accuracy {self.accuracy:.4f} < {MIN_ACCURACY}")

    def report(self):
        return [("train.test_accuracy", self.accuracy, "share")]


class DecodeGate(Workload):
    name = "decode_gate"
    item_unit = "windows"
    throughput_name = "decode.windows_per_s"
    latency_name = "decode.stream_p50_s, frames to decoded labels"
    blob = None  # SGSEG1 blob of the first set-up

    def setup(self, tracer):
        core, val, test, _ = _gate_data(self.sizes, self.seed, tracer)
        trained, _ = train(core, val, self.sizes.gate, _fixed_epochs(self.seed, self.sizes.decode_epochs))
        with tracer.span("serialize.save"):
            blob = save_weights(trained)
        with tracer.span("serialize.load"):
            self.weights = load_weights(blob)
        tracer.count("serialize.bytes", 2 * len(blob))
        if save_weights(self.weights) != blob:
            self.errors.append("SGSEG1 round trip changed the weights")
        if self.blob is not None and self.blob != blob:
            self.errors.append("same-seed set-up gave a different SGSEG1 blob")
        self.blob = blob
        with tracer.span("keypoints.build_streams"):
            self.streams = build_streams(
                test, self.sizes.streams, self.sizes.signs, derive_seed(self.seed, "streams")
            )
        self.false_with_pp = 0
        self.false_without_pp = 0

    def ops_per_pass(self):
        return len(self.streams)

    def op(self, index, tracer):
        stream = self.streams[index % len(self.streams)]
        start = time.perf_counter()
        with tracer.span("segmentation.report"):
            report = segment_report(self.weights, [stream], self.config.window, 1, THRESHOLD)
        seconds = time.perf_counter() - start
        row = report.rows[0]
        self.errors.extend(check_stream_row(row, THRESHOLD))
        if index < len(self.streams):
            self.false_with_pp += report.false_with_pp
            self.false_without_pp += report.false_without_pp
        return OpResult(seconds, len(row.window_probs), latency=[seconds])

    def report(self):
        return [
            ("decode.false_with_pp", self.false_with_pp, "count"),
            ("decode.false_without_pp", self.false_without_pp, "count"),
        ]


def _hand_keypoints(features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-hand raw keypoints (frames, 2, 21, 3) whose normalized features
    are `features` rescaled per hand; wrist and scale vary per frame."""
    n = features.shape[0]
    points = features.reshape(n, 2, 20, 3)
    wrists = rng.uniform(-1.0, 1.0, size=(n, 2, 1, 3))
    scales = rng.uniform(0.5, 2.0, size=(n, 2, 1, 1))
    return np.concatenate([wrists, wrists + scales * points], axis=2)


def reference_features(hands: np.ndarray) -> np.ndarray:
    """Wrist-relative, max-radius-scaled features of raw (frames, 2, 21, 3)."""
    relative = hands[:, :, 1:] - hands[:, :, :1]
    radius = np.sqrt((relative**2).sum(axis=-1)).max(axis=-1)
    return (relative / radius[:, :, None, None]).reshape(hands.shape[0], -1)


def _write_jsonl(path: Path, hands: np.ndarray) -> None:
    lines = [json.dumps({"hands": frame.tolist()}) for frame in hands]
    path.write_text("\n".join(lines) + "\n")


class RecordingsWide(Workload):
    name = "recordings_wide"
    setups = 5
    item_unit = "keypoint frames"
    throughput_name = "frames through the whole file path"
    latency_name = "decode.stream_p50_s, recording file to decoded labels"
    work_mix = {"big_matmul": 0.7, "json_parse": 0.3}  # forward, keypoint parsing

    @property
    def config(self):
        return self.sizes.wide

    def setup(self, tracer):
        cfg, sizes = self.sizes.wide, self.sizes
        self.workdir.mkdir(parents=True, exist_ok=True)
        with tracer.span("synthgen.make_dataset"):
            pool = make_dataset(
                derive_seed(self.seed, "wide-data"), cfg.classes, sizes.wide_per_class,
                cfg.input_dim, sizes.wide_raw_len, NOISE_SIGMA,
            )
        rng = derive_rng(self.seed, "wide-hands")

        manifest = []
        self.manifest_frames = 0
        for j, sample in enumerate(pool):
            # lengths vary around the window so loading has to resample
            length = sizes.wide_raw_len // 2 + (13 * j) % sizes.wide_raw_len
            name = f"sample_{j:03d}.jsonl"
            _write_jsonl(self.workdir / name, _hand_keypoints(resample_sequence(sample.frames, length), rng))
            manifest.append({"file": name, "label": int(sample.label)})
            self.manifest_frames += length
        self.manifest = self.workdir / "manifest.json"
        self.manifest.write_text(json.dumps(manifest))
        self.manifest_labels = [entry["label"] for entry in manifest]

        with tracer.span("keypoints.build_streams"):
            streams = build_streams(
                pool, sizes.recordings, sizes.recording_signs, derive_seed(self.seed, "wide-streams")
            )
        self.recordings = []
        for r, stream in enumerate(streams):
            path = self.workdir / f"recording_{r:02d}.jsonl"
            hands = _hand_keypoints(stream.frames, rng)
            _write_jsonl(path, hands)
            self.recordings.append((path, list(stream.gt_labels), reference_features(hands)))

        self.weights_path = self.workdir / "wide.sgseg"
        with tracer.span("serialize.save"):
            save_weights_file(init_weights(cfg, derive_seed(self.seed, "wide-init")), self.weights_path)
        tracer.count("serialize.bytes", self.weights_path.stat().st_size)
        self.weights = None
        self.referenced: set[int] = set()

    def ops_per_pass(self):
        return 2 + len(self.recordings)

    def op(self, index, tracer):
        step = index % self.ops_per_pass()
        start = time.perf_counter()
        if step == 0:
            with tracer.span("serialize.load"):
                self.weights = load_weights_file(self.weights_path)
            seconds = time.perf_counter() - start
            tracer.count("serialize.bytes", self.weights_path.stat().st_size)
            return OpResult(seconds, 0)
        if step == 1:
            samples = load_isolated_dataset(self.manifest, self.config.window)
            ingest_s = time.perf_counter() - start
            evaluate_isolated(self.weights, samples)
            seconds = time.perf_counter() - start
            if [s.label for s in samples] != self.manifest_labels:
                self.errors.append("the manifest loaded other samples than it lists")
            return OpResult(seconds, self.manifest_frames, ingest_s=ingest_s, ingest_frames=self.manifest_frames)

        path, gt_labels, reference = self.recordings[step - 2]
        features = load_stream_features(path)
        ingest_s = time.perf_counter() - start
        with tracer.span("segmentation.report"):
            report = segment_report(
                self.weights, [ContinuousStream(features, gt_labels)],
                self.config.window, self.sizes.wide_stride, THRESHOLD,
            )
        seconds = time.perf_counter() - start
        row = report.rows[0]
        self.errors.extend(check_stream_row(row, THRESHOLD))
        if step not in self.referenced and row.error is None:
            self.referenced.add(step)
            self._check_against_reference(row, reference)
        n = features.shape[0]
        return OpResult(
            seconds, n, latency=[seconds], ingest_s=ingest_s, ingest_frames=n,
            decode_s=seconds - ingest_s, windows=len(row.window_probs),
        )

    def _check_against_reference(self, row, reference: np.ndarray) -> None:
        window = self.config.window
        for w in row.window_probs:
            expected = forward_probs(self.weights, reference[w.start : w.start + window])
            worst = float(np.abs(w.probs - expected).max())
            if not worst <= REFERENCE_TOL:
                self.errors.append(f"window at {w.start}: file path differs from reference by {worst:.3e}")
                return


WORKLOADS = {w.name: w for w in (TrainGate, DecodeGate, RecordingsWide)}
