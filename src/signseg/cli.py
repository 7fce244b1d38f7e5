"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, segment. Every run is a pure
function of (argv, config file, seed): artifacts are written atomically
and reruns produce byte-identical files. Exit codes: 0 on success, 1 on
any library error, 2 on usage errors (argparse's default).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, SignsegError, StreamTooShortError
from .ioutil import atomic_write_text
from .keypoints import ContinuousStream, build_streams, load_isolated_dataset, load_stream_features
from .runconfig import RunConfig, load_config
from .seeding import derive_seed
from .segmentation import report_aggregate_json, report_summary_csv, segment_report, windows_csv
from .serialize import load_weights_file, save_weights_file
from .synthgen import make_dataset, sample_to_jsonl
from .training import (
    ablate,
    ablation_to_csv,
    carve_validation,
    evaluate_isolated,
    history_to_csv,
    split_dataset,
    train,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; omitted fields use defaults")
    sub.add_argument("--out", help="output directory (default from config: out)")
    sub.add_argument("--seed", type=int, help="global seed override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signseg",
        description="Train an isolated-sign window classifier and decode continuous keypoint streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic keypoint dataset plus manifest")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model on synthetic or manifest data")
    _add_common(p)
    p.add_argument("--manifest", help="dataset manifest; overrides data.manifest")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on the held-out test split")
    _add_common(p)
    p.add_argument("--model", required=True, help="weights file from train")
    p.add_argument("--manifest", help="dataset manifest; overrides data.manifest")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="accuracy grid over layer and head counts")
    _add_common(p)
    p.add_argument("--layers", default="1,2", help="comma-separated layer counts (default 1,2)")
    p.add_argument("--heads", default="4,8", help="comma-separated head counts (default 4,8)")
    p.add_argument("--manifest", help="dataset manifest; overrides data.manifest")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("segment", help="decode continuous streams with a saved model")
    _add_common(p)
    p.add_argument("--model", required=True, help="weights file from train")
    p.add_argument("--stream", help="decode this keypoint recording instead of synthetic streams")
    p.add_argument("--labels", help="comma-separated ground-truth labels for --stream")
    p.add_argument("--manifest", help="dataset manifest; overrides data.manifest")
    p.set_defaults(func=_cmd_segment)
    return parser


def _load_run_config(args) -> RunConfig:
    cfg = load_config(None if args.config is None else Path(args.config).read_bytes())
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "manifest", None) is not None:
        cfg.data = replace(cfg.data, manifest=args.manifest)
    return cfg


def _synthetic(cfg: RunConfig, window: int):
    """The synthetic dataset the config describes, at `window` frames."""
    d = cfg.data
    return make_dataset(derive_seed(cfg.seed, "data"), d.classes, d.per_class, d.dim, window, d.noise_sigma)


def _dataset(cfg: RunConfig, window: int):
    """Samples at `window` frames: manifest files if named, else synthetic."""
    if cfg.data.manifest is not None:
        samples = load_isolated_dataset(cfg.data.manifest, window)
    else:
        samples = _synthetic(cfg, window)
    input_dim = samples[0].frames.shape[1]
    classes = max(s.label for s in samples) + 1
    return samples, input_dim, classes


def _split(cfg: RunConfig, samples):
    """The config's (train, test) split of samples."""
    return split_dataset(samples, cfg.data.split_ratio, derive_seed(cfg.seed, "split"))


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def _cmd_gen_data(args, cfg: RunConfig) -> int:
    samples = _synthetic(cfg, cfg.model.window)
    out = Path(cfg.out_dir)
    manifest = []
    for i, sample in enumerate(samples):
        name = f"sample_{i:05d}.jsonl"
        atomic_write_text(out / name, sample_to_jsonl(sample))
        manifest.append({"file": name, "label": sample.label})
    atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(samples)} samples and manifest.json to {out}")
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    samples, input_dim, classes = _dataset(cfg, cfg.model.window)
    mcfg = cfg.model_config(input_dim, classes)
    tcfg = cfg.train_config()
    train_all, test = _split(cfg, samples)
    core, val = carve_validation(train_all, cfg.data.val_fraction, derive_seed(cfg.seed, "val"))

    def report(r):
        print(f"epoch {r.epoch} loss {r.loss:.6f} val_acc {r.val_accuracy:.4f} lr {r.lr:.6g}")

    weights, history = train(core, val, mcfg, tcfg, on_epoch=report)
    out = Path(cfg.out_dir)
    save_weights_file(weights, out / "model.bin")
    atomic_write_text(out / "history.csv", history_to_csv(history))
    test_acc = evaluate_isolated(weights, test)
    summary = {
        "epochs_run": len(history.records),
        "best_epoch": history.best_epoch,
        "best_val_accuracy": max((r.val_accuracy for r in history.records), default=None),
        "test_accuracy": test_acc,
    }
    atomic_write_text(out / "train.json", json.dumps(summary, indent=2) + "\n")
    print(f"test accuracy {test_acc:.4f}; model and history written to {out}")
    return 0


def _check_fits(weights, width: int, labels: list[int], what: str) -> None:
    """Fails, before any forward pass, when `what` has another feature
    width than the saved model takes or a label its head cannot emit."""
    mcfg = weights.config
    if width != mcfg.input_dim:
        raise ConfigError(f"{what} has {width} features per frame but the model takes {mcfg.input_dim}")
    low, high = min(labels, default=0), max(labels, default=0)
    if low < 0 or high >= mcfg.classes:
        bad = low if low < 0 else high
        raise ConfigError(f"{what} has label {bad} but the model has {mcfg.classes} classes")


def _test_split(cfg: RunConfig, weights):
    """The config's test split, built at the saved model's window."""
    samples, input_dim, _ = _dataset(cfg, weights.config.window)
    _check_fits(weights, input_dim, [s.label for s in samples], "the data")
    return _split(cfg, samples)[1]


def _cmd_eval(args, cfg: RunConfig) -> int:
    weights = load_weights_file(args.model)
    test = _test_split(cfg, weights)
    accuracy = evaluate_isolated(weights, test)
    out = Path(cfg.out_dir)
    atomic_write_text(out / "eval.json", json.dumps({"test_accuracy": accuracy}, indent=2) + "\n")
    print(f"test accuracy {accuracy:.4f} over {len(test)} samples")
    return 0


def _cmd_ablate(args, cfg: RunConfig) -> int:
    layer_choices = _parse_int_list(args.layers, "--layers")
    head_choices = _parse_int_list(args.heads, "--heads")
    samples, input_dim, classes = _dataset(cfg, cfg.model.window)
    mcfg = cfg.model_config(input_dim, classes)
    tcfg = cfg.train_config()
    train_all, test = _split(cfg, samples)

    names = ["synthetic" if cfg.data.manifest is None else "manifest"]
    datasets = [(names[0], train_all, test)]
    rows = ablate(layer_choices, head_choices, datasets, mcfg, tcfg, val_fraction=cfg.data.val_fraction)
    csv = ablation_to_csv(rows, names)
    out = Path(cfg.out_dir)
    atomic_write_text(out / "ablation.csv", csv)
    for row in rows:
        cells = ", ".join(
            "config-error" if row.accuracies[n] is None else f"{row.accuracies[n]:.4f}" for n in names
        )
        print(f"{row.label}: {cells}")
    print(f"ablation table written to {out / 'ablation.csv'}")
    return 0


def _write_scores(out: Path, report) -> str:
    """Writes segment_summary.csv and segment.json; returns the totals text."""
    atomic_write_text(out / "segment_summary.csv", report_summary_csv(report))
    atomic_write_text(out / "segment.json", report_aggregate_json(report))
    return (
        f"{report.false_with_pp} with post-processing, "
        f"{report.false_collapse_only} collapse-only, {report.false_without_pp} without"
    )


def _cmd_segment(args, cfg: RunConfig) -> int:
    seg = cfg.segmentation
    out = Path(cfg.out_dir)
    weights = load_weights_file(args.model)

    if args.stream is not None:
        gt = [] if args.labels is None else _parse_int_list(args.labels, "--labels")
        stream = ContinuousStream(frames=load_stream_features(args.stream), gt_labels=gt)
        _check_fits(weights, stream.frames.shape[1], gt, "the recording")
        report = segment_report(weights, [stream], weights.config.window, seg.stride, seg.threshold)
        row = report.rows[0]
        if row.error is not None:
            raise StreamTooShortError(row.error)
        atomic_write_text(out / "stream_windows.csv", windows_csv(row.window_probs, seg.threshold))
        print(f"decoded {len(row.decoded)} labels: {[d.label for d in row.decoded]}")
        if args.labels is not None:
            print(f"false recognitions {_write_scores(out, report)}; edit distance {row.edit_dist}")
        return 0

    test = _test_split(cfg, weights)
    streams = build_streams(test, seg.n_streams, seg.signs_per_stream, derive_seed(cfg.seed, "streams"))
    report = segment_report(weights, streams, weights.config.window, seg.stride, seg.threshold)
    for row in report.rows:
        if row.error is not None:
            print(f"stream {row.index}: error: {row.error}")
            continue
        atomic_write_text(out / f"stream_{row.index:03d}_windows.csv", windows_csv(row.window_probs, seg.threshold))
        print(
            f"stream {row.index}: {len(row.decoded)} decoded, {row.false_count} false, "
            f"avg softmax {row.avg_softmax:.4f}"
        )
    print(f"totals: false {_write_scores(out, report)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "labels", None) is not None and args.stream is None:
        parser.error("segment: --labels needs --stream")
    try:
        return args.func(args, _load_run_config(args))
    except (SignsegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
