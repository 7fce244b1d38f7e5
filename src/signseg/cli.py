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
from pathlib import Path

from .errors import ConfigError, SignsegError, StreamTooShortError
from .ioutil import atomic_write_text
from .keypoints import (
    FEATURES_PER_HAND,
    ContinuousStream,
    build_streams,
    load_isolated_dataset,
    load_stream_features,
)
from .runconfig import RunConfig, load_config, validate_config
from .seeding import derive_seed
from .segmentation import (
    _decode_stream,
    report_aggregate_json,
    report_summary_csv,
    segment_report,
    windows_csv,
)
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
    if args.config is not None:
        cfg = load_config(Path(args.config).read_bytes())
    else:
        cfg = load_config(None)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "manifest", None) is not None:
        cfg.data.manifest = args.manifest
    validate_config(cfg)
    return cfg


def _synthetic(cfg: RunConfig):
    """The synthetic dataset the config describes."""
    d = cfg.data
    return make_dataset(
        derive_seed(cfg.seed, "data"), d.classes, d.per_class, d.dim, cfg.model.window, d.noise_sigma
    )


def _dataset(cfg: RunConfig):
    """Samples per the config: manifest files if named, else synthetic."""
    if cfg.data.manifest is not None:
        samples = load_isolated_dataset(cfg.data.manifest, cfg.model.window)
        expected = cfg.data.hands * FEATURES_PER_HAND
        got = samples[0].frames.shape[1]
        if got != expected:
            raise ConfigError(
                f"manifest data carries {got} features per frame but data.hands "
                f"{cfg.data.hands} implies {expected}"
            )
    else:
        samples = _synthetic(cfg)
    input_dim = samples[0].frames.shape[1]
    classes = max(s.label for s in samples) + 1
    return samples, input_dim, classes


def _splits(cfg: RunConfig, samples):
    train_all, test = split_dataset(samples, cfg.data.split_ratio, derive_seed(cfg.seed, "split"))
    core, val = carve_validation(train_all, cfg.data.val_fraction, derive_seed(cfg.seed, "val"))
    return train_all, core, val, test


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def _cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    samples = _synthetic(cfg)
    out = Path(cfg.out_dir)
    manifest = []
    for i, sample in enumerate(samples):
        name = f"sample_{i:05d}.jsonl"
        atomic_write_text(out / name, sample_to_jsonl(sample))
        manifest.append({"file": name, "label": sample.label})
    atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(samples)} samples and manifest.json to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_run_config(args)
    samples, input_dim, classes = _dataset(cfg)
    mcfg = cfg.model_config(input_dim, classes)
    tcfg = cfg.train_config()
    _, core, val, test = _splits(cfg, samples)

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


def _cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    weights = load_weights_file(args.model)
    samples, _, _ = _dataset(cfg)
    _, _, _, test = _splits(cfg, samples)
    accuracy = evaluate_isolated(weights, test)
    out = Path(cfg.out_dir)
    atomic_write_text(out / "eval.json", json.dumps({"test_accuracy": accuracy}, indent=2) + "\n")
    print(f"test accuracy {accuracy:.4f} over {len(test)} samples")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_run_config(args)
    layer_choices = _parse_int_list(args.layers, "--layers")
    head_choices = _parse_int_list(args.heads, "--heads")
    samples, input_dim, classes = _dataset(cfg)
    mcfg = cfg.model_config(input_dim, classes)
    tcfg = cfg.train_config()
    train_all, test = split_dataset(samples, cfg.data.split_ratio, derive_seed(cfg.seed, "split"))

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


def _cmd_segment(args) -> int:
    cfg = _load_run_config(args)
    weights = load_weights_file(args.model)
    seg = cfg.segmentation
    window = weights.config.window
    out = Path(cfg.out_dir)

    if args.stream is not None:
        gt = [] if args.labels is None else _parse_int_list(args.labels, "--labels")
        stream = ContinuousStream(frames=load_stream_features(args.stream), gt_labels=gt)
        if args.labels is None:  # nothing to score: decode only
            _, wp, decoded = _decode_stream(weights, stream, window, seg.stride, seg.threshold)
        else:
            report = segment_report(weights, [stream], window, seg.stride, seg.threshold)
            row = report.rows[0]
            if row.error is not None:
                raise StreamTooShortError(row.error)
            wp, decoded = row.window_probs, row.decoded
        atomic_write_text(out / "stream_windows.csv", windows_csv(wp, decoded, seg.threshold))
        print(f"decoded {len(decoded)} labels: {[d.label for d in decoded]}")
        if args.labels is not None:
            atomic_write_text(out / "segment_summary.csv", report_summary_csv(report))
            atomic_write_text(out / "segment.json", report_aggregate_json(report))
            print(
                f"false recognitions {report.false_with_pp} with post-processing, "
                f"{report.false_without_pp} without; edit distance {row.edit_dist}"
            )
        return 0

    samples, _, _ = _dataset(cfg)
    if cfg.model.window != weights.config.window:
        raise SignsegError(
            f"model.window {cfg.model.window} does not match the model's window {weights.config.window}"
        )
    _, _, _, test = _splits(cfg, samples)
    streams = build_streams(test, seg.n_streams, seg.signs_per_stream, derive_seed(cfg.seed, "streams"))
    report = segment_report(weights, streams, window, seg.stride, seg.threshold)
    for row in report.rows:
        if row.error is not None:
            print(f"stream {row.index}: error: {row.error}")
            continue
        atomic_write_text(
            out / f"stream_{row.index:03d}_windows.csv",
            windows_csv(row.window_probs, row.decoded, seg.threshold),
        )
        print(
            f"stream {row.index}: {len(row.decoded)} decoded, {row.false_count} false, "
            f"avg softmax {row.avg_softmax:.4f}"
        )
    atomic_write_text(out / "segment_summary.csv", report_summary_csv(report))
    atomic_write_text(out / "segment.json", report_aggregate_json(report))
    print(
        f"totals: false {report.false_with_pp} with post-processing vs {report.false_without_pp} without"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SignsegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
