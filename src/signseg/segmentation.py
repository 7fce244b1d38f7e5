"""Sliding-window decoding of continuous streams.

A trained isolated-sign classifier is slid across the stream. Each window
emits its argmax class when that probability reaches the threshold and
Blank otherwise; Blank windows are discarded and consecutive duplicate
labels collapse to the first surviving window. With the default 0.51
threshold at most one class can clear the bar per window, because the
probabilities sum to one.

False recognitions are counted positionally against the ground-truth
label list, plus the absolute length difference; an edit distance is
reported alongside as a robustness check. Every report also carries the
no-post-processing baseline (raw argmax per window, no threshold, no
collapse) for comparison.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import StreamTooShortError
from .keypoints import ContinuousStream
from .model import FORWARD_CHUNK, ModelWeights, forward_probs

DEFAULT_WINDOW = 50
DEFAULT_THRESHOLD = 0.51


@dataclass(frozen=True)
class Window:
    """One window of stream frames and its start offset."""

    start: int
    frames: np.ndarray


@dataclass(frozen=True)
class WindowProb:
    """Class probabilities of one window."""

    start: int
    probs: np.ndarray


@dataclass(frozen=True)
class DecodedLabel:
    """One emitted label: class, index of its source window, and that
    window's top probability."""

    label: int
    window_index: int
    prob: float


@dataclass(frozen=True)
class Mismatch:
    """One counted false recognition; fields are None on the side a length
    difference leaves unmatched."""

    position: int
    gt_class: int | None
    gt_softmax: float | None
    recognized_class: int | None
    recognized_softmax: float | None
    window_index: int | None


@dataclass
class StreamRow:
    index: int
    gt_labels: list[int]
    decoded: list[DecodedLabel]
    window_probs: list[WindowProb]
    avg_softmax: float  # over thresholded windows; 0.0 when none survive
    survivor_count: int
    avg_softmax_raw: float  # over every window, no threshold
    false_count: int
    false_count_raw: int
    edit_dist: int
    mismatches: list[Mismatch]
    error: str | None = None


@dataclass
class SegmentReport:
    rows: list[StreamRow]
    false_with_pp: int
    false_without_pp: int
    avg_softmax_with_pp: float
    avg_softmax_without_pp: float


def slide(
    stream: ContinuousStream | np.ndarray, window: int = DEFAULT_WINDOW, stride: int = 1
) -> list[Window]:
    """All full windows of the stream: floor((n - window) / stride) + 1."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    frames = stream.frames if isinstance(stream, ContinuousStream) else np.asarray(stream)
    n = frames.shape[0]
    if n < window:
        raise StreamTooShortError(f"stream has {n} frames, one window needs {window}")
    return [Window(s, frames[s : s + window]) for s in range(0, n - window + 1, stride)]


def window_probs(weights: ModelWeights, windows: list[Window]) -> list[WindowProb]:
    """Classify each window independently, FORWARD_CHUNK windows per
    forward pass."""
    out = []
    for i in range(0, len(windows), FORWARD_CHUNK):
        chunk = windows[i : i + FORWARD_CHUNK]
        probs = forward_probs(weights, np.stack([w.frames for w in chunk]))
        out += [WindowProb(w.start, p) for w, p in zip(chunk, probs)]
    return out


def post_process(wp: list[WindowProb], threshold: float = DEFAULT_THRESHOLD) -> list[DecodedLabel]:
    """Threshold, then collapse consecutive duplicates.

    A window emits its argmax class when that probability is at least the
    threshold, otherwise Blank. Blanks are dropped, and among the
    survivors each run of equal labels keeps only its first window.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    out: list[DecodedLabel] = []
    previous: int | None = None
    for index, w in enumerate(wp):
        label = int(np.argmax(w.probs))
        prob = float(w.probs[label])
        if prob < threshold:
            continue
        if label != previous:
            out.append(DecodedLabel(label, index, prob))
        previous = label
    return out


def avg_recognized_softmax(
    wp: list[WindowProb], threshold: float = DEFAULT_THRESHOLD
) -> tuple[float, int]:
    """Mean top probability over windows that clear the threshold.

    Returns (mean, survivor_count); (0.0, 0) flags that nothing survived.
    """
    tops = [float(w.probs.max()) for w in wp if float(w.probs.max()) >= threshold]
    if not tops:
        return 0.0, 0
    return float(np.mean(tops)), len(tops)


def count_false(decoded, gt_labels: list[int]) -> int:
    """Positional mismatches against the ground truth, plus the absolute
    length difference as a tail penalty."""
    labels = [d.label if isinstance(d, DecodedLabel) else int(d) for d in decoded]
    mismatches = sum(a != b for a, b in zip(labels, gt_labels))
    return mismatches + abs(len(labels) - len(gt_labels))


def edit_distance(decoded, gt_labels: list[int]) -> int:
    """Levenshtein distance between the decoded and true label sequences."""
    a = [d.label if isinstance(d, DecodedLabel) else int(d) for d in decoded]
    b = [int(x) for x in gt_labels]
    previous = list(range(len(b) + 1))
    for i, ai in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, bj in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ai != bj),
            )
        previous = current
    return previous[len(b)]


def _stream_row(index, wp, gt_labels, threshold) -> StreamRow:
    decoded = post_process(wp, threshold)
    avg, survivors = avg_recognized_softmax(wp, threshold)
    avg_raw = float(np.mean([w.probs.max() for w in wp]))
    raw_labels = [int(np.argmax(w.probs)) for w in wp]

    mismatches: list[Mismatch] = []
    matched = min(len(decoded), len(gt_labels))
    for pos in range(matched):
        d = decoded[pos]
        gt = gt_labels[pos]
        if d.label == gt:
            continue
        probs = wp[d.window_index].probs
        gt_prob = float(probs[gt]) if 0 <= gt < probs.shape[0] else None
        mismatches.append(Mismatch(pos, gt, gt_prob, d.label, d.prob, d.window_index))
    for pos in range(matched, len(decoded)):
        d = decoded[pos]
        mismatches.append(Mismatch(pos, None, None, d.label, d.prob, d.window_index))
    for pos in range(matched, len(gt_labels)):
        mismatches.append(Mismatch(pos, gt_labels[pos], None, None, None, None))

    return StreamRow(
        index=index,
        gt_labels=list(gt_labels),
        decoded=decoded,
        window_probs=list(wp),
        avg_softmax=avg,
        survivor_count=survivors,
        avg_softmax_raw=avg_raw,
        false_count=count_false(decoded, gt_labels),
        false_count_raw=count_false(raw_labels, gt_labels),
        edit_dist=edit_distance(decoded, gt_labels),
        mismatches=mismatches,
    )


def segment_report(
    weights: ModelWeights,
    streams: list[ContinuousStream],
    window: int = DEFAULT_WINDOW,
    stride: int = 1,
    threshold: float = DEFAULT_THRESHOLD,
) -> SegmentReport:
    """Decode every stream and aggregate false counts and softmax means.

    A too-short stream is recorded as an errored row rather than aborting
    the batch. The aggregate false count is the sum of the per-stream
    mismatch counts; the with/without-post-processing pair of both metrics
    feeds the comparison tables.
    """
    if not streams:
        raise ValueError("need at least one stream")
    rows: list[StreamRow] = []
    for index, stream in enumerate(streams):
        try:
            windows = slide(stream, window, stride)
        except StreamTooShortError as exc:
            rows.append(
                StreamRow(
                    index=index,
                    gt_labels=list(stream.gt_labels),
                    decoded=[],
                    window_probs=[],
                    avg_softmax=0.0,
                    survivor_count=0,
                    avg_softmax_raw=0.0,
                    false_count=0,
                    false_count_raw=0,
                    edit_dist=0,
                    mismatches=[],
                    error=str(exc),
                )
            )
            continue
        wp = window_probs(weights, windows)
        rows.append(_stream_row(index, wp, list(stream.gt_labels), threshold))

    scored = [r for r in rows if r.error is None]
    return SegmentReport(
        rows=rows,
        false_with_pp=sum(r.false_count for r in scored),
        false_without_pp=sum(r.false_count_raw for r in scored),
        avg_softmax_with_pp=float(np.mean([r.avg_softmax for r in scored])) if scored else 0.0,
        avg_softmax_without_pp=float(np.mean([r.avg_softmax_raw for r in scored])) if scored else 0.0,
    )


def windows_csv(wp: list[WindowProb], decoded: list[DecodedLabel], threshold: float) -> str:
    """Per-window trace: start, argmax class, top probability, and what the
    decoder emitted there (a label, Blank, or nothing when collapsed)."""
    emitted = {d.window_index: d.label for d in decoded}
    lines = ["window_start,argmax_class,max_prob,emitted_label"]
    for index, w in enumerate(wp):
        label = int(np.argmax(w.probs))
        top = float(w.probs[label])
        if index in emitted:
            emit = str(emitted[index])
        elif top < threshold:
            emit = "Blank"
        else:
            emit = ""
        lines.append(f"{w.start},{label},{top!r},{emit}")
    return "\n".join(lines) + "\n"


def report_summary_csv(report: SegmentReport) -> str:
    """Mismatch table: stream, its recognized-softmax average, then ground
    truth vs recognized class with both softmax values; dashes for streams
    with no mismatches."""
    lines = ["stream,avg_softmax_recognized,gt_class,gt_softmax,recognized_class,recognized_softmax"]

    def fmt(value):
        if value is None:
            return "-"
        return repr(value) if isinstance(value, float) else str(value)

    for row in report.rows:
        if row.error is not None:
            lines.append(f"{row.index},error: {row.error},-,-,-,-")
            continue
        if not row.mismatches:
            lines.append(f"{row.index},{row.avg_softmax!r},-,-,-,-")
            continue
        for mm in row.mismatches:
            lines.append(
                f"{row.index},{row.avg_softmax!r},{fmt(mm.gt_class)},{fmt(mm.gt_softmax)},"
                f"{fmt(mm.recognized_class)},{fmt(mm.recognized_softmax)}"
            )
    return "\n".join(lines) + "\n"


def report_aggregate_json(report: SegmentReport) -> str:
    return json.dumps(
        {
            "avg_softmax_with_pp": report.avg_softmax_with_pp,
            "avg_softmax_without_pp": report.avg_softmax_without_pp,
            "false_with_pp": report.false_with_pp,
            "false_without_pp": report.false_without_pp,
        },
        indent=2,
    ) + "\n"
