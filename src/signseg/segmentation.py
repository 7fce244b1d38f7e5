"""Sliding-window decoding of continuous streams.

A trained isolated-sign classifier is slid across the stream, a view of
its frames, into one (n_windows, classes) probability array; a list of
window rows is checked and stacked into that array in one pass. The decode
rule (CTC's best path) is written once, in _decode, and applied to that
array whole: each window emits its argmax class when that probability
reaches the threshold and Blank otherwise (NaN never reaches it); Blanks
are discarded and consecutive duplicate labels collapse to the first
surviving window. With the default 0.51 threshold at most one class can
clear the bar per window, because the probabilities sum to one.

False recognitions are counted positionally against the ground-truth
label list, plus the absolute length difference: one walk over (decoded,
ground truth), positions in order and then the longer side's tail, gives
both the mismatch table and the false count, its length. An edit
distance is reported alongside as a robustness check. Every report also
carries two baselines for comparison: collapse-only (each window's argmax
with runs of one label collapsed, no threshold), which isolates what the
threshold buys, and no post-processing at all (raw argmax per window, no
threshold, no collapse).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, StreamTooShortError, check_counts, check_reals, is_integer, shown
from .keypoints import ContinuousStream
from .model import ModelWeights, forward_probs

DEFAULT_THRESHOLD = 0.51


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

    gt_class: int | None
    gt_softmax: float | None
    recognized_class: int | None
    recognized_softmax: float | None
    window_index: int | None


@dataclass
class StreamRow:
    """One stream's decode; an errored stream keeps the empty defaults."""

    index: int
    gt_labels: list[int]
    decoded: list[DecodedLabel] = field(default_factory=list)
    window_probs: list[WindowProb] = field(default_factory=list)  # rows of one (n, C) array
    avg_softmax: float = 0.0  # over thresholded windows; 0.0 when none survive
    survivor_count: int = 0
    avg_softmax_raw: float = 0.0  # over every window, no threshold
    false_count: int = 0
    false_count_collapse: int = 0
    false_count_raw: int = 0
    edit_dist: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    error: str | None = None


@dataclass
class SegmentReport:
    rows: list[StreamRow]
    false_with_pp: int
    false_collapse_only: int
    false_without_pp: int
    avg_softmax_with_pp: float
    avg_softmax_without_pp: float


def slide(stream: ContinuousStream | np.ndarray, window: int, stride: int = 1) -> np.ndarray:
    """All full windows of the stream's (n, dim) frames as a read-only view
    (floor((n - window) / stride) + 1, window, dim); window i starts at
    frame i * stride."""
    check_counts(1, window=window, stride=stride)
    frames = stream.frames if isinstance(stream, ContinuousStream) else np.asarray(stream)
    if frames.ndim != 2:
        raise ShapeError(f"stream frames have shape {frames.shape}, expected (frames, dim)")
    n = frames.shape[0]
    if n < window:
        raise StreamTooShortError(f"stream has {n} frames, one window needs {shown(window)}")
    return sliding_window_view(frames, (window, frames.shape[1]))[::stride, 0]


def window_probs(weights: ModelWeights, windows: np.ndarray) -> np.ndarray:
    """float64 class probabilities (n, classes) of windows (n, window,
    input_dim), in one forward_probs call, which chunks them."""
    return forward_probs(weights, windows)


def _decode(probs: np.ndarray, threshold: float):
    """The decode rule over (n, C) rows: each row's argmax label and its
    probability, the mask of rows where that reaches the threshold (NaN
    does not), and the rows that emit: the first of each run of one label
    among the survivors."""
    check_reals("in (0, 1)", threshold=threshold)
    labels = probs.argmax(axis=1)
    tops = np.take_along_axis(probs, labels[:, None], axis=1)[:, 0]
    keep = tops >= threshold
    survivors = np.flatnonzero(keep)
    return labels, tops, keep, survivors[_run_heads(labels[survivors])]


def _run_heads(labels: np.ndarray) -> np.ndarray:
    """Index of the first label of each run of equal labels."""
    return np.flatnonzero(np.diff(labels, prepend=-1) != 0)


def _rows(wp: list[WindowProb]) -> np.ndarray:
    """The windows' probabilities stacked into (n, C) float64 rows, so a
    float32 row meets the threshold as the float it converts to; raises
    ShapeError naming the first window whose probabilities are not numbers
    (a ragged row or strings) or not a 1-D row of window 0's shape."""
    rows = []
    for i, w in enumerate(wp):
        try:
            row = np.asarray(w.probs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"window {i} has probabilities that are not a row of numbers") from exc
        rows.append(row)
        if row.ndim != 1:
            raise ShapeError(f"window {i} has probabilities of shape {row.shape}, expected one row (classes,)")
        if row.shape != rows[0].shape:
            raise ShapeError(f"window {i} has probabilities of shape {row.shape}, window 0 {rows[0].shape}")
    return np.array(rows) if rows else np.empty((0, 1))


def post_process(wp: list[WindowProb], threshold: float = DEFAULT_THRESHOLD) -> list[DecodedLabel]:
    """Threshold, then collapse consecutive duplicates.

    A window emits its argmax class when that probability is at least the
    threshold, otherwise Blank. Blanks are dropped, and among the
    survivors each run of equal labels keeps only its first window.
    Windows whose probabilities are not 1-D rows of one class count
    raise ShapeError.
    """
    labels, tops, _, heads = _decode(_rows(wp), threshold)
    return [DecodedLabel(int(labels[i]), int(i), float(tops[i])) for i in heads]


def _labels(labels, side: str) -> list[int]:
    """Each item's label as an int, a DecodedLabel's or the item itself if
    is_integer; raises ValueError naming the side and position of any other
    item. Any integer is a label here: one outside the model's classes is
    scored as a mismatch."""
    out = [d.label if isinstance(d, DecodedLabel) else d for d in labels]
    for i, label in enumerate(out):
        if not is_integer(label):
            raise ValueError(f"{side} label {i} is {label!r}, not an integer class")
    return [int(label) for label in out]


def count_false(decoded, gt_labels: list[int]) -> int:
    """Positional mismatches against the ground truth, where each item of
    the longer side's tail meets None and counts once; each side as
    _labels reads it."""
    labels, gt_labels = _labels(decoded, "decoded"), _labels(gt_labels, "ground-truth")
    return sum(a != b for a, b in zip_longest(labels, gt_labels))


def edit_distance(decoded, gt_labels: list[int]) -> int:
    """Levenshtein distance between the decoded and true label sequences."""
    a, b = _labels(decoded, "decoded"), _labels(gt_labels, "ground-truth")
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


def _stream_row(index, probs, wp, decoded, gt_labels, threshold) -> StreamRow:
    labels, tops, keep, _ = _decode(probs, threshold)
    survivors = int(keep.sum())

    mismatches: list[Mismatch] = []
    for d, gt in zip_longest(decoded, gt_labels):  # positions in order, then the longer side's tail
        if d is None:
            mismatches.append(Mismatch(gt, None, None, None, None))
        elif d.label != gt:  # a decoded tail meets gt None
            gt_prob = float(probs[d.window_index, gt]) if gt is not None and 0 <= gt < probs.shape[1] else None
            mismatches.append(Mismatch(gt, gt_prob, d.label, d.prob, d.window_index))

    return StreamRow(
        index=index,
        gt_labels=gt_labels,
        decoded=decoded,
        window_probs=wp,
        avg_softmax=float(tops[keep].mean()) if survivors else 0.0,
        survivor_count=survivors,
        avg_softmax_raw=float(tops.mean()),
        false_count=len(mismatches),
        false_count_collapse=count_false(labels[_run_heads(labels)].tolist(), gt_labels),
        false_count_raw=count_false(labels.tolist(), gt_labels),
        edit_dist=edit_distance(decoded, gt_labels),
        mismatches=mismatches,
    )


def segment_report(
    weights: ModelWeights,
    streams: list[ContinuousStream],
    window: int,
    stride: int = 1,
    threshold: float = DEFAULT_THRESHOLD,
) -> SegmentReport:
    """Decode every stream and aggregate false counts and softmax means.

    This is the one decoder: each stream goes through slide, window_probs
    and post_process, once each, called through this module's names.
    A too-short stream is recorded as an errored row rather than aborting
    the batch. Each aggregate false count is the sum of the per-stream
    counts: with post-processing, collapse-only and without; the
    with/without-post-processing pair of both metrics feeds the
    comparison tables.
    """
    if not streams:
        raise ValueError("need at least one stream")
    check_reals("in (0, 1)", threshold=threshold)  # before any stream is decoded or recorded as errored
    # so is each stream's ground truth, whose ints every row then carries
    truths = [_labels(s.gt_labels, f"stream {i} ground-truth") for i, s in enumerate(streams)]
    rows: list[StreamRow] = []
    for index, (stream, gt_labels) in enumerate(zip(streams, truths)):
        try:
            windows = slide(stream, window, stride)
        except StreamTooShortError as exc:
            rows.append(StreamRow(index, gt_labels, error=str(exc)))
            continue
        probs = window_probs(weights, windows)
        wp = [WindowProb(i * stride, row) for i, row in enumerate(probs)]
        decoded = post_process(wp, threshold)
        rows.append(_stream_row(index, probs, wp, decoded, gt_labels, threshold))

    scored = [r for r in rows if r.error is None]
    return SegmentReport(
        rows=rows,
        false_with_pp=sum(r.false_count for r in scored),
        false_collapse_only=sum(r.false_count_collapse for r in scored),
        false_without_pp=sum(r.false_count_raw for r in scored),
        avg_softmax_with_pp=float(np.mean([r.avg_softmax for r in scored])) if scored else 0.0,
        avg_softmax_without_pp=float(np.mean([r.avg_softmax_raw for r in scored])) if scored else 0.0,
    )


def windows_csv(wp: list[WindowProb], decoded: list[DecodedLabel], threshold: float) -> str:
    """Per-window trace: start, argmax class, top probability, and what the
    decoder emitted there (a label, Blank, or nothing when collapsed)."""
    labels, tops, keep, _ = _decode(_rows(wp), threshold)
    emitted = ["" if k else "Blank" for k in keep.tolist()]
    for d in decoded:
        emitted[d.window_index] = str(d.label)
    lines = ["window_start,argmax_class,max_prob,emitted_label"]
    lines += [
        f"{w.start},{label},{top!r},{emit}"
        for w, label, top, emit in zip(wp, labels.tolist(), tops.tolist(), emitted)
    ]
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
            cell = f"error: {row.error}".replace('"', '""')
            lines.append(f'{row.index},"{cell}",-,-,-,-')
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
            "false_collapse_only": report.false_collapse_only,
            "false_with_pp": report.false_with_pp,
            "false_without_pp": report.false_without_pp,
        },
        indent=2,
    ) + "\n"
