"""Keypoint ingestion and sequence preparation.

Recordings arrive as JSON Lines, one frame per non-empty line:

    {"hands": [[[x, y, z], ...21 points], ...]}

with one or two hands per frame. A parsed recording is one float64 array
of shape (frames, hands, 21, 3). Each hand is made translation and scale
invariant by subtracting the wrist (keypoint 0), dropping it, and dividing
by the largest remaining keypoint radius, which leaves 60 features per
hand; normalize_frame does this for one frame or a whole recording at
once. Sequences are then linearly resampled to a fixed window length, and
isolated samples can be concatenated into continuous streams that keep
their ground-truth label order.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFrameError,
    HandCountError,
    KeypointParseError,
    ShapeError,
    check_counts,
    class_index,
    shown,
)
from .seeding import derive_rng

KEYPOINTS_PER_HAND = 21
FEATURES_PER_HAND = 60  # 20 keypoints x 3 coordinates once the wrist is dropped
MIN_HAND_SCALE = 1e-9
_NUMBER_TYPES = {int, float}  # bool is a subclass of int, so compare exact types
_HAND_SCHEMA = f"each hand must be {KEYPOINTS_PER_HAND} [x, y, z] numbers"


@dataclass
class IsolatedSample:
    """A fixed-length feature sequence (window, dim) with its class label."""

    frames: np.ndarray
    label: int


@dataclass
class ContinuousStream:
    """Concatenated frames (n, dim) plus the ordered ground-truth labels.

    boundaries holds the inclusive (start, end) frame span of each source
    sample when the stream was built by concatenation.
    """

    frames: np.ndarray
    gt_labels: list[int]
    boundaries: list[tuple[int, int]] | None = None


def parse_keypoint_file(data: bytes | str) -> np.ndarray:
    """Parse a JSON Lines keypoint recording.

    Args:
        data: file content, bytes (UTF-8) or already-decoded text.

    Returns:
        A float64 array (frames, hands, 21, 3), one frame per non-empty
        line in file order; (0, 0, 21, 3) when no line holds a frame.

    Raises:
        KeypointParseError: a line is not valid JSON or violates the frame
            schema (the error carries the 1-based line number).
        HandCountError: the number of hands changes between frames.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise KeypointParseError(0, f"not valid UTF-8: {exc}") from exc
    else:
        text = data

    frames: list[np.ndarray] = []
    # JSON Lines ends a line at "\n" only; a "\r" before it is JSON whitespace,
    # and U+2028 or U+0085 may sit inside a string (splitlines breaks there).
    # A blank line holds JSON whitespace only (str.strip would also drop \x0c).
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise KeypointParseError(line_number, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer longer than Python's int-digit limit
            raise KeypointParseError(line_number, str(exc)) from exc
        if not isinstance(obj, dict) or "hands" not in obj:
            raise KeypointParseError(line_number, 'expected an object with a "hands" key')
        hands = obj["hands"]
        if not isinstance(hands, list) or not 1 <= len(hands) <= 2:
            raise KeypointParseError(line_number, "hands must be a list of 1 or 2 hands")
        try:
            arr = np.array(hands, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise KeypointParseError(line_number, f"{_HAND_SCHEMA}: {exc}") from exc
        # np.array also takes true and "1.5", so the types are checked as well
        if arr.shape != (len(hands), KEYPOINTS_PER_HAND, 3) or not (
            {type(c) for hand in hands for point in hand for c in point} <= _NUMBER_TYPES
        ):
            raise KeypointParseError(line_number, _HAND_SCHEMA)
        if not np.all(np.isfinite(arr)):
            raise KeypointParseError(line_number, "non-finite coordinate")
        if frames and len(hands) != len(frames[0]):
            raise HandCountError(
                f"line {line_number}: frame has {len(hands)} hands, previous frames have {len(frames[0])}"
            )
        frames.append(arr)
    return np.stack(frames) if frames else np.empty((0, 0, KEYPOINTS_PER_HAND, 3))


def normalize_frame(raw: np.ndarray) -> np.ndarray:
    """Reduce raw keypoints to wrist-relative, scale-normalized features.

    Takes one frame (hands, 21, 3) or a recording (frames, hands, 21, 3).
    Per hand: subtract keypoint 0, drop it, divide the remaining 20 points
    by the largest Euclidean radius. Hands are flattened in order, so a
    frame becomes 60 features per hand and a recording (frames, 60 * hands).

    Raises:
        DegenerateFrameError: every keypoint of a hand sits on the wrist
            (max radius below 1e-9), or a keypoint is NaN, infinite or so
            large that its square overflows, so no scale exists. The message names the first such hand, and
            its 0-based frame for a recording.
    """
    points = np.asarray(raw, dtype=np.float64)
    if points.ndim not in (3, 4) or points.shape[-2:] != (KEYPOINTS_PER_HAND, 3):
        raise ShapeError(f"expected ([frames,] hands, {KEYPOINTS_PER_HAND}, 3) keypoints, got {points.shape}")
    relative = points[..., 1:, :] - points[..., :1, :]
    scale = np.sqrt((relative**2).sum(axis=-1)).max(axis=-1)
    # a NaN or infinite keypoint, or one whose square overflows, makes its
    # hand's scale NaN or infinite, which fails the range check as a scale
    # near zero does
    degenerate = np.argwhere(~((MIN_HAND_SCALE <= scale) & (scale < np.inf)))
    if len(degenerate):
        *frame, hand = first = tuple(degenerate[0])
        where = f"frame {frame[0]}, hand {hand}" if frame else f"hand {hand}"
        if scale[first] < MIN_HAND_SCALE:
            raise DegenerateFrameError(f"{where}: all keypoints coincide with the wrist")
        raise DegenerateFrameError(f"{where}: no finite scale (a keypoint is NaN, infinite or too large)")
    return (relative / scale[..., None, None]).reshape(*points.shape[:-3], -1)


def resample_sequence(frames: np.ndarray, target: int) -> np.ndarray:
    """Linearly resample a (t, dim) sequence to exactly `target` frames.

    Output frame i sits at input position i * (t - 1) / (target - 1) and is
    the linear interpolation of its two neighbours, so the endpoints are
    preserved exactly and target == t returns a copy of the input.
    """
    check_counts(1, target=target)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ShapeError(f"expected a (frames, features) array, got shape {frames.shape}")
    t = frames.shape[0]
    if t == 0:
        raise ValueError("cannot resample an empty sequence")
    if target == t:
        return frames.copy()
    if t == 1:
        return np.repeat(frames, target, axis=0)
    positions = np.linspace(0.0, t - 1.0, target)
    idx = np.minimum(np.floor(positions).astype(int), t - 2)
    frac = (positions - idx)[:, None]
    return (1.0 - frac) * frames[idx] + frac * frames[idx + 1]


def concat_isolated(samples: list[IsolatedSample]) -> ContinuousStream:
    """Concatenate isolated samples, in the given order, into one continuous
    stream; all must share the feature dimension."""
    if not samples:
        raise ValueError("need at least one sample to build a stream")
    dims = {sample.frames.shape[1] for sample in samples}
    if len(dims) != 1:
        raise ShapeError(f"samples have mixed feature dimensions: {sorted(dims)}")

    labels = [class_index(sample.label, f"sample {i}") for i, sample in enumerate(samples)]
    frames = np.concatenate([sample.frames for sample in samples], axis=0)
    ends = itertools.accumulate(len(sample.frames) for sample in samples)
    boundaries = [(end - len(sample.frames), end - 1) for sample, end in zip(samples, ends)]
    return ContinuousStream(frames=frames, gt_labels=labels, boundaries=boundaries)


def build_streams(
    samples: list[IsolatedSample],
    n_streams: int,
    signs_per_stream: int,
    seed: int,
) -> list[ContinuousStream]:
    """Assemble continuous test streams from a pool of isolated samples.

    Each stream draws `signs_per_stream` distinct classes in random order
    and one random sample per drawn class, so no two adjacent signs share a
    label (run collapse in the decoder cannot tell adjacent repeats apart).
    """
    check_counts(1, n_streams=n_streams, signs_per_stream=signs_per_stream)
    by_label: dict[int, list[int]] = {}
    for i, sample in enumerate(samples):
        by_label.setdefault(class_index(sample.label, f"sample {i}"), []).append(i)
    labels = sorted(by_label)
    if signs_per_stream > len(labels):
        raise ValueError(
            f"signs_per_stream {shown(signs_per_stream)} exceeds the {len(labels)} distinct labels available"
        )
    rng = derive_rng(seed, "streams")
    streams = []
    for _ in range(n_streams):
        chosen = rng.permutation(len(labels))[:signs_per_stream]
        picks = [by_label[labels[c]][rng.integers(len(by_label[labels[c]]))] for c in chosen]
        streams.append(concat_isolated([samples[i] for i in picks]))
    return streams


def load_isolated_dataset(manifest_path: str | Path, window: int) -> list[IsolatedSample]:
    """Load a labelled dataset from a manifest of keypoint recordings.

    The manifest is a UTF-8 JSON array of {"file": path, "label": int};
    file paths are resolved relative to the manifest location. Each
    recording is loaded as by load_stream_features and resampled to
    `window` frames. A recording's own error is raised as the same class,
    its message prefixed with the manifest entry and file.
    """
    manifest_path = Path(manifest_path)
    try:
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past the int-digit limit
        raise ConfigError(f"manifest {manifest_path}: invalid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError(f"manifest {manifest_path}: expected a JSON array")
    if not entries:
        raise ConfigError(f"manifest {manifest_path}: lists no recordings")
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("file"), str) or "label" not in entry:
            raise ConfigError(f"manifest entry {i}: expected an object with file and label")
        label = entry["label"]
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            raise ConfigError(f"manifest entry {i}: label must be a non-negative integer")
        try:
            features = load_stream_features(manifest_path.parent / entry["file"])
        except (KeypointParseError, HandCountError, DegenerateFrameError) as exc:
            exc.args = (f"manifest entry {i} ({entry['file']}): {exc}",)
            raise
        samples.append(IsolatedSample(frames=resample_sequence(features, window), label=label))
    return samples


def load_stream_features(path: str | Path) -> np.ndarray:
    """Parse and normalize a keypoint recording, without resampling; one
    with no frames raises KeypointParseError."""
    raw = parse_keypoint_file(Path(path).read_bytes())
    if not len(raw):
        raise KeypointParseError(0, f"{path} holds no frames")
    return normalize_frame(raw)
