"""Seeded synthetic gesture generator.

Each class is a bundle of per-feature sinusoids: feature d of a clip of
length T follows

    a_d * sin(w_d * t / (T - 1) * 2 * pi + phi_d) + b_d

with amplitude a in [0.2, 1], frequency w in [0.5, 3] cycles per clip,
phase phi in [0, 2*pi), and offset b in [-0.5, 0.5]. Instances stretch the
clip by a random speed factor in [0.8, 1.25], resample back to the
requested length, and finally add i.i.d. Gaussian noise per value, so the
noise statistics of the delivered frames are exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import check_counts, check_reals
from .keypoints import FEATURES_PER_HAND, KEYPOINTS_PER_HAND, IsolatedSample, resample_sequence
from .seeding import derive_rng, derive_seed

AMPLITUDE_RANGE = (0.2, 1.0)
FREQUENCY_RANGE = (0.5, 3.0)
OFFSET_RANGE = (-0.5, 0.5)
SPEED_JITTER_RANGE = (0.8, 1.25)


@dataclass(frozen=True)
class ClassPrototype:
    """Sinusoid parameters defining one gesture class, each of shape (dim,)."""

    class_id: int
    amplitude: np.ndarray
    frequency: np.ndarray
    phase: np.ndarray
    offset: np.ndarray


def make_class_prototype(seed: int, class_id: int, dim: int) -> ClassPrototype:
    """Deterministic prototype for (seed, class_id); dim features."""
    check_counts(1, dim=dim)
    check_counts(0, class_id=class_id)
    rng = derive_rng(seed, "prototype", class_id)
    return ClassPrototype(
        class_id=class_id,
        amplitude=rng.uniform(*AMPLITUDE_RANGE, dim),
        frequency=rng.uniform(*FREQUENCY_RANGE, dim),
        phase=rng.uniform(0.0, 2.0 * np.pi, dim),
        offset=rng.uniform(*OFFSET_RANGE, dim),
    )


def prototype_trajectory(proto: ClassPrototype, length: int) -> np.ndarray:
    """Render the clean class curve at `length` frames, shape (length, dim)."""
    check_counts(2, length=length)
    t = np.arange(length)[:, None] / (length - 1)
    return proto.amplitude * np.sin(proto.frequency * t * 2.0 * np.pi + proto.phase) + proto.offset


def sample_instance(
    proto: ClassPrototype, sample_seed: int, noise_sigma: float, length: int
) -> IsolatedSample:
    """One noisy instance of a class, resampled to `length` frames.

    Draw order is fixed (speed jitter, then noise) so the same sample_seed
    with noise_sigma=0 yields the clean version of the same instance.
    """
    check_reals(">= 0", finite=True, noise_sigma=noise_sigma)
    check_counts(2, length=length)
    rng = derive_rng(sample_seed, "instance")
    jitter = rng.uniform(*SPEED_JITTER_RANGE)
    raw_length = max(2, int(round(length * jitter)))
    frames = resample_sequence(prototype_trajectory(proto, raw_length), length)
    frames = frames + rng.normal(0.0, noise_sigma, size=frames.shape)
    return IsolatedSample(frames=frames, label=proto.class_id)


def make_dataset(
    seed: int, classes: int, n_per_class: int, dim: int, window: int, noise_sigma: float
) -> list[IsolatedSample]:
    """classes * n_per_class samples, class-major, fully seed-determined."""
    check_counts(2, classes=classes, window=window)  # make_class_prototype checks dim
    check_counts(1, n_per_class=n_per_class)
    samples = []
    for class_id in range(classes):
        proto = make_class_prototype(seed, class_id, dim)
        for j in range(n_per_class):
            sample_seed = derive_seed(seed, "sample", class_id, j)
            samples.append(sample_instance(proto, sample_seed, noise_sigma, window))
    return samples


def sample_to_jsonl(sample: IsolatedSample) -> str:
    """Serialize a synthetic sample in the keypoint file format.

    Feature triples become keypoints 1..dim/3 of a single pseudo-hand;
    keypoint 0 (the wrist) and the unused slots stay at the origin. dim
    must be divisible by 3 and at most 60 to fit the 20 usable keypoints.
    """
    dim = sample.frames.shape[1]
    if dim % 3 != 0 or dim > FEATURES_PER_HAND:
        raise ValueError(f"dim must be divisible by 3 and <= {FEATURES_PER_HAND}, got {dim}")
    used = dim // 3
    lines = []
    for frame in sample.frames:
        points = np.zeros((KEYPOINTS_PER_HAND, 3))
        points[1 : 1 + used] = frame.reshape(used, 3)
        lines.append(json.dumps({"hands": [points.tolist()]}))
    return "\n".join(lines) + "\n"
