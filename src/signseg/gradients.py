"""A finite-difference checker for the encoder's analytic gradients,
coordinate by coordinate. model.py owns both passes; this module reaches
them through their public names."""
from __future__ import annotations

import numpy as np

from .errors import check_reals, class_index
from .keypoints import IsolatedSample
from .model import ModelWeights, backward, forward_probs, soft_cross_entropy, upcast
from .seeding import derive_rng


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1e-8); 0 when both values vanish."""
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def gradient_check(
    weights: ModelWeights,
    sample: IsolatedSample,
    epsilon: float = 1e-4,
    max_coords: int | None = None,
    seed: int = 0,
    target: np.ndarray | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients,
    NaN when any coordinate's error is NaN (as for NaN weights).

    Sweeps every parameter coordinate, or a seeded subsample of at least
    200 coordinates when max_coords caps the sweep. Both gradients are taken
    in float64 on a private upcast() copy of the weights, whatever their
    stored dtype. The loss is the one
    backward differentiates: against the one-hot label, or against
    `target` when one is given.
    """
    check_reals("> 0", True, epsilon=epsilon)
    if target is None:
        target = np.eye(weights.config.classes)[class_index(sample.label, "sample", weights.config.classes)]
    probe = upcast(weights)
    grads, _ = backward(sample, probe, target)

    size, take = probe.flat.size, max(200, max_coords or 0)
    coords = range(size)
    if max_coords is not None and take < size:
        coords = sorted(derive_rng(seed, "gradient-check").choice(size, size=take, replace=False))

    def loss_at() -> float:
        return soft_cross_entropy(forward_probs(probe, sample.frames), target)

    errors = []
    for i in coords:
        original = probe.flat[i]
        probe.flat[i] = original + epsilon
        plus = loss_at()
        probe.flat[i] = original - epsilon
        minus = loss_at()
        probe.flat[i] = original
        fd = (plus - minus) / (2.0 * epsilon)
        errors.append(relative_error(float(grads.flat[i]), fd))
    return float(np.max(errors))  # unlike max(), np.max keeps a NaN, so NaN weights fail the check
