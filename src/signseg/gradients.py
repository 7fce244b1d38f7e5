"""Analytic gradients of the encoder classifier over samples, and a
finite-difference checker to verify them coordinate by coordinate.

backward() checks every sample's shape and target and hands the batch,
one chunk at a time, to model._backward_chunk; model.py holds every
forward and backward kernel and the activations they share, and this
module reads none of them."""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ShapeError, check_reals, class_index
from .keypoints import IsolatedSample
from .model import (
    ModelWeights,
    Workspace,
    _backward_chunk,
    _chunks,
    forward_probs,
    param_count,
    soft_cross_entropy,
    upcast,
)
from .seeding import derive_rng


def _resolve_target(sample: IsolatedSample, target, classes: int, what: str) -> np.ndarray:
    # the one-hot label by default; with it, -sum t ln p adds exact zeros to
    # -ln p[label] and p - t subtracts 0.0 off the label, so both match the
    # plain cross-entropy bit for bit
    if target is None:
        return np.eye(classes)[class_index(sample.label, what, classes)]
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (classes,):
        raise ShapeError(f"target has shape {target.shape}, expected ({classes},)")
    if not (np.all(target >= 0.0) and abs(float(target.sum()) - 1.0) <= 1e-9):
        raise ValueError("target must be a probability distribution (non-negative, summing to 1)")
    return target


def backward(
    samples: IsolatedSample | Sequence[IsolatedSample],
    weights: ModelWeights,
    targets=None,
    add_to: ModelWeights | None = None,
) -> tuple[ModelWeights, float]:
    """Loss and exact gradients of the cross-entropy, summed over a batch.

    `samples` is one IsolatedSample, with `targets` its target, or a
    sequence of them, with `targets` None or one target per sample. A
    target of None is the one-hot label, giving -ln p[label] (a label that
    is not an integer class index raises ValueError naming the sample); a
    target distribution t over the classes gives -sum t ln p instead. The pass
    checks every sample's shape and target, then runs FORWARD_CHUNK samples
    at a time in the dtype of the weights' buffer, like forward_probs:
    float32 as stored, float64 after upcast().

    Returns (gradients, summed loss); the gradients are a ModelWeights over
    a float64 buffer in the parameters' layout, each view holding the
    gradient of the parameter of the same name. Given `add_to`, a float64
    ModelWeights of the same config, each chunk's gradients are added in
    turn into its views and `add_to` is returned; otherwise into a fresh
    zeroed buffer. A chunk's activations and scratch go into
    weights.workspace when it is set, else into a Workspace made for the
    call and not kept. The result is the same bit for bit, and nothing
    returned lives in either.
    """
    cfg = weights.config
    if isinstance(samples, IsolatedSample):
        samples, targets = [samples], [targets]
    elif targets is None:
        targets = [None] * len(samples)
    if not samples or len(targets) != len(samples):
        raise ShapeError(f"need one target per sample, got {len(targets)} for {len(samples)} samples")
    pairs = enumerate(zip(samples, targets))
    target = np.stack([_resolve_target(s, t, cfg.classes, f"sample {i}") for i, (s, t) in pairs])
    if add_to is None:
        add_to = ModelWeights(cfg, np.zeros(param_count(cfg)))
    elif add_to.config != cfg or add_to.flat.dtype != np.float64:
        raise ShapeError("add_to must be a float64 ModelWeights of the weights' config")
    ws = Workspace() if weights.workspace is None else weights.workspace
    loss = 0.0
    for i, frames in _chunks([s.frames for s in samples], weights):
        loss += _backward_chunk(frames, target[i : i + len(frames)], weights, add_to, ws)
    return add_to, loss


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
    target = _resolve_target(sample, target, weights.config.classes, "sample")
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
