"""Analytic gradients for the encoder classifier, and a finite-difference
checker to verify them coordinate by coordinate."""
from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .keypoints import IsolatedSample
from .model import (
    PROB_CLAMP,
    ModelWeights,
    _classify_internals,
    _encoder_internals,
    _f64,
    _row_mean,
    forward_probs,
    param_count,
    upcast,
)
from .seeding import derive_rng


def _layer_norm_bwd(dy, cache, dgain, dbias):
    """The input's gradient; the gain's and bias's are added into dgain and dbias."""
    xhat, inv_std, gain = cache
    dgain += (dy * xhat).sum(axis=0)
    dbias += dy.sum(axis=0)
    dxhat = dy * gain
    return inv_std * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))


def _check_target(target, classes: int) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (classes,):
        raise ShapeError(f"target has shape {target.shape}, expected ({classes},)")
    if not (np.all(target >= 0.0) and abs(float(target.sum()) - 1.0) <= 1e-9):
        raise ValueError("target must be a probability distribution (non-negative, summing to 1)")
    return target


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray) -> float:
    """-sum t ln p against a target distribution t, with p clamped below at
    1e-12 before the log."""
    return float(-(target * np.log(np.maximum(probs, PROB_CLAMP))).sum())


def _resolve_target(sample: IsolatedSample, target, classes: int) -> np.ndarray:
    # the one-hot label by default; with it, -sum t ln p adds exact zeros to
    # -ln p[label] and p - t subtracts 0.0 off the label, so both match the
    # plain cross-entropy bit for bit
    if target is None:
        target = np.zeros(classes)
        target[sample.label] = 1.0
        return target
    return _check_target(target, classes)


def backward(
    sample: IsolatedSample,
    weights: ModelWeights,
    target: np.ndarray | None = None,
    add_to: ModelWeights | None = None,
) -> tuple[ModelWeights, float]:
    """Loss and exact gradients of the cross-entropy for one sample.

    The target is the one-hot label by default, giving -ln p[label]; a
    target distribution t over the classes gives -sum t ln p instead.
    Returns (gradients, loss); the gradients are a ModelWeights over a
    float64 buffer in the parameters' layout, each view holding the
    gradient of the parameter of the same name. Given `add_to`, a float64
    ModelWeights of the same config, the gradients are added into its
    views and `add_to` is returned; otherwise into a fresh zeroed buffer.
    """
    cfg = weights.config
    target = _resolve_target(sample, target, cfg.classes)
    if add_to is None:
        add_to = ModelWeights(cfg, np.zeros(param_count(cfg)))
    elif add_to.config != cfg or add_to.flat.dtype != np.float64:
        raise ShapeError("add_to must be a float64 ModelWeights of the weights' config")
    caches: list[dict] = []
    # the forward kernel in float64 on a batch of one window; every product
    # with a float32 weight promotes it, exactly as an explicit cast would
    frames64 = _f64(sample.frames)
    features = _encoder_internals(frames64[None], weights, caches=caches)
    probs, flat = (a[0] for a in _classify_internals(features, weights))
    loss = soft_cross_entropy(probs, target)

    # each gradient is added into its view of add_to, never stored alone.
    # Softmax + cross-entropy collapse to p - target at the logits
    dlogits = probs - target
    add_to.head_w += np.outer(flat, dlogits)
    add_to.head_b += dlogits
    dx = (weights.head_w @ dlogits).reshape(cfg.window, cfg.d_model)

    sqrt_dk = math.sqrt(cfg.d_k)
    for i in reversed(range(cfg.layers)):
        layer = weights.layers[i]
        c = caches[i]
        g = add_to.layers[i]

        dr2 = _layer_norm_bwd(dx, c["ln2"], g.ln2_g, g.ln2_b)
        d_act = dr2 @ layer.ff_w2.T
        g.ff_w2 += c["ff_act"].T @ dr2
        g.ff_b2 += dr2.sum(axis=0)
        # ReLU passed exactly the units its output kept above zero
        d_pre = d_act * (c["ff_act"] > 0.0)
        g.ff_w1 += c["y1"].T @ d_pre
        g.ff_b1 += d_pre.sum(axis=0)
        dy1 = dr2 + d_pre @ layer.ff_w1.T

        dr1 = _layer_norm_bwd(dy1, c["ln1"], g.ln1_g, g.ln1_b)
        dx = dr1.copy()

        g.wo += c["concat"].T @ dr1
        d_concat = dr1 @ layer.wo.T

        # all heads at once, (heads, window, d_k)
        q, k, v, a = (t[0] for t in c["qkva"])
        d_head = d_concat.reshape(cfg.window, cfg.heads, cfg.d_k).transpose(1, 0, 2)
        da = d_head @ v.transpose(0, 2, 1)
        dv = a.transpose(0, 2, 1) @ d_head
        # row-wise softmax jacobian
        ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
        dq = ds @ k / sqrt_dk
        dk_ = ds.transpose(0, 2, 1) @ q / sqrt_dk
        x_in_t = c["x_in"].T
        g.wq += x_in_t @ dq
        g.wk += x_in_t @ dk_
        g.wv += x_in_t @ dv
        d_in = (
            dq @ layer.wq.transpose(0, 2, 1)
            + dk_ @ layer.wk.transpose(0, 2, 1)
            + dv @ layer.wv.transpose(0, 2, 1)
        )
        for h in range(cfg.heads):
            dx += d_in[h]

    add_to.embed_w += frames64.T @ dx
    add_to.embed_b += dx.sum(axis=0)
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
    """Max relative error between analytic and central-difference gradients.

    Sweeps every parameter coordinate, or a seeded subsample of at least
    200 coordinates when max_coords caps the sweep. Finite differences are
    taken in float64 on a private copy of the weights. The loss is the one
    backward differentiates: against the one-hot label, or against
    `target` when one is given.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    target = _resolve_target(sample, target, weights.config.classes)
    grads, _ = backward(sample, weights, target)
    probe = upcast(weights)

    size = probe.flat.size
    coords = range(size)
    if max_coords is not None and max_coords < size:
        take = max(200, max_coords)
        if take < size:
            coords = sorted(derive_rng(seed, "gradient-check").choice(size, size=take, replace=False))

    def loss_at() -> float:
        return soft_cross_entropy(forward_probs(probe, sample.frames), target)

    worst = 0.0
    for i in coords:
        original = probe.flat[i]
        probe.flat[i] = original + epsilon
        plus = loss_at()
        probe.flat[i] = original - epsilon
        minus = loss_at()
        probe.flat[i] = original
        fd = (plus - minus) / (2.0 * epsilon)
        analytic = float(grads.flat[i])
        worst = max(worst, relative_error(analytic, fd))
    return worst
