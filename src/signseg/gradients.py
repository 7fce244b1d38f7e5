"""Analytic gradients for the encoder classifier, and a finite-difference
checker to verify them coordinate by coordinate."""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import ShapeError
from .keypoints import IsolatedSample
from .model import (
    PROB_CLAMP,
    ModelWeights,
    Workspace,
    _chunks,
    _classify_internals,
    _encoder_internals,
    _heads,
    _ones,
    _projection,
    _row_mean,
    forward_probs,
    param_count,
    upcast,
)
from .seeding import derive_rng


def _layer_norm_bwd(dy, xhat, inv_std, gain, dgain, dbias, tmp, window):
    """The input's gradient, written over dy (and xhat and tmp); dgain and dbias are added to.
    Both row means are the forward's per-window products."""
    dgain += _column_sum(np.multiply(dy, xhat, out=tmp))
    dbias += _column_sum(dy)
    dy *= gain  # the gradient at xhat from here on
    xhat *= _row_mean(np.multiply(dy, xhat, out=tmp), window)
    dy -= _row_mean(dy, window)
    dy -= xhat
    return np.multiply(dy, inv_std, out=dy)


def _column_sum(x):
    """x.sum(axis=0) as one BLAS vector-matrix product, two to four times
    as fast as numpy's reduction on 400 rows of 64 to 512 columns."""
    return (_ones((1, len(x)), x.dtype) @ x)[0]


def _add_product(g, a, b, ws: Workspace) -> None:
    """g += a @ b read in g's shape, the product taken in a buffer shared by all gradients of that shape."""
    g += np.matmul(a, b, out=ws(("grad", g.shape), (len(a), b.shape[-1]), a.dtype)).reshape(g.shape)


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray) -> float:
    """-sum t ln p against a target distribution t, with p clamped below at
    1e-12 before the log; for rows (n, classes), summed over the rows."""
    return float(-(target * np.log(np.maximum(probs, PROB_CLAMP))).sum())


def check_label(label, classes: int, what: str) -> None:
    """Raises ValueError naming `what` unless label is a Python or numpy
    integer, not a bool, in [0, classes): a class index a one-hot row can
    take, where -1 would pick the last class and 1.5 fail inside numpy."""
    if isinstance(label, bool) or not isinstance(label, (int, np.integer)) or not 0 <= label < classes:
        raise ValueError(f"{what} label {label!r} is not a class index in [0, {classes})")


def _resolve_target(sample: IsolatedSample, target, classes: int, what: str) -> np.ndarray:
    # the one-hot label by default; with it, -sum t ln p adds exact zeros to
    # -ln p[label] and p - t subtracts 0.0 off the label, so both match the
    # plain cross-entropy bit for bit
    if target is None:
        check_label(sample.label, classes, what)
        return np.eye(classes)[sample.label]
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
    *,
    scratch: Workspace | None = None,
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
    zeroed buffer. `scratch`, a Workspace the caller keeps across calls,
    holds a chunk's activations and scratch; without one the call makes
    its own. The result is the same bit for bit, and nothing returned
    lives in it.
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
    ws = Workspace() if scratch is None else scratch
    loss = 0.0
    for i, frames in _chunks([s.frames for s in samples], weights):
        loss += _backward_chunk(frames, target[i : i + len(frames)], weights, add_to, ws)
    return add_to, loss


def _backward_chunk(frames, target, weights: ModelWeights, add_to: ModelWeights, ws: Workspace) -> float:
    """Adds the gradients of one chunk of frames (B, window, input_dim)
    against targets (B, classes) into add_to; returns the chunk's loss."""
    cfg = weights.config
    dtype, rows = frames.dtype, frames.shape[0] * cfg.window
    probs, flat = _classify_internals(_encoder_internals(frames, weights, ws=ws), weights)
    loss = soft_cross_entropy(probs, target)

    # each gradient is added into its view of add_to, never stored alone.
    # Softmax + cross-entropy collapse to p - target at the logits
    dlogits = (probs - target).astype(dtype, copy=False)
    _add_product(add_to.head_w, flat.T, dlogits, ws)
    add_to.head_b += _column_sum(dlogits)
    dx = ws("dx", (rows, cfg.d_model), dtype)  # (B * window, d_model)
    np.matmul(dlogits, weights.head_w.T, out=dx.reshape(-1, cfg.window * cfg.d_model))
    mask = ws("mask", (rows, cfg.d_ff), np.bool_)

    # most gradients go over activations their layer has read for the last time
    scale, ones = 1.0 / math.sqrt(cfg.d_k), _ones((1, cfg.window), dtype)
    for i in reversed(range(cfg.layers)):
        layer, g, c = weights.layers[i], add_to.layers[i], ws.layer(i, cfg, rows, dtype)
        tmp = c["out"]  # scratch: the head or the layer above has read it for the last time
        dr2 = _layer_norm_bwd(dx, c["xhat2"], c["inv2"], layer.ln2_g, g.ln2_g, g.ln2_b, tmp, cfg.window)
        _add_product(g.ff_w2, c["act"].T, dr2, ws)
        g.ff_b2 += _column_sum(dr2)
        # ReLU passed exactly the units its output kept above zero
        np.greater(c["act"], 0.0, out=mask)
        d_pre = np.matmul(dr2, layer.ff_w2.T, out=c["act"])
        d_pre *= mask
        _add_product(g.ff_w1, c["y1"].T, d_pre, ws)
        g.ff_b1 += _column_sum(d_pre)
        dr2 += np.matmul(d_pre, layer.ff_w1.T, out=c["y1"])  # dr2 becomes dy1

        dx = _layer_norm_bwd(dr2, c["xhat1"], c["inv1"], layer.ln1_g, g.ln1_g, g.ln1_b, tmp, cfg.window)
        _add_product(g.wo, c["concat"].T, dx, ws)
        d_concat = np.matmul(dx, layer.wo.T, out=c["concat"])

        # each head's view (B, heads, window, d_k) of the row layout; a is
        # key-major, a[..., key, query], and q was scaled by 1 / sqrt(d_k)
        q, k, v, d_head = (_heads(x, cfg.heads, cfg.window) for x in (c["q"], c["k"], c["v"], d_concat))
        a = c["a"]
        da = np.matmul(v, d_head.transpose(0, 1, 3, 2), out=ws("da", a.shape, dtype))
        np.matmul(a, d_head, out=v)  # dv over v
        # the softmax jacobian down each query's column of keys
        da -= ones @ np.multiply(da, a, out=ws("da*a", a.shape, dtype))
        ds = np.multiply(a, da, out=a)
        np.matmul(ds.transpose(0, 1, 3, 2), k, out=d_head)  # dq over concat
        d_concat *= scale
        np.matmul(ds, q, out=k)  # dk over k
        x_in_t = ws(("out", i - 1), dx.shape, dtype).T
        for d, w, gw in ((d_concat, layer.wq, g.wq), (c["k"], layer.wk, g.wk), (c["v"], layer.wv, g.wv)):
            # one (d_model, B * window) @ (B * window, heads * d_k) product, then every head's input gradient
            _add_product(gw.transpose(1, 0, 2), x_in_t, d, ws)
            dx += np.matmul(d, _projection(w).T, out=tmp)

    _add_product(add_to.embed_w, frames.reshape(rows, cfg.input_dim).T, dx, ws)
    add_to.embed_b += _column_sum(dx)
    return loss


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
    200 coordinates when max_coords caps the sweep. Both gradients are taken
    in float64 on a private upcast() copy of the weights, whatever their
    stored dtype. The loss is the one
    backward differentiates: against the one-hot label, or against
    `target` when one is given.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    target = _resolve_target(sample, target, weights.config.classes, "sample")
    probe = upcast(weights)
    grads, _ = backward(sample, probe, target)

    size, take = probe.flat.size, max(200, max_coords or 0)
    coords = range(size)
    if max_coords is not None and take < size:
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
