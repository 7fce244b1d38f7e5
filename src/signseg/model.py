"""Transformer encoder classifier over fixed-length feature windows, and
every kernel of its forward and backward passes.

Forward pipeline: affine embedding of the per-frame features plus additive
sinusoidal position codes, a stack of post-norm encoder layers (multi-head
scaled dot-product self-attention, then a two-layer ReLU feed-forward
block, each wrapped in residual + layer norm), and one fully connected
softmax head over the concatenation of all frame features.

The pass runs over a batch of B windows (B, window, input_dim); one window
is a batch of one, also in the backward pass. Row-wise products run once
over all B * window rows, attention per window and head, and the head as
one matrix-vector product per window. Row reductions are BLAS products
with a ones vector, also taken per window: a layer norm's means are one
(B, window, d) @ (d, 1) product, since a single (B * window, d) @ (d, 1)
product rounds a row differently for different B. Attention has one
layout: q, k, v and concat are (B * window, heads * d_k), so a projection
is one product and a head's d_k columns are a view (_heads). Only the
attention matrix is per head, key-major, k @ q^T of shape (B, heads, keys,
queries), so the softmax's max runs down axis -2, an elementwise pass over
rows, and its sum is ones(1, window) @ a, one product per window and head.
So a window's probabilities are bit for bit the same in any batch.
forward_probs and backward take any number of windows and run them
FORWARD_CHUNK at a time, converting a chunk to the weights' dtype as
they take it (_chunks).

Each stage's backward kernel sits after its forward one: _layer_norm_bwd,
_mha_bwd, _ff_bwd and _layer_bwd. _backward_chunk runs one chunk forward
with every layer's activations kept, then back through the head, one
_layer_bwd per layer and the embedding, adding the gradients into a
ModelWeights and returning the soft_cross_entropy loss; gradients.backward
checks the samples and targets and hands it one chunk at a time. So this
module owns the activation layout and every write over it.

Each layer writes its activations into the arrays of a Workspace, the
weights' own (ModelWeights.workspace) when it is set, else one made for
the call (built weights have none). _backward_chunk keeps one set per
layer, most of its scratch written over activations read for the last
time; forward_probs writes every layer over layer 0's. train() sets the
field for its run, so every backward call and both validation passes
reuse a FORWARD_CHUNK's activations and one layer's scratch, allocated by
the first step (a short chunk as leading-axis views).

Parameters live in one flat buffer, float32 at rest (the precision of the
weights file), with a named view per parameter. The pass computes in the
dtype of the activations it is handed: float32 frames on float32 weights
run in float32, and float64 frames make numpy promote every product to
float64, bit for bit as if the weights were cast first. Only the head's
logits are cast to float64 before the softmax. forward_probs and the
backward pass compute in the weights' dtype, float32 as stored (half the
bytes per elementwise pass) and float64 after upcast(); encoder_forward
always computes in float64. gradient_check differentiates upcast() weights,
so analytic gradients agree with central finite differences to tight
tolerances.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeError, check_counts, check_rules, rule, shown
from .seeding import derive_rng

LN_EPS = 1e-5
PE_BASE = 10000.0
PROB_CLAMP = 1e-12
# Windows per pass of forward_probs and backward, which chunk any batch.
# Chunks of 8 decoded 1.4x as fast as one window per pass in float64
# (BENCH_batched_decode.json). In float32, on one OpenBLAS thread, three sweeps
# of 4 to 32 ranked the sizes differently each time, and none beat 8 in every
# sweep at both the gate's shape and the 12-layer shape recordings_wide decodes.
FORWARD_CHUNK = 8


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; immutable and validated on creation."""

    layers: int = rule(bound=">= 0")
    heads: int = rule(bound=">= 1")
    d_model: int = rule(bound=">= 1")
    d_ff: int = rule(bound=">= 1")
    window: int = rule(bound=">= 1")
    input_dim: int = rule(bound=">= 1")
    classes: int = rule(bound=">= 1")

    def __post_init__(self):
        check_rules(self)
        if self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be even for sinusoidal position codes, got {shown(self.d_model)}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {shown(self.d_model)} is not divisible by heads {shown(self.heads)}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads


def _param(shape: Callable[[ModelConfig], tuple[int, ...]]):
    """A parameter field, a view of shape `shape(config)` into the flat buffer.

    Field order is the canonical parameter order, which is also the
    buffer and weights-file layout. A field's canonical name reads its
    first "_" as "." (ff_w1 -> ff.w1, embed_b -> embed.b).
    """
    return field(init=False, repr=False, metadata={"shape": shape})


@dataclass
class LayerWeights:
    """One encoder layer; attention projections carry no biases."""

    wq: np.ndarray = _param(lambda c: (c.heads, c.d_model, c.d_k))
    wk: np.ndarray = _param(lambda c: (c.heads, c.d_model, c.d_k))
    wv: np.ndarray = _param(lambda c: (c.heads, c.d_model, c.d_k))
    wo: np.ndarray = _param(lambda c: (c.d_model, c.d_model))
    ff_w1: np.ndarray = _param(lambda c: (c.d_model, c.d_ff))
    ff_b1: np.ndarray = _param(lambda c: (c.d_ff,))
    ff_w2: np.ndarray = _param(lambda c: (c.d_ff, c.d_model))
    ff_b2: np.ndarray = _param(lambda c: (c.d_model,))
    ln1_g: np.ndarray = _param(lambda c: (c.d_model,))
    ln1_b: np.ndarray = _param(lambda c: (c.d_model,))
    ln2_g: np.ndarray = _param(lambda c: (c.d_model,))
    ln2_b: np.ndarray = _param(lambda c: (c.d_model,))


@dataclass
class ModelWeights:
    """All parameters in one 1-D buffer `flat`, plus the config that shaped
    them.

    Every parameter field (and each layer's, in `layers`) is a view into
    `flat` at its canonical offset, so a write through a view is a write
    to the buffer. Each layer's parameters sit at the position of
    `layers` in the canonical order. `workspace`, None wherever weights
    are built, neither shown nor compared, is the Workspace forward_probs
    and backward run in once a caller sets it (as train() does for its
    run), each call making its own while it is None.
    """

    config: ModelConfig
    flat: np.ndarray
    embed_w: np.ndarray = _param(lambda c: (c.input_dim, c.d_model))
    embed_b: np.ndarray = _param(lambda c: (c.d_model,))
    layers: list[LayerWeights] = field(init=False, repr=False)
    head_w: np.ndarray = _param(lambda c: (c.window * c.d_model, c.classes))
    head_b: np.ndarray = _param(lambda c: (c.classes,))
    workspace: Workspace | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        size = param_count(self.config)
        if self.flat.shape != (size,):
            raise ShapeError(f"parameter buffer has shape {self.flat.shape}, expected ({size},)")
        self.layers = [LayerWeights() for _ in range(self.config.layers)]
        for _, i, attr, shape, offset in _layout(self.config):
            view = self.flat[offset : offset + math.prod(shape)].reshape(shape)
            setattr(self if i is None else self.layers[i], attr, view)


def _shapes(cls, config: ModelConfig):
    """(attribute, shape) of each parameter field of `cls`, in field order."""
    return [(f.name, f.metadata["shape"](config)) for f in fields(cls) if "shape" in f.metadata]


def _canonical(attr: str) -> str:
    return attr.replace("_", ".", 1)


def param_count(config: ModelConfig) -> int:
    """Number of scalar parameters, in time independent of the layer count."""
    per_layer = sum(math.prod(shape) for _, shape in _shapes(LayerWeights, config))
    return config.layers * per_layer + sum(math.prod(shape) for _, shape in _shapes(ModelWeights, config))


@functools.lru_cache(maxsize=32)
def _layout(config: ModelConfig) -> tuple[tuple[str, int | None, str, tuple[int, ...], int], ...]:
    """(canonical name, layer index or None, attribute, shape, offset into
    the flat buffer) per parameter."""
    layer = _shapes(LayerWeights, config)
    out = []
    for f in fields(ModelWeights):
        if f.name == "layers":
            out += [(f"layers.{i}.{_canonical(a)}", i, a, s) for i in range(config.layers) for a, s in layer]
        elif "shape" in f.metadata:
            out.append((_canonical(f.name), None, f.name, f.metadata["shape"](config)))
    offsets = itertools.accumulate((math.prod(shape) for *_, shape in out), initial=0)
    return tuple((*entry, offset) for entry, offset in zip(out, offsets))


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter order and shapes; also the weights-file layout."""
    return {name: shape for name, _, _, shape, _ in _layout(config)}


def weights_to_dict(weights: ModelWeights) -> dict[str, np.ndarray]:
    """{canonical name: view} in canonical order (no copies)."""
    return {
        name: getattr(weights if i is None else weights.layers[i], attr)
        for name, i, attr, _, _ in _layout(weights.config)
    }


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Glorot-uniform matrices, zero biases, unit layer-norm gains.

    Arrays with two or more axes draw from U(-b, b) with
    b = sqrt(6 / (fan_in + fan_out)), the fans being the last two axes;
    `*.g` gains are ones and other vectors zeros. The draw order follows
    the canonical parameter order, so the full weight set is a pure
    function of (config, seed). The buffer is float32, the storage
    precision.
    """
    rng = derive_rng(seed, "init")
    weights = ModelWeights(config, np.empty(param_count(config), dtype=np.float32))
    for name, arr in weights_to_dict(weights).items():
        if arr.ndim >= 2:
            bound = math.sqrt(6.0 / (arr.shape[-2] + arr.shape[-1]))
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
        else:
            arr[...] = 1.0 if name.endswith(".g") else 0.0
    return weights


def upcast(weights: ModelWeights) -> ModelWeights:
    """The same weights in a float64 buffer of their own.

    The one way to choose float64 for a whole model: forward_probs and
    backward then compute in float64. float32 to float64 is exact, so the
    wide weights hold the same values; only the arithmetic widens.
    """
    return ModelWeights(weights.config, weights.flat.astype(np.float64))


def _softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along `axis`, written over x, an array the caller owns."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis`."""
    return _softmax_(np.array(x, dtype=np.float64), axis)


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray) -> float:
    """-sum t ln p against a target distribution t, with p clamped below at
    1e-12 before the log; for rows (n, classes), summed over the rows."""
    return float(-(target * np.log(np.maximum(probs, PROB_CLAMP))).sum())


def _sinusoids(pos: np.ndarray, d_model: int) -> np.ndarray:
    """Position codes of the positions `pos`, shape (len(pos), d_model)."""
    k = np.arange(0, d_model, 2, dtype=np.float64)
    angle = pos[:, None] / PE_BASE ** (k / d_model)
    out = np.empty((pos.shape[0], d_model), dtype=np.float64)
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out


@functools.lru_cache(maxsize=16)
def _position_codes(window: int, d_model: int, dtype: np.dtype) -> np.ndarray:
    """Read-only codes in `dtype`, rounded from the float64 ones."""
    codes = _sinusoids(np.arange(window, dtype=np.float64), d_model).astype(dtype)
    codes.setflags(write=False)
    return codes


def attention_weights(q: np.ndarray, k: np.ndarray, d_k: int) -> np.ndarray:
    """Row-stochastic attention matrix softmax(q k^T / sqrt(d_k)), the
    reference for the key-major kernel in _mha_fwd."""
    check_counts(1, d_k=d_k)
    q, k = np.asarray(q, dtype=np.float64), np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"query/key feature dims differ: {q.shape} vs {k.shape}")
    return _softmax_(q @ k.T / math.sqrt(d_k))


@functools.lru_cache(maxsize=32)
def _ones(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """A read-only matrix of ones: x @ _ones((n, 1)) sums each row of x and
    _ones((1, n)) @ x each column, as BLAS matrix-vector products."""
    ones = np.ones(shape, dtype)
    ones.setflags(write=False)
    return ones


def _row_mean(x, window):
    """Row means (B * window, 1) of x (B * window, d), one matrix-vector
    product per window: a single (B * window, d) @ (d, 1) product rounds a
    row differently for different B."""
    d = x.shape[-1]
    mean = x.reshape(-1, window, d) @ _ones((d, 1), x.dtype)
    mean /= d
    return mean.reshape(-1, 1)


def _column_sum(x):
    """x.sum(axis=0) as one BLAS vector-matrix product, two to four times
    as fast as numpy's reduction on 400 rows of 64 to 512 columns."""
    return (_ones((1, len(x)), x.dtype) @ x)[0]


def _add_product(g, a, b, ws: Workspace) -> None:
    """g += a @ b read in g's shape, the product taken in a buffer shared by all gradients of that shape."""
    g += np.matmul(a, b, out=ws(("grad", g.shape), (len(a), b.shape[-1]), a.dtype)).reshape(g.shape)


def _layer_norm_fwd(x, gain, bias, xhat, inv_std, window):
    """Layer norm of x's rows (B * window, d), written over x; xhat and
    inv_std are kept."""
    x -= _row_mean(x, window)
    np.add(_row_mean(np.square(x, out=xhat), window), LN_EPS, out=inv_std)
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    np.multiply(x, inv_std, out=xhat)
    np.multiply(gain, xhat, out=x)
    return np.add(x, bias, out=x)


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


def _heads(x, heads: int, window: int):
    """Each head's view (B, heads, window, d_k) of x (B * window, heads * d_k)."""
    return x.reshape(-1, window, heads, x.shape[-1] // heads).transpose(0, 2, 1, 3)


def _projection(w):
    """A (heads, d_model, d_k) projection weight as one (d_model, heads * d_k) matrix."""
    return w.transpose(1, 0, 2).reshape(w.shape[1], -1)


def _mha_fwd(x, layer, c):
    """Attention of x (B * window, d_model) into c["y1"], the rest kept in c:
    q scaled by 1 / sqrt(d_k) and the key-major attention matrix a."""
    a = c["a"]
    heads, window = a.shape[1], a.shape[-1]
    for w, name in ((layer.wq, "q"), (layer.wk, "k"), (layer.wv, "v")):
        np.matmul(x, _projection(w), out=c[name])
    q, k, v, concat = (_heads(c[name], heads, window) for name in ("q", "k", "v", "concat"))
    q *= 1.0 / math.sqrt(q.shape[-1])  # q is window * d_k numbers, the scores window * window
    # key-major scores a[..., key, query], so the softmax runs down axis -2:
    # its max is an elementwise pass over rows, its sum one matrix-vector
    # product per window and head
    np.matmul(k, q.transpose(0, 1, 3, 2), out=a)
    a -= a.max(axis=-2, keepdims=True)
    np.exp(a, out=a)
    a /= _ones((1, window), a.dtype) @ a
    np.matmul(a.transpose(0, 1, 3, 2), v, out=concat)
    return np.matmul(c["concat"], layer.wo, out=c["y1"])


def _mha_bwd(dy, x_in, layer, g, c, ws):
    """Adds the gradients of attention against dy, the gradient at its
    output, into g, and the gradient at its input x_in into dy, which is
    returned: the residual around the block is folded in. Scratch goes over
    c's activations: dv over v, dq over concat, dk over k, then c["out"]."""
    a = c["a"]
    heads, window = a.shape[1], a.shape[-1]
    _add_product(g.wo, c["concat"].T, dy, ws)
    d_concat = np.matmul(dy, layer.wo.T, out=c["concat"])
    # a is key-major, a[..., key, query], and q was scaled by 1 / sqrt(d_k)
    q, k, v, d_head = (_heads(x, heads, window) for x in (c["q"], c["k"], c["v"], d_concat))
    da = np.matmul(v, d_head.transpose(0, 1, 3, 2), out=ws("da", a.shape, a.dtype))
    np.matmul(a, d_head, out=v)  # dv over v
    # the softmax jacobian down each query's column of keys
    da -= _ones((1, window), a.dtype) @ np.multiply(da, a, out=ws("da*a", a.shape, a.dtype))
    ds = np.multiply(a, da, out=a)
    np.matmul(ds.transpose(0, 1, 3, 2), k, out=d_head)  # dq over concat
    d_concat *= 1.0 / math.sqrt(q.shape[-1])
    np.matmul(ds, q, out=k)  # dk over k
    x_in_t = x_in.T
    for d, w, gw in ((d_concat, layer.wq, g.wq), (c["k"], layer.wk, g.wk), (c["v"], layer.wv, g.wv)):
        # one (d_model, B * window) @ (B * window, heads * d_k) product, then every head's input gradient
        _add_product(gw.transpose(1, 0, 2), x_in_t, d, ws)
        dy += np.matmul(d, _projection(w).T, out=c["out"])
    return dy


def _ff_fwd(x, layer, act, out):
    """The feed-forward block of x into out, its ReLU output into act."""
    np.matmul(x, layer.ff_w1, out=act)
    act += layer.ff_b1
    np.maximum(act, 0.0, out=act)
    return np.add(np.matmul(act, layer.ff_w2, out=out), layer.ff_b2, out=out)


def _ff_bwd(dy, x, layer, g, act, mask, ws):
    """The feed-forward block's gradient at its input x, written over x,
    against dy at its output; the parameters' gradients are added into g,
    and the gradient before the ReLU goes over act, mask being scratch."""
    _add_product(g.ff_w2, act.T, dy, ws)
    g.ff_b2 += _column_sum(dy)
    # ReLU passed exactly the units its output kept above zero
    np.greater(act, 0.0, out=mask)
    d_pre = np.multiply(np.matmul(dy, layer.ff_w2.T, out=act), mask, out=act)
    _add_product(g.ff_w1, x.T, d_pre, ws)
    g.ff_b1 += _column_sum(d_pre)
    return np.matmul(d_pre, layer.ff_w1.T, out=x)


class Workspace(dict):
    """Arrays by name, kept from one call to the next: ws(key, shape, dtype)
    is the leading shape[0] rows of ws[key], allocated again only for
    another dtype or trailing shape or more rows."""

    def __call__(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self.get(key)
        if buf is None or buf.dtype != dtype or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
            buf = self[key] = np.empty(shape, dtype)
        return buf[: shape[0]]

    def layer(self, i: int, cfg: ModelConfig, rows: int, dtype) -> dict[str, np.ndarray]:
        """Layer i's arrays for `rows` frames, under (name, i). Its input is
        layer i - 1's "out", the embedding's output ("out", -1) in backward."""
        rd = (rows, cfg.d_model)
        shapes = dict(q=rd, k=rd, v=rd, a=(rows // cfg.window, cfg.heads, cfg.window, cfg.window), concat=rd,
                      y1=rd, xhat1=rd, inv1=(rows, 1), act=(rows, cfg.d_ff), xhat2=rd, inv2=(rows, 1), out=rd)
        return {name: self((name, i), shape, dtype) for name, shape in shapes.items()}


def _encoder_internals(frames, weights: ModelWeights, ws: Workspace, use_positions: bool = True, keep: bool = False):
    """Forward pass of windows (B, window, input_dim) through embedding and
    all layers into ws, in the dtype numpy promotes the frames and weights
    to. Returns features (B, window, d_model). With keep each layer's
    activations stay in ws for the backward pass, else all go to layer 0's."""
    cfg = weights.config
    if frames.shape[1:] != (cfg.window, cfg.input_dim):
        raise ShapeError(f"frames have shape {frames.shape[1:]}, expected ({cfg.window}, {cfg.input_dim})")
    rows, dtype = frames.shape[0] * cfg.window, np.result_type(frames, weights.flat)
    x = ws(("out", -1 if keep else 0), (rows, cfg.d_model), dtype)
    np.matmul(frames.reshape(-1, cfg.input_dim), weights.embed_w, out=x)
    x += weights.embed_b
    if use_positions:
        windows = x.reshape(-1, cfg.window, cfg.d_model)  # a view: x is contiguous
        windows += _position_codes(cfg.window, cfg.d_model, x.dtype)
    for i, layer in enumerate(weights.layers):
        x = _layer_fwd(x, layer, ws.layer(i if keep else 0, cfg, rows, dtype))
    return x.reshape(-1, cfg.window, cfg.d_model)


def _layer_fwd(x_in, layer, c):
    """One encoder layer of x_in, which may be c["out"], into c["out"], its activations into c."""
    window = c["a"].shape[-1]
    y1 = _mha_fwd(x_in, layer, c)
    y1 += x_in  # x_in's last read, so c["out"] may be x_in
    _layer_norm_fwd(y1, layer.ln1_g, layer.ln1_b, c["xhat1"], c["inv1"], window)
    out = _ff_fwd(y1, layer, c["act"], c["out"])
    out += y1
    return _layer_norm_fwd(out, layer.ln2_g, layer.ln2_b, c["xhat2"], c["inv2"], window)


def _layer_bwd(dy, x_in, layer, g, c, mask, ws):
    """One encoder layer's gradient at its input x_in, written over dy, the
    gradient at its output; the parameters' gradients are added into g,
    scratch goes over the activations _layer_fwd kept in c, and mask is
    the ReLU's scratch."""
    window = c["a"].shape[-1]
    # c["out"] is scratch: the head or the layer above has read it for the last time
    dy = _layer_norm_bwd(dy, c["xhat2"], c["inv2"], layer.ln2_g, g.ln2_g, g.ln2_b, c["out"], window)
    dy += _ff_bwd(dy, c["y1"], layer, g, c["act"], mask, ws)
    dy = _layer_norm_bwd(dy, c["xhat1"], c["inv1"], layer.ln1_g, g.ln1_g, g.ln1_b, c["out"], window)
    return _mha_bwd(dy, x_in, layer, g, c, ws)


def encoder_forward(frames: np.ndarray, weights: ModelWeights, use_positions: bool = True) -> np.ndarray:
    """Per-frame features after the full encoder stack, (window, d_model),
    computed in float64.

    With layers == 0 this is just the embedded frames (plus position codes
    unless use_positions is False).
    """
    return _encoder_internals(np.asarray(frames, dtype=np.float64)[None], weights, Workspace(), use_positions)[0]


def _classify_internals(features, weights: ModelWeights):
    """float64 class probabilities (B, classes) of features
    (B, window, d_model), and the flattened features (B, window * d_model)."""
    cfg = weights.config
    flat = features.reshape(-1, 1, cfg.window * cfg.d_model)
    # one matrix-vector product per window: a single matrix product over
    # all windows would round differently from the per-window one
    logits = (flat @ weights.head_w).reshape(-1, cfg.classes)
    logits += weights.head_b
    # the softmax in float64 in any case, so rows sum to 1 within 1e-9
    return _softmax_(logits.astype(np.float64, copy=False)), flat.reshape(-1, cfg.window * cfg.d_model)


def _chunks(frames, weights: ModelWeights):
    """Windows `frames`, a (B, window, input_dim) array or a sequence of
    (window, input_dim) windows, as (start, chunk) pairs of FORWARD_CHUNK
    windows, each chunk converted to the weights' dtype only when it is
    taken. Every window's shape is checked before the first chunk."""
    shape = (weights.config.window, weights.config.input_dim)
    shapes = [frames.shape[1:]] if isinstance(frames, np.ndarray) else map(np.shape, frames)
    bad = next((s for s in shapes if s != shape), None)
    if bad is not None:  # stacking mixed shapes would fail with numpy's own error
        raise ShapeError(f"frames have shape {bad}, expected {shape}")
    dtype = weights.flat.dtype
    return ((i, np.asarray(frames[i : i + FORWARD_CHUNK], dtype)) for i in range(0, len(frames), FORWARD_CHUNK))


def forward_probs(weights: ModelWeights, frames) -> np.ndarray:
    """Full forward pass: one window's frames, a (window, input_dim) array,
    to class probabilities (classes,), or a batch of any size, a
    (B, window, input_dim) array or view or a sequence of windows, to
    (B, classes), FORWARD_CHUNK windows per pass. Computes in the dtype of
    the weights' buffer, float32 as stored or float64 after upcast(); the
    probabilities are float64 either way, and bit for bit the same for a
    window alone or in a batch of any size.

    A chunk's activations go into weights.workspace when it is set, else
    into a Workspace made for the call, every layer's over layer 0's
    arrays: the pass holds one layer's for one chunk at any depth. The
    result is the same bit for bit, and nothing returned lives in the
    workspace."""
    one = isinstance(frames, np.ndarray) and frames.ndim == 2
    batch = frames[None] if one else frames
    probs = np.empty((len(batch), weights.config.classes))
    ws = Workspace() if weights.workspace is None else weights.workspace
    for i, chunk in _chunks(batch, weights):
        features = _encoder_internals(chunk, weights, ws)
        probs[i : i + len(chunk)] = _classify_internals(features, weights)[0]
    return probs[0] if one else probs


def _backward_chunk(frames, target, weights: ModelWeights, add_to: ModelWeights, ws: Workspace) -> float:
    """Adds the gradients of one chunk of frames (B, window, input_dim)
    against target rows (B, classes) into add_to; returns the chunk's loss.
    The forward keeps every layer's activations in ws, and the pass runs
    back through the head, each layer (_layer_bwd) and the embedding."""
    cfg = weights.config
    dtype, rows = frames.dtype, frames.shape[0] * cfg.window
    probs, flat = _classify_internals(_encoder_internals(frames, weights, ws, keep=True), weights)
    loss = soft_cross_entropy(probs, target)

    # each gradient is added into its view of add_to, never stored alone.
    # Softmax + cross-entropy collapse to p - target at the logits
    dlogits = (probs - target).astype(dtype, copy=False)
    _add_product(add_to.head_w, flat.T, dlogits, ws)
    add_to.head_b += _column_sum(dlogits)
    dx = ws("dx", (rows, cfg.d_model), dtype)  # (B * window, d_model)
    np.matmul(dlogits, weights.head_w.T, out=dx.reshape(-1, cfg.window * cfg.d_model))
    mask = ws("mask", (rows, cfg.d_ff), np.bool_)
    for i in reversed(range(cfg.layers)):
        x_in = ws(("out", i - 1), dx.shape, dtype)
        dx = _layer_bwd(dx, x_in, weights.layers[i], add_to.layers[i], ws.layer(i, cfg, rows, dtype), mask, ws)

    _add_product(add_to.embed_w, frames.reshape(rows, cfg.input_dim).T, dx, ws)
    add_to.embed_b += _column_sum(dx)
    return loss
