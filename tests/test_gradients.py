import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from signseg import (
    IsolatedSample,
    ModelConfig,
    ModelWeights,
    ShapeError,
    backward,
    forward_probs,
    gradient_check,
    init_weights,
    relative_error,
)
from signseg.gradients import soft_cross_entropy
from signseg.model import (
    FORWARD_CHUNK,
    LayerWeights,
    Workspace,
    _ff_bwd,
    _ff_fwd,
    _layer_bwd,
    _layer_fwd,
    _layer_norm_bwd,
    _layer_norm_fwd,
    _mha_bwd,
    _mha_fwd,
    param_count,
    param_shapes,
    upcast,
    weights_to_dict,
)
from signseg.seeding import derive_rng, derive_seed
from signseg.training import draw_straddles

GATE_MCFG = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)


def test_gradient_shapes_mirror_parameters(tiny_mcfg, tiny_weights, tiny_sample):
    grads, loss = backward(tiny_sample, tiny_weights)
    shapes = param_shapes(tiny_mcfg)
    named = weights_to_dict(grads)
    assert list(named) == list(shapes)
    for key, g in named.items():
        assert g.shape == shapes[key]
        assert g.dtype == np.float64
    assert np.isfinite(grads.flat).all()
    assert loss > 0.0


def test_backward_deterministic(tiny_weights, tiny_sample):
    a, loss_a = backward(tiny_sample, tiny_weights)
    b, loss_b = backward(tiny_sample, tiny_weights)
    assert loss_a == loss_b
    assert np.array_equal(a.flat, b.flat)


def test_backward_loss_matches_forward(tiny_weights, tiny_sample):
    _, loss = backward(tiny_sample, tiny_weights)
    probs = forward_probs(tiny_weights, tiny_sample.frames)
    target = np.zeros(len(probs))
    target[tiny_sample.label] = 1.0
    np.testing.assert_allclose(loss, soft_cross_entropy(probs, target), rtol=0, atol=1e-12)


def test_adding_into_one_buffer_equals_the_list_then_sum(tiny_mcfg, tiny_weights):
    rng = derive_rng(3, "grad-sum")
    pool = [
        IsolatedSample(rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim)), label % tiny_mcfg.classes)
        for label in range(6)
    ]
    items = [(s, None) for s in pool[:4]] + draw_straddles(pool, 3, rng, tiny_mcfg.classes)
    weights = upcast(tiny_weights)

    results = [backward(s, weights, t) for s, t in items]
    listed = np.zeros(param_count(tiny_mcfg))
    for grads, _ in results:
        listed += grads.flat
    added = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg)))
    losses = []
    for s, t in items:
        out, loss = backward(s, weights, t, add_to=added)
        assert out is added
        losses.append(loss)
    assert added.flat.tobytes() == listed.tobytes()
    assert losses == [loss for _, loss in results]


def test_backward_without_add_to_returns_a_fresh_buffer(tiny_weights, tiny_sample):
    a, _ = backward(tiny_sample, tiny_weights)
    b, _ = backward(tiny_sample, tiny_weights)
    assert a.flat.dtype == np.float64
    assert not np.shares_memory(a.flat, b.flat)
    a.flat[:] = 0.0
    assert np.array_equal(b.flat, backward(tiny_sample, tiny_weights)[0].flat)


def test_add_to_must_be_float64_of_the_same_config(tiny_mcfg, tiny_weights, tiny_sample):
    single = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg), dtype=np.float32))
    other_cfg = ModelConfig(layers=1, heads=2, d_model=8, d_ff=16, window=4, input_dim=6, classes=3)
    other = ModelWeights(other_cfg, np.zeros(param_count(other_cfg)))
    for add_to in (single, other):
        with pytest.raises(ShapeError):
            backward(tiny_sample, tiny_weights, add_to=add_to)
        with pytest.raises(ShapeError):
            backward([tiny_sample, tiny_sample], tiny_weights, add_to=add_to)


def _items(mcfg, count, seed):
    """`count` (sample, target) items: plain samples, then straddling windows."""
    rng = derive_rng(seed, "batch")
    pool = [
        IsolatedSample(rng.normal(size=(mcfg.window, mcfg.input_dim)), label % mcfg.classes)
        for label in range(count)
    ]
    straddles = draw_straddles(pool, count - count // 2, rng, mcfg.classes)
    return [(s, None) for s in pool[: count // 2]] + straddles


def test_a_batch_adds_what_its_items_add_one_by_one(tiny_mcfg, tiny_weights):
    items = _items(tiny_mcfg, 7, 5)
    weights = upcast(tiny_weights)
    one_by_one = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg)))
    losses = [backward(s, weights, t, add_to=one_by_one)[1] for s, t in items]
    samples, targets = zip(*items)
    batched, loss = backward(samples, weights, targets)
    assert np.abs(batched.flat - one_by_one.flat).max() <= 1e-12 * np.abs(one_by_one.flat).max()
    np.testing.assert_allclose(loss, sum(losses), rtol=1e-12)
    # one sample is a batch of one
    alone, alone_loss = backward(samples[-1], weights, targets[-1])
    of_one, of_one_loss = backward(samples[-1:], weights, targets[-1:])
    assert alone.flat.tobytes() == of_one.flat.tobytes() and alone_loss == of_one_loss


def test_float32_batch_agrees_with_float64_at_the_gate_shape():
    mcfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
    weights = init_weights(mcfg, derive_seed(12, "init"))
    samples, targets = zip(*_items(mcfg, FORWARD_CHUNK, 12))
    narrow, narrow_loss = backward(samples, weights, targets)
    wide, wide_loss = backward(samples, upcast(weights), targets)
    assert narrow.flat.dtype == np.float64
    assert np.abs(narrow.flat - wide.flat).max() <= 1e-5 * np.abs(wide.flat).max()
    np.testing.assert_allclose(narrow_loss, wide_loss, rtol=1e-5)


@pytest.mark.parametrize("wide", [False, True], ids=["float32", "upcast"])
def test_a_workspace_changes_no_bit_of_the_result(wide):
    stored = init_weights(GATE_MCFG, derive_seed(13, "init"))
    weights = upcast(stored) if wide else stored
    kept = ModelWeights(GATE_MCFG, weights.flat.copy())
    scratch = kept.workspace = Workspace()
    # a full chunk, a short tail chunk on views of its buffers, then a
    # full chunk of other samples, which must see nothing of the others
    chunks = [_items(GATE_MCFG, FORWARD_CHUNK, 13), _items(GATE_MCFG, 3, 14), _items(GATE_MCFG, FORWARD_CHUNK, 15)]
    returned = []
    for items in chunks:
        samples, targets = zip(*items)
        fresh, fresh_loss = backward(samples, weights, targets)
        reused, reused_loss = backward(samples, kept, targets)
        assert np.array_equal(reused.flat, fresh.flat) and reused_loss == fresh_loss
        returned.append((reused, reused.flat.copy()))
    # later calls wrote over the workspace, so nothing returned lives in it
    for grads, copy in returned:
        assert np.array_equal(grads.flat, copy)
        assert not any(np.shares_memory(grads.flat, buf) for buf in scratch.values())


@pytest.mark.parametrize("kept", [False, True], ids=["fresh", "workspace"])
@pytest.mark.parametrize("wide", [False, True], ids=["float32", "upcast"])
def test_one_call_over_a_batch_adds_its_chunks_in_order(tiny_mcfg, wide, kept):
    stored = init_weights(tiny_mcfg, derive_seed(17, "init"))
    weights = upcast(stored) if wide else stored
    samples, targets = zip(*_items(tiny_mcfg, 2 * FORWARD_CHUNK + 3, 17))
    by_chunk = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg)))
    losses = [
        backward(samples[i : i + FORWARD_CHUNK], weights, targets[i : i + FORWARD_CHUNK], add_to=by_chunk)[1]
        for i in range(0, len(samples), FORWARD_CHUNK)
    ]
    if kept:
        weights = ModelWeights(tiny_mcfg, weights.flat.copy())
        weights.workspace = Workspace()
    whole = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg)))
    _, loss = backward(samples, weights, targets, add_to=whole)
    assert whole.flat.tobytes() == by_chunk.flat.tobytes()
    np.testing.assert_allclose(loss, sum(losses), rtol=1e-15)


def test_a_bad_item_in_the_last_chunk_raises_before_anything_is_added(tiny_mcfg, tiny_weights):
    samples, targets = map(list, zip(*_items(tiny_mcfg, 2 * FORWARD_CHUNK + 3, 18)))
    short = IsolatedSample(samples[-1].frames[1:], samples[-1].label)
    uneven = np.ones(tiny_mcfg.classes)  # sums to more than 1
    for last, target, error in ((short, targets[-1], ShapeError), (samples[-1], uneven, ValueError)):
        grads = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg)))
        with pytest.raises(error):
            backward(samples[:-1] + [last], tiny_weights, targets[:-1] + [target], add_to=grads)
        assert not grads.flat.any()


def _chunk_caches(cfg):
    """Bytes of one chunk's float32 caches: eight (window, d_model) arrays
    per window and layer, the attention weights and the feed-forward
    activations."""
    return cfg.layers * FORWARD_CHUNK * cfg.window * (8 * cfg.d_model + cfg.heads * cfg.window + cfg.d_ff) * 4


def test_a_warm_workspace_allocates_a_small_share_of_one_chunks_caches():
    weights = init_weights(GATE_MCFG, derive_seed(16, "init"))
    caches = _chunk_caches(GATE_MCFG)
    # one chunk, and a 50-item mini-batch that runs as seven chunks through one workspace
    for count in (FORWARD_CHUNK, 50):
        samples, targets = zip(*_items(GATE_MCFG, count, 16))
        grads = ModelWeights(GATE_MCFG, np.zeros(param_count(GATE_MCFG)))
        weights.workspace = Workspace()
        backward(samples, weights, targets, add_to=grads)  # allocates the workspace
        tracemalloc.start()
        try:
            backward(samples, weights, targets, add_to=grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * caches, f"{peak} B for {count} items"


def test_validation_after_a_step_reuses_its_workspace():
    # train() validates through the workspace its backward calls keep: a
    # forward over a whole chunk and a part chunk then allocates no activations
    weights = init_weights(GATE_MCFG, derive_seed(17, "init"))
    samples, targets = zip(*_items(GATE_MCFG, 2 * FORWARD_CHUNK, 17))
    kept = ModelWeights(GATE_MCFG, weights.flat.copy())
    kept.workspace = Workspace()
    backward(samples, kept, targets)
    frames = [s.frames for s in samples[:-3]]
    want = forward_probs(weights, frames)
    tracemalloc.start()
    try:
        probs = forward_probs(kept, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.tobytes() == want.tobytes()
    assert peak < 0.1 * _chunk_caches(GATE_MCFG), f"{peak} B"


@pytest.mark.parametrize("label", [-1, "classes", 2.5, True], ids=["-1", "classes", "2.5", "True"])
def test_a_label_that_is_no_class_index_is_rejected_by_name(tiny_mcfg, tiny_weights, tiny_sample, label):
    # a one-hot row np.eye(classes)[label] would take -1 as the last class,
    # and fail inside numpy for the others
    label = tiny_mcfg.classes if label == "classes" else label
    bad = IsolatedSample(tiny_sample.frames, label)
    grads = ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg)))
    with pytest.raises(ValueError, match=rf"^sample 1 label {label!r} is not a class index in \[0, {tiny_mcfg.classes}\)$"):
        backward([tiny_sample, bad], tiny_weights, add_to=grads)
    assert not grads.flat.any()
    with pytest.raises(ValueError, match=rf"^sample label {label!r} is not a class index"):
        gradient_check(tiny_weights, bad)
    # with a target of its own the label is not read
    backward(bad, tiny_weights, np.full(tiny_mcfg.classes, 1.0 / tiny_mcfg.classes))


def test_a_numpy_integer_label_is_a_class_index(tiny_weights, tiny_sample):
    as_int, loss = backward(tiny_sample, tiny_weights)
    as_numpy, numpy_loss = backward(IsolatedSample(tiny_sample.frames, np.int64(tiny_sample.label)), tiny_weights)
    assert numpy_loss == loss and as_numpy.flat.tobytes() == as_int.flat.tobytes()


def test_one_target_per_sample(tiny_weights, tiny_sample):
    for samples, targets in (([tiny_sample] * 2, [None]), ([], None)):
        with pytest.raises(ShapeError):
            backward(samples, tiny_weights, targets)


def test_head_gradient_closed_form():
    """With zero layers the head gradient is outer(flattened features, p - onehot)."""
    cfg = ModelConfig(layers=0, heads=1, d_model=4, d_ff=4, window=3, input_dim=4, classes=3)
    weights = upcast(init_weights(cfg, derive_seed(1, "init")))
    rng = derive_rng(1, "head-grad")
    sample = IsolatedSample(rng.normal(size=(3, 4)), label=2)
    grads, _ = backward(sample, weights)

    from signseg.model import encoder_forward

    flat = encoder_forward(sample.frames, weights).reshape(-1)
    p = forward_probs(weights, sample.frames)
    dlogits = p.copy()
    dlogits[2] -= 1.0
    np.testing.assert_allclose(grads.head_w, np.outer(flat, dlogits), rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads.head_b, dlogits, rtol=0, atol=1e-12)


def test_full_sweep_matches_finite_differences(tiny_mcfg, tiny_weights, tiny_sample):
    err = gradient_check(tiny_weights, tiny_sample, epsilon=1e-4)
    assert err < 1e-4


def test_full_sweep_at_a_d_k_whose_root_is_not_a_power_of_two():
    # d_k = 8: q * (1 / sqrt(8)) rounds differently from the scores / sqrt(8)
    mcfg = ModelConfig(layers=1, heads=3, d_model=24, d_ff=16, window=5, input_dim=6, classes=3)
    assert mcfg.d_k == 8
    frames = derive_rng(4, "d_k-8").normal(size=(mcfg.window, mcfg.input_dim))
    weights = init_weights(mcfg, derive_seed(4, "init"))
    assert gradient_check(weights, IsolatedSample(frames, 2), epsilon=1e-4) < 1e-4


# heads 2, d_model 6: d_k = 3, whose root is not a power of two; two windows
KERNEL_CFG = ModelConfig(layers=1, heads=2, d_model=6, d_ff=5, window=4, input_dim=3, classes=2)
W = KERNEL_CFG.window
# name: (the parameters it differentiates, forward kernel, backward kernel). A
# backward gets the cotangent dy, the forward's input x and its activations c
# and returns the gradient at x; _mha_bwd folds in the residual, so its
# forward is the residual sum x + attention(x)
KERNELS = {
    "_layer_norm_bwd": (
        ["ln1_g", "ln1_b"],
        lambda x, L, c: _layer_norm_fwd(x, L.ln1_g, L.ln1_b, c["xhat1"], c["inv1"], W),
        lambda dy, x, L, g, c, mask, ws: _layer_norm_bwd(
            dy, c["xhat1"], c["inv1"], L.ln1_g, g.ln1_g, g.ln1_b, c["out"], W
        ),
    ),
    "_ff_bwd": (
        ["ff_w1", "ff_b1", "ff_w2", "ff_b2"],
        lambda x, L, c: _ff_fwd(x, L, c["act"], c["out"]),
        lambda dy, x, L, g, c, mask, ws: _ff_bwd(dy, x, L, g, c["act"], mask, ws),
    ),
    "_mha_bwd": (
        ["wq", "wk", "wv", "wo"],
        lambda x, L, c: _mha_fwd(x, L, c) + x,
        lambda dy, x, L, g, c, mask, ws: _mha_bwd(dy, x, L, g, c, ws),
    ),
    "_layer_bwd": (
        [f.name for f in fields(LayerWeights)],
        _layer_fwd,
        _layer_bwd,
    ),
}


def _central_differences(loss, arrays, epsilon=1e-6):
    """d loss / d a for each array a, by central differences, one coordinate at a time in place."""
    grads = []
    for arr in arrays:
        grad = np.empty_like(arr)
        for i in np.ndindex(arr.shape):
            original = arr[i]
            arr[i] = original + epsilon
            plus = loss()
            arr[i] = original - epsilon
            minus = loss()
            arr[i] = original
            grad[i] = (plus - minus) / (2.0 * epsilon)
        grads.append(grad)
    return grads


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_each_backward_kernel_matches_central_differences_of_its_forward(kernel):
    # a wrong gradient here names its stage, which the whole-model sweep cannot
    names, forward, bwd = KERNELS[kernel]
    rng = derive_rng(17, "kernels")
    layer = upcast(init_weights(KERNEL_CFG, derive_seed(17, "init"))).layers[0]
    for v in (layer.ln1_g, layer.ln2_g):
        v[...] = rng.uniform(0.5, 1.5, size=v.shape)
    for v in (layer.ln1_b, layer.ln2_b, layer.ff_b1, layer.ff_b2):
        v[...] = rng.normal(size=v.shape)
    x = rng.normal(size=(2 * W, KERNEL_CFG.d_model))
    ws = Workspace()
    c = ws.layer(0, KERNEL_CFG, len(x), np.float64)
    r = rng.normal(size=x.shape)  # every kernel here maps (rows, d_model) to (rows, d_model)
    numeric = _central_differences(lambda: float(np.sum(r * forward(x.copy(), layer, c))),
                                   [x, *(getattr(layer, n) for n in names)])

    x_in = x.copy()
    forward(x_in, layer, c)  # the activations at x, kept in c
    grads = ModelWeights(KERNEL_CFG, np.zeros(param_count(KERNEL_CFG))).layers[0]
    mask = ws("mask", (len(x), KERNEL_CFG.d_ff), np.bool_)
    analytic = [bwd(r.copy(), x_in, layer, grads, c, mask, ws), *(getattr(grads, n) for n in names)]
    for name, a, n in zip(["input", *names], analytic, numeric):
        assert np.abs(a - n).max() <= 1e-5 * np.abs(n).max(), name


def test_gradient_check_many_labels(tiny_mcfg, tiny_weights):
    # every class as target, subsampled coordinates for speed
    rng = derive_rng(2, "labels")
    for label in range(tiny_mcfg.classes):
        sample = IsolatedSample(rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim)), label)
        err = gradient_check(tiny_weights, sample, epsilon=1e-4, max_coords=250, seed=label)
        assert err < 1e-4


def test_one_hot_target_is_the_default(tiny_weights, tiny_sample, tiny_mcfg):
    target = np.zeros(tiny_mcfg.classes)
    target[tiny_sample.label] = 1.0
    default, loss_default = backward(tiny_sample, tiny_weights)
    explicit, loss_explicit = backward(tiny_sample, tiny_weights, target)
    assert loss_default == loss_explicit
    assert np.array_equal(default.flat, explicit.flat)


def test_soft_target_loss_and_head_gradient(tiny_mcfg, tiny_weights, tiny_sample):
    target = np.array([0.25, 0.75, 0.0])
    weights = upcast(tiny_weights)
    grads, loss = backward(tiny_sample, weights, target)
    probs = forward_probs(weights, tiny_sample.frames)
    np.testing.assert_allclose(loss, -(target * np.log(probs)).sum(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads.head_b, probs - target, rtol=0, atol=1e-12)


def test_uniform_target_matches_finite_differences(tiny_mcfg, tiny_weights, tiny_sample):
    uniform = np.full(tiny_mcfg.classes, 1.0 / tiny_mcfg.classes)
    assert gradient_check(tiny_weights, tiny_sample, epsilon=1e-4, target=uniform) < 1e-4


def test_two_class_soft_target_matches_finite_differences(tiny_mcfg, tiny_weights, tiny_sample):
    # a window straddling two signs: 60% of class 0, 40% of class 2
    soft = np.array([0.6, 0.0, 0.4])
    assert gradient_check(tiny_weights, tiny_sample, epsilon=1e-4, target=soft) < 1e-4


@pytest.mark.parametrize("target", [[0.5, 0.5], [0.5, 0.6, -0.1], [0.2, 0.2, 0.2]])
def test_bad_target_rejected(tiny_weights, tiny_sample, target):
    with pytest.raises((ShapeError, ValueError)):
        backward(tiny_sample, tiny_weights, np.array(target))


def test_gradient_check_returns_finite_nonnegative(tiny_weights, tiny_sample):
    err = gradient_check(tiny_weights, tiny_sample, epsilon=1e-4, max_coords=200)
    assert np.isfinite(err)
    assert err >= 0.0


def test_relative_error_guard():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 1.0) == 0.0
    np.testing.assert_allclose(relative_error(1.0, 2.0), 0.5)


def test_epsilon_must_be_positive(tiny_weights, tiny_sample):
    with pytest.raises(ValueError):
        gradient_check(tiny_weights, tiny_sample, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_a_non_finite_epsilon_is_rejected(tiny_weights, tiny_sample, epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        gradient_check(tiny_weights, tiny_sample, epsilon=epsilon)


def test_nan_weights_fail_the_check(tiny_mcfg, tiny_weights, tiny_sample):
    # every coordinate's error is NaN, which Python's max(worst, error) would drop, keeping 0.0
    weights = ModelWeights(tiny_mcfg, tiny_weights.flat.copy())
    weights.flat[0] = np.nan
    assert np.isnan(gradient_check(weights, tiny_sample, epsilon=1e-4, max_coords=200))
