import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from signseg import (
    ConfigError,
    IsolatedSample,
    ModelConfig,
    ModelWeights,
    ShapeError,
    attention_weights,
    backward,
    encoder_forward,
    evaluate_isolated,
    forward_probs,
    init_weights,
    load_weights,
    save_weights,
    softmax,
)
from signseg.gradients import soft_cross_entropy
from signseg.model import (
    LN_EPS,
    Workspace,
    _classify_internals,
    _ff_fwd,
    _layer_norm_fwd,
    _mha_fwd,
    _position_codes,
    _sinusoids,
    param_count,
    param_shapes,
    upcast,
    weights_to_dict,
)
from signseg.seeding import derive_rng, derive_seed

GATE_MCFG = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)


F64 = np.dtype(np.float64)


def code_at(pos, d_model):
    """The sinusoidal position code of one position."""
    return _sinusoids(np.array([pos], dtype=np.float64), d_model)[0]


def mha(x, layer, cfg):
    """Multi-head attention of windows x (B * window, d_model), on fresh arrays."""
    return _mha_fwd(x, layer, Workspace().layer(0, cfg, x.shape[0], x.dtype))


def mha_oracle(x, layer, cfg):
    """Attention of one window x (window, d_model) in float64, head by head
    through attention_weights, then concatenated and projected."""
    heads = []
    for h in range(cfg.heads):
        q, k, v = (x @ np.asarray(w[h], dtype=np.float64) for w in (layer.wq, layer.wk, layer.wv))
        heads.append(attention_weights(q, k, cfg.d_k) @ v)
    return np.concatenate(heads, axis=1) @ np.asarray(layer.wo, dtype=np.float64)


def feed_forward(x, layer):
    return _ff_fwd(x, layer, np.empty((x.shape[0], layer.ff_b1.size)), np.empty_like(x))


def layer_norm(x, gain, bias):
    """Layer norm of x's rows, taken as one window."""
    return _layer_norm_fwd(x.copy(), gain, bias, np.empty_like(x), np.empty((x.shape[0], 1)), len(x))


def one_hot(label, classes):
    target = np.zeros(classes)
    target[label] = 1.0
    return target


class TestConfig:
    def test_d_k(self):
        cfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
        assert cfg.d_k == 16

    def test_odd_d_model_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, heads=1, d_model=7, d_ff=8, window=4, input_dim=3, classes=2)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, heads=3, d_model=8, d_ff=8, window=4, input_dim=3, classes=2)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, heads=1, d_model=8, d_ff=0, window=4, input_dim=3, classes=2)

    def test_zero_layers_allowed(self):
        ModelConfig(layers=0, heads=1, d_model=4, d_ff=4, window=2, input_dim=2, classes=2)


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        np.testing.assert_allclose(code_at(0, 8), [0, 1, 0, 1, 0, 1, 0, 1])

    def test_position_one_two_dims(self):
        np.testing.assert_allclose(
            code_at(1, 2), [np.sin(1.0), np.cos(1.0)], rtol=0, atol=1e-12
        )

    def test_values_bounded(self):
        rng = derive_rng(0, "pe")
        for _ in range(40):
            pos = int(rng.integers(0, 10_000))
            d_model = int(rng.integers(1, 64)) * 2
            enc = code_at(pos, d_model)
            assert enc.shape == (d_model,)
            assert (np.abs(enc) <= 1.0).all()

    def test_pair_frequencies_shared(self):
        # sin and cos of one pair use the same wavelength
        enc = code_at(37, 16)
        for k in range(8):
            angle = 37 / 10000 ** (2 * k / 16)
            np.testing.assert_allclose(enc[2 * k], np.sin(angle), rtol=0, atol=1e-12)
            np.testing.assert_allclose(enc[2 * k + 1], np.cos(angle), rtol=0, atol=1e-12)

    # the tiny fixture's shape, and the gate's and the default model's
    @pytest.mark.parametrize("window, d_model", [(5, 6), (4, 8), (50, 64), (50, 128)])
    def test_matrix_stacks_rows(self, window, d_model):
        m = _position_codes(window, d_model, F64)
        assert m.shape == (window, d_model)
        for pos in range(window):
            np.testing.assert_array_equal(m[pos], code_at(pos, d_model))

    def test_matrix_built_once_and_read_only(self):
        m = _position_codes(7, 4, F64)
        assert _position_codes(7, 4, F64) is m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


class TestSoftmax:
    def test_sums_and_range(self):
        rng = derive_rng(1, "softmax")
        for _ in range(200):
            scale = 10 ** rng.uniform(-3, 3)
            x = rng.normal(size=int(rng.integers(1, 40))) * scale
            p = softmax(x)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p >= 0).all()

    def test_known_values(self):
        p = softmax(np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(p, [0.999909208, 4.5396e-05, 4.5396e-05], rtol=1e-4)

    def test_shift_invariant(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 500.0), rtol=0, atol=1e-12)


class TestEmbed:
    # with no encoder layers, encoder_forward is the embedding alone
    def test_zero_everything_leaves_positional_encoding(self, tiny_mcfg):
        cfg = dataclasses.replace(tiny_mcfg, layers=0)
        zeroed = ModelWeights(cfg, np.zeros(param_count(cfg), dtype=np.float32))
        frames = np.zeros((cfg.window, cfg.input_dim))
        np.testing.assert_allclose(
            encoder_forward(frames, zeroed), _position_codes(cfg.window, cfg.d_model, F64), rtol=0, atol=1e-12
        )

    def test_matches_affine_formula(self, tiny_mcfg):
        cfg = dataclasses.replace(tiny_mcfg, layers=0)
        weights = init_weights(cfg, derive_seed(0, "init"))
        frames = derive_rng(2, "embed").normal(size=(cfg.window, cfg.input_dim))
        got = encoder_forward(frames, weights)
        for pos in range(cfg.window):
            expected = (
                frames[pos] @ np.asarray(weights.embed_w, dtype=np.float64)
                + np.asarray(weights.embed_b, dtype=np.float64)
                + code_at(pos, cfg.d_model)
            )
            np.testing.assert_allclose(got[pos], expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self, tiny_mcfg, tiny_weights):
        with pytest.raises(ShapeError):
            encoder_forward(np.zeros((tiny_mcfg.window, 99)), tiny_weights)


class TestAttention:
    def test_single_key_returns_value(self):
        rng = derive_rng(3, "attn")
        q = rng.normal(size=(5, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        out = attention_weights(q, k, 4) @ v
        np.testing.assert_allclose(out, np.repeat(v, 5, axis=0), rtol=0, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = derive_rng(4, "attn")
        q = rng.normal(size=(3, 4))
        k = np.tile(rng.normal(size=(1, 4)), (6, 1))
        v = rng.normal(size=(6, 4))
        out = attention_weights(q, k, 4) @ v
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), rtol=0, atol=1e-12)

    def test_two_by_two_hand_case(self):
        c = 3.0
        q = k = np.eye(2) * c
        v = np.eye(2)
        out = attention_weights(q, k, 2) @ v
        w = softmax(np.array([c * c / np.sqrt(2.0), 0.0]))
        expected = np.array([[w[0], w[1]], [w[1], w[0]]])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_weight_rows_stochastic(self):
        rng = derive_rng(5, "attn")
        for _ in range(50):
            n = int(rng.integers(1, 12))
            q = rng.normal(size=(n, 6)) * 10 ** rng.uniform(-2, 2)
            k = rng.normal(size=(n, 6)) * 10 ** rng.uniform(-2, 2)
            weights = attention_weights(q, k, 6)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestMultiHead:
    def test_single_identity_head_reduces_to_attention(self):
        # h=1 with identity projections must equal bare attention on X
        cfg = ModelConfig(layers=1, heads=1, d_model=6, d_ff=8, window=5, input_dim=6, classes=2)
        weights = init_weights(cfg, 0)
        layer = weights.layers[0]
        eye = np.eye(6, dtype=np.float32)
        layer.wq[0] = eye
        layer.wk[0] = eye
        layer.wv[0] = eye
        layer.wo[:] = eye
        rng = derive_rng(6, "mha")
        x = rng.normal(size=(5, 6))
        got = mha(x, layer, cfg)
        want = attention_weights(x, x, 6) @ x
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_zero_value_projection_zero_output(self):
        cfg = ModelConfig(layers=1, heads=2, d_model=8, d_ff=8, window=4, input_dim=8, classes=2)
        weights = init_weights(cfg, 1)
        layer = weights.layers[0]
        layer.wv[:] = 0.0
        rng = derive_rng(7, "mha")
        out = mha(rng.normal(size=(4, 8)), layer, cfg)
        np.testing.assert_allclose(out, 0.0, rtol=0, atol=1e-12)

    def test_matches_per_head_oracle(self):
        cfg = ModelConfig(layers=1, heads=2, d_model=8, d_ff=8, window=6, input_dim=8, classes=2)
        weights = init_weights(cfg, 2)
        layer = weights.layers[0]
        rng = derive_rng(8, "mha")
        x = rng.normal(size=(6, 8))
        np.testing.assert_allclose(mha(x, layer, cfg), mha_oracle(x, layer, cfg), rtol=0, atol=1e-12)

    def test_matches_per_head_oracle_on_a_batch(self):
        # three windows in one pass over 3 * window rows: rows and heads
        # mixed up across windows would show here, not on one window
        cfg = ModelConfig(layers=1, heads=4, d_model=12, d_ff=8, window=5, input_dim=12, classes=2)
        layer = init_weights(cfg, 3).layers[0]
        x = derive_rng(9, "mha-batch").normal(size=(3, cfg.window, cfg.d_model))
        got = mha(x.reshape(-1, cfg.d_model), layer, cfg).reshape(x.shape)
        for window, out in zip(x, got):
            np.testing.assert_allclose(out, mha_oracle(window, layer, cfg), rtol=0, atol=1e-12)


class TestFeedForwardAndNorm:
    def test_all_negative_preactivation_yields_bias(self):
        cfg = ModelConfig(layers=1, heads=1, d_model=4, d_ff=6, window=3, input_dim=4, classes=2)
        weights = init_weights(cfg, 3)
        layer = weights.layers[0]
        layer.ff_w1[:] = 0.0
        layer.ff_b1[:] = -1.0  # ReLU kills every unit
        rng = derive_rng(9, "ff")
        out = feed_forward(rng.normal(size=(3, 4)), layer)
        np.testing.assert_allclose(out, np.tile(layer.ff_b2, (3, 1)), rtol=0, atol=1e-12)

    def test_matches_straight_line_formula(self):
        cfg = ModelConfig(layers=1, heads=1, d_model=4, d_ff=6, window=3, input_dim=4, classes=2)
        weights = init_weights(cfg, 4)
        layer = weights.layers[0]
        rng = derive_rng(10, "ff")
        x = rng.normal(size=(3, 4))
        pre = x @ np.asarray(layer.ff_w1, np.float64) + np.asarray(layer.ff_b1, np.float64)
        want = np.maximum(pre, 0.0) @ np.asarray(layer.ff_w2, np.float64) + np.asarray(
            layer.ff_b2, np.float64
        )
        np.testing.assert_allclose(feed_forward(x, layer), want, rtol=0, atol=1e-12)

    def test_layer_norm_statistics(self):
        rng = derive_rng(11, "ln")
        x = rng.normal(size=(5, 16)) * 3 + 2
        out = layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=1), 1.0, rtol=0, atol=1e-3)  # eps shifts it slightly

    def test_layer_norm_constant_row(self):
        # a constant row has zero variance; eps keeps it finite
        out = layer_norm(np.full((1, 8), 4.2), np.ones(8), np.zeros(8))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, 0.0, rtol=0, atol=np.sqrt(LN_EPS))


class TestEncoderAndClassify:
    def test_zero_layers_is_embedding_only(self):
        cfg = ModelConfig(layers=0, heads=1, d_model=8, d_ff=8, window=3, input_dim=4, classes=2)
        weights = init_weights(cfg, 5)
        rng = derive_rng(12, "enc")
        x = rng.normal(size=(3, 4))
        got = encoder_forward(x, weights, use_positions=False)
        want = x @ np.asarray(weights.embed_w, np.float64) + np.asarray(weights.embed_b, np.float64)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_deterministic(self, tiny_mcfg, tiny_weights):
        rng = derive_rng(13, "enc")
        x = rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim))
        np.testing.assert_array_equal(encoder_forward(x, tiny_weights), encoder_forward(x, tiny_weights))

    def test_permutation_equivariance_without_positions(self, tiny_mcfg, tiny_weights):
        rng = derive_rng(14, "enc")
        for _ in range(20):
            x = rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim))
            perm = rng.permutation(tiny_mcfg.window)
            base = encoder_forward(x, tiny_weights, use_positions=False)
            permuted = encoder_forward(x[perm], tiny_weights, use_positions=False)
            assert np.abs(base[perm] - permuted).max() < 1e-6

    def test_wrong_frame_count_rejected(self, tiny_mcfg, tiny_weights):
        with pytest.raises(ShapeError):
            encoder_forward(np.zeros((tiny_mcfg.window + 1, tiny_mcfg.input_dim)), tiny_weights)

    def test_zero_head_uniform(self, tiny_mcfg, tiny_weights):
        weights = init_weights(tiny_mcfg, 6)
        weights.head_w[:] = 0.0
        weights.head_b[:] = 0.0
        rng = derive_rng(15, "cls")
        feats = encoder_forward(rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim)), weights)
        probs = _classify_internals(feats[None], weights)[0][0]
        np.testing.assert_allclose(probs, 1.0 / tiny_mcfg.classes, rtol=0, atol=1e-12)

    def test_classify_flatten_order(self, tiny_mcfg, tiny_weights):
        rng = derive_rng(16, "cls")
        feats = rng.normal(size=(tiny_mcfg.window, tiny_mcfg.d_model))
        logits = feats.reshape(-1) @ np.asarray(tiny_weights.head_w, np.float64) + np.asarray(
            tiny_weights.head_b, np.float64
        )
        probs = _classify_internals(feats[None], tiny_weights)[0][0]
        np.testing.assert_allclose(probs, softmax(logits), rtol=0, atol=1e-12)

    def test_forward_probs_sum(self, tiny_mcfg, tiny_weights):
        rng = derive_rng(17, "cls")
        for _ in range(25):
            p = forward_probs(tiny_weights, rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim)))
            assert abs(p.sum() - 1.0) < 1e-9
            assert p.shape == (tiny_mcfg.classes,)

    # batch sizes on both sides of the chunk boundaries, and an empty batch
    @pytest.mark.parametrize("batch", [0, 1, 8, 17])
    @pytest.mark.parametrize("gate", [False, True], ids=["tiny", "gate"])
    def test_batch_matches_per_window_calls(self, tiny_mcfg, batch, gate):
        cfg = GATE_MCFG if gate else tiny_mcfg
        stored = init_weights(cfg, 9)
        frames = derive_rng(19, "batch").normal(size=(batch, cfg.window, cfg.input_dim))
        view = np.stack([frames, frames], axis=-1)[..., 0]  # strided, like a slid stream
        view.setflags(write=False)
        short = np.zeros((cfg.window - 1, cfg.input_dim))
        # in float32 as stored and in float64 after upcast; both must be
        # batch-invariant bit for bit, whether the batch is an array, a
        # read-only view or a list of windows, and whether the activations
        # go into a workspace made for the call or one kept across every call
        scratch = Workspace()
        for weights in (stored, upcast(stored)):
            want = np.array([forward_probs(weights, f) for f in frames]).reshape(batch, cfg.classes)
            kept = ModelWeights(cfg, weights.flat.copy())
            kept.workspace = scratch
            for batch_frames, model in itertools.product((frames, view, list(frames)), (weights, kept)):
                probs = forward_probs(model, batch_frames)
                assert probs.shape == (batch, cfg.classes)
                np.testing.assert_array_equal(probs, want)
                assert not any(np.shares_memory(probs, buf) for buf in scratch.values())
            # windows of mixed lengths cannot be stacked
            with pytest.raises(ShapeError, match=rf"\({cfg.window - 1}, {cfg.input_dim}\)"):
                forward_probs(weights, list(frames) + [short])

    @pytest.mark.parametrize("batch", [1, 2, 8, 64])
    def test_batch_matches_per_window_calls_at_eight_heads(self, batch):
        # the widest rows the per-window reductions see: d_model 128 at the
        # layer norms, 8 heads of 50 x 50 scores at the softmax
        cfg = ModelConfig(layers=1, heads=8, d_model=128, d_ff=512, window=50, input_dim=12, classes=10)
        stored = init_weights(cfg, 10)
        frames = derive_rng(20, "batch").normal(size=(batch, cfg.window, cfg.input_dim))
        for weights in (stored, upcast(stored)):
            probs = forward_probs(weights, frames)
            np.testing.assert_array_equal(probs, np.stack([forward_probs(weights, f) for f in frames]))

    def test_inference_holds_one_layers_arrays(self):
        # a forward-only pass writes every layer, the embedding included,
        # over layer 0's arrays, whatever the depth
        cfg = ModelConfig(layers=3, heads=2, d_model=8, d_ff=16, window=4, input_dim=6, classes=3)
        weights = init_weights(cfg, 11)
        weights.workspace = Workspace()
        want = forward_probs(init_weights(cfg, 11), derive_rng(21, "one-layer").normal(size=(5, 4, 6)))
        got = forward_probs(weights, derive_rng(21, "one-layer").normal(size=(5, 4, 6)))
        assert weights.workspace and {i for _, i in weights.workspace} == {0}
        np.testing.assert_array_equal(got, want)

    def test_argmax_ties_take_lowest(self, tiny_mcfg, tiny_weights):
        weights = init_weights(tiny_mcfg, 7)
        weights.head_w[:] = 0.0
        weights.head_b[:] = 0.0  # exact tie across classes
        rng = derive_rng(18, "cls")
        x = rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim))
        assert evaluate_isolated(weights, [IsolatedSample(x, 0)]) == 1.0
        assert evaluate_isolated(weights, [IsolatedSample(x, 1)]) == 0.0


def test_upcast_is_exact(tiny_mcfg, tiny_weights):
    wide = upcast(tiny_weights)
    for name, value in weights_to_dict(tiny_weights).items():
        got = weights_to_dict(wide)[name]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, value)
    frames = derive_rng(3, "upcast").normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim))
    # float64 math on the float32 weights, where numpy promotes each product
    promoted = _classify_internals(encoder_forward(frames, tiny_weights)[None], tiny_weights)[0][0]
    assert forward_probs(wide, frames).tobytes() == promoted.tobytes()


def _forward_peak_bytes(layers: int) -> int:
    cfg = ModelConfig(layers=layers, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=5)
    weights = upcast(init_weights(cfg, 8))
    frames = derive_rng(4, "peak").normal(size=(cfg.window, cfg.input_dim))
    forward_probs(weights, frames)  # warm the position-code cache
    tracemalloc.start()
    try:
        forward_probs(weights, frames)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_keeps_no_per_layer_caches():
    # the backward caches grow with depth; a forward pass must not build them
    assert _forward_peak_bytes(6) <= 1.5 * _forward_peak_bytes(1)


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert soft_cross_entropy(np.array([0.0, 1.0, 0.0]), one_hot(1, 3)) == 0.0

    def test_uniform_hundred(self):
        p = np.full(100, 0.01)
        np.testing.assert_allclose(soft_cross_entropy(p, one_hot(7, len(p))), np.log(100.0), rtol=0, atol=1e-12)

    def test_clamped_zero(self):
        p = np.array([1.0, 0.0])
        np.testing.assert_allclose(soft_cross_entropy(p, one_hot(1, len(p))), -np.log(1e-12), rtol=0, atol=1e-9)


class TestInit:
    def test_deterministic_and_shaped(self, tiny_mcfg):
        a = weights_to_dict(init_weights(tiny_mcfg, derive_seed(9, "init")))
        b = weights_to_dict(init_weights(tiny_mcfg, derive_seed(9, "init")))
        shapes = param_shapes(tiny_mcfg)
        assert list(a) == list(shapes)
        for key, value in a.items():
            assert value.shape == shapes[key]
            assert value.dtype == np.float32
            assert np.array_equal(value, b[key])

    def test_glorot_bounds_and_special_cases(self, tiny_mcfg):
        weights = init_weights(tiny_mcfg, 10)
        fan = tiny_mcfg.window * tiny_mcfg.d_model + tiny_mcfg.classes
        limit = np.sqrt(6.0 / fan)
        assert np.abs(weights.head_w).max() <= limit
        np.testing.assert_array_equal(weights.head_b, 0.0)
        for layer in weights.layers:
            np.testing.assert_array_equal(layer.ln1_g, 1.0)
            np.testing.assert_array_equal(layer.ln2_b, 0.0)


class TestParameterLayout:
    # SHA-256 of save_weights(init_weights(cfg, 0)), recorded before the
    # parameter list was declared once in the weight dataclasses' fields:
    # a change of draw order, layout or init rule changes these
    INIT_SHA256 = {
        (2, 2, 8, 16, 4, 6, 3): "5fcb3189b336f62bb094e854f5daa59f7657b6ced6dde977ca8bb3b6b0d6a4aa",
        (2, 4, 64, 256, 50, 12, 10): "3bf4e3085dad006cc911b277733789131aec64cde8bc334b86e149f7f4fd2749",
    }

    def test_init_blob_digests_pinned(self):
        import hashlib

        from signseg import save_weights

        for dims, digest in self.INIT_SHA256.items():
            blob = save_weights(init_weights(ModelConfig(*dims), 0))
            assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("layers", [0, 1, 3])
    def test_shapes_and_flattening_share_one_order(self, layers):
        cfg = ModelConfig(layers=layers, heads=2, d_model=8, d_ff=6, window=3, input_dim=5, classes=4)
        assert list(param_shapes(cfg)) == list(weights_to_dict(init_weights(cfg, 0)))

    def test_canonical_names(self):
        cfg = ModelConfig(layers=1, heads=2, d_model=8, d_ff=6, window=3, input_dim=5, classes=4)
        assert list(param_shapes(cfg)) == [
            "embed.w", "embed.b",
            "layers.0.wq", "layers.0.wk", "layers.0.wv", "layers.0.wo",
            "layers.0.ff.w1", "layers.0.ff.b1", "layers.0.ff.w2", "layers.0.ff.b2",
            "layers.0.ln1.g", "layers.0.ln1.b", "layers.0.ln2.g", "layers.0.ln2.b",
            "head.w", "head.b",
        ]

    def test_param_count_matches_shapes(self):
        from signseg.model import param_count

        for layers in (0, 1, 3):
            cfg = ModelConfig(layers=layers, heads=2, d_model=8, d_ff=6, window=3, input_dim=5, classes=4)
            assert param_count(cfg) == sum(int(np.prod(s)) for s in param_shapes(cfg).values())


class TestFlatBuffer:
    @staticmethod
    def _assert_views(weights):
        flat = weights.flat
        assert flat.ndim == 1 and flat.size == param_count(weights.config)
        offset = 0
        named = weights_to_dict(weights)
        assert list(named) == list(param_shapes(weights.config))
        for name, arr in named.items():
            assert np.shares_memory(arr, flat), name
            start = flat.__array_interface__["data"][0] + offset * flat.itemsize
            assert arr.__array_interface__["data"][0] == start, name
            assert arr.dtype == flat.dtype
            arr.reshape(-1)[-1] = 7.5  # a write through the view reaches the buffer
            offset += arr.size
            assert flat[offset - 1] == 7.5, name
        assert offset == flat.size

    def test_init_weights_are_views(self, tiny_mcfg):
        weights = init_weights(tiny_mcfg, 0)
        assert weights.flat.dtype == np.float32
        self._assert_views(weights)

    def test_loaded_weights_are_views(self, tiny_weights):
        weights = load_weights(save_weights(tiny_weights))
        assert weights.flat.dtype == np.float32
        self._assert_views(weights)

    def test_upcast_weights_are_views(self, tiny_weights):
        weights = upcast(tiny_weights)
        assert weights.flat.dtype == np.float64
        assert not np.shares_memory(weights.flat, tiny_weights.flat)
        self._assert_views(weights)

    def test_gradients_are_views(self, tiny_weights, tiny_sample):
        grads, _ = backward(tiny_sample, tiny_weights)
        assert grads.flat.dtype == np.float64
        self._assert_views(grads)

    def test_zero_layers(self):
        cfg = ModelConfig(layers=0, heads=1, d_model=4, d_ff=4, window=2, input_dim=3, classes=2)
        self._assert_views(init_weights(cfg, 0))

    def test_wrong_buffer_size_rejected(self, tiny_mcfg):
        with pytest.raises(ShapeError):
            ModelWeights(tiny_mcfg, np.zeros(param_count(tiny_mcfg) + 1))
