import dataclasses
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import signseg.gradients
import signseg.model
import signseg.training
from hypothesis import given, settings
from hypothesis import strategies as st

from signseg import (
    ConfigError,
    ModelConfig,
    NonFiniteGradientError,
    ShapeError,
    TrainConfig,
    ablate,
    ablation_to_csv,
    adam_step,
    carve_validation,
    evaluate_isolated,
    history_to_csv,
    init_weights,
    lr_at_epoch,
    make_dataset,
    ModelWeights,
    backward,
    load_weights,
    load_weights_file,
    save_weights,
    save_weights_file,
    split_dataset,
    train,
)
from signseg import (
    ContinuousStream,
    IsolatedSample,
    build_streams,
    concat_isolated,
    gradient_check,
    make_class_prototype,
    post_process,
    sample_instance,
    segment_report,
)
from signseg.errors import StreamTooShortError, check_counts, class_index
from signseg.segmentation import WindowProb, slide
from signseg.model import FORWARD_CHUNK, Workspace, param_count, upcast
from signseg.seeding import derive_rng, derive_seed
from signseg.training import (
    ADAM_BLOCK,
    STRADDLE_MAJORITY,
    AdamState,
    _adam_update,
    _cut,
    _epoch_items,
    _mean_loss,
    draw_straddles,
    straddle_window,
)


class TestDefaults:
    def test_published_values(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 50
        assert cfg.lr0 == 0.005
        assert cfg.lr_decay_every == 10
        assert cfg.lr_decay_factor == 0.1
        assert cfg.max_epochs == 200
        assert cfg.weight_decay == 1e-4
        assert cfg.beta1 == 0.92
        assert cfg.beta2 == 0.999
        assert cfg.adam_eps == 1e-8
        assert cfg.early_stop_patience == 20

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr0=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name", ["batch_size", "lr_decay_every", "max_epochs", "early_stop_patience", "seed"])
    def test_integer_fields_reject_floats_and_bools(self, name, value):
        # 2.5 epochs would fail inside range(), 1.5 a decay period would
        # silently move the schedule, and True would pass for 1
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{name: value})


class TestSchedule:
    def test_pinned_points(self):
        cfg = TrainConfig()
        assert lr_at_epoch(cfg, 0) == 0.005
        assert lr_at_epoch(cfg, 9) == 0.005
        assert lr_at_epoch(cfg, 10) == 0.0005
        # 5e-5 only up to float rounding of 0.005 * 0.1**2
        np.testing.assert_allclose(lr_at_epoch(cfg, 25), 5e-5, rtol=1e-12)

    def test_non_increasing(self):
        cfg = TrainConfig()
        values = [lr_at_epoch(cfg, e) for e in range(60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_at_epoch(TrainConfig(), -1)


class TestSplit:
    def test_sizes_and_partition(self):
        data = make_dataset(seed=1, classes=10, n_per_class=20, dim=4, window=6, noise_sigma=0.05)
        train_set, test_set = split_dataset(data, 0.8, seed=7)
        assert len(train_set) == 160 and len(test_set) == 40
        ids = lambda xs: sorted(id(s) for s in xs)
        assert sorted(ids(train_set) + ids(test_set)) == ids(data)

    def test_stratified(self):
        data = make_dataset(seed=2, classes=5, n_per_class=10, dim=4, window=6, noise_sigma=0.05)
        train_set, test_set = split_dataset(data, 0.8, seed=8)
        for label in range(5):
            assert sum(s.label == label for s in train_set) == 8
            assert sum(s.label == label for s in test_set) == 2

    def test_deterministic(self):
        data = make_dataset(seed=3, classes=3, n_per_class=6, dim=4, window=6, noise_sigma=0.05)
        a = split_dataset(data, 0.7, seed=9)
        b = split_dataset(data, 0.7, seed=9)
        assert [s.label for s in a[0]] == [s.label for s in b[0]]
        assert all(np.array_equal(x.frames, y.frames) for x, y in zip(a[0], b[0]))

    def test_lonely_class_warns_into_train(self):
        rng = derive_rng(4, "lonely")
        data = [IsolatedSample(rng.normal(size=(6, 4)), 0) for _ in range(4)]
        data.append(IsolatedSample(rng.normal(size=(6, 4)), 1))
        with pytest.warns(UserWarning):
            train_set, test_set = split_dataset(data, 0.8, seed=10)
        assert sum(s.label == 1 for s in train_set) == 1
        assert sum(s.label == 1 for s in test_set) == 0

    def test_carve_validation_fraction(self):
        data = make_dataset(seed=5, classes=4, n_per_class=10, dim=4, window=6, noise_sigma=0.05)
        core, val = carve_validation(data, 0.1, seed=11)
        assert len(core) == 36 and len(val) == 4
        for label in range(4):
            assert sum(s.label == label for s in val) == 1


def _grads_like(weights, values):
    return ModelWeights(weights.config, np.asarray(values, dtype=np.float64))


class TestAdam:
    @pytest.fixture()
    def params(self, tiny_weights):
        return upcast(tiny_weights)

    def test_first_step_collapses_to_sign(self, params):
        cfg = TrainConfig(weight_decay=0.0)
        rng = derive_rng(1, "adam")
        g = rng.choice([-1.0, 1.0], size=params.flat.size) * rng.uniform(0.25, 1.0, size=params.flat.size)
        before = params.flat.copy()
        state = adam_step(params, _grads_like(params, g), None, lr=0.01, cfg=cfg)
        np.testing.assert_allclose(params.flat, before - 0.01 * np.sign(g), atol=0.01 * 1e-6, rtol=0)
        assert state.t == 1
        assert state.m.shape == state.v.shape == params.flat.shape

    def test_zero_gradient_identity(self, params):
        cfg = TrainConfig(weight_decay=0.0)
        zero = _grads_like(params, np.zeros(params.flat.size))
        before = params.flat.copy()
        state = adam_step(params, zero, None, lr=0.1, cfg=cfg)
        np.testing.assert_array_equal(params.flat, before)
        assert state.t == 1

    def test_decoupled_decay_applies_before_update(self, params):
        cfg = TrainConfig(weight_decay=0.5)
        zero = _grads_like(params, np.zeros(params.flat.size))
        before = params.flat.copy()
        adam_step(params, zero, None, lr=0.1, cfg=cfg)
        np.testing.assert_allclose(params.flat, before * (1 - 0.1 * 0.5), atol=1e-12, rtol=0)

    def test_quadratic_descends(self, params):
        cfg = TrainConfig(weight_decay=0.0)
        state = None
        losses = [float((params.flat**2).sum())]
        for _ in range(2):
            state = adam_step(params, _grads_like(params, 2.0 * params.flat), state, lr=0.005, cfg=cfg)
            losses.append(float((params.flat**2).sum()))
        assert losses[0] > losses[1] > losses[2]

    def test_updates_params_in_place_and_leaves_grads_untouched(self, params):
        flat = params.flat
        before = flat.copy()
        grads = _grads_like(params, np.full(params.flat.size, 0.3))
        state = adam_step(params, grads, None, lr=0.01, cfg=TrainConfig())
        assert params.flat is flat
        assert not np.array_equal(flat, before)
        np.testing.assert_array_equal(grads.flat, 0.3)
        assert state is adam_step(params, grads, state, lr=0.01, cfg=TrainConfig())
        assert state.t == 2

    def test_keeps_the_parameter_dtype(self, tiny_weights):
        params = ModelWeights(tiny_weights.config, tiny_weights.flat.copy())
        grads = _grads_like(params, np.full(params.flat.size, 0.3))
        state = adam_step(params, grads, None, lr=0.01, cfg=TrainConfig())
        assert params.flat.dtype == np.float32
        assert state.m.dtype == state.v.dtype == np.float64

    def test_non_finite_gradient_names_parameter(self, params):
        cfg = TrainConfig()
        grads = _grads_like(params, np.ones(params.flat.size))
        grads.head_w[0, 1] = np.nan
        with pytest.raises(NonFiniteGradientError) as exc:
            adam_step(params, grads, None, 0.01, cfg)
        assert "'head.w'" in str(exc.value)
        grads.layers[1].ff_b1[2] = np.inf
        with pytest.raises(NonFiniteGradientError, match="'layers.1.ff.b1'"):
            adam_step(params, grads, None, 0.01, cfg)

    def test_non_finite_gradient_leaves_the_state_as_it_was(self):
        # the gate's shape spans several blocks; the NaN sits in the last one
        mcfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
        params = init_weights(mcfg, 0)
        assert params.flat.size > 3 * ADAM_BLOCK
        cfg = TrainConfig()
        rng = derive_rng(2, "adam")
        state = adam_step(params, _grads_like(params, rng.normal(size=params.flat.size)), None, 0.01, cfg)
        p, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        grads = _grads_like(params, rng.normal(size=params.flat.size))
        grads.head_b[-1] = np.nan
        with pytest.raises(NonFiniteGradientError, match="'head.b'"):
            adam_step(params, grads, state, 0.01, cfg)
        np.testing.assert_array_equal(params.flat, p)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.t == 1

    def test_a_warm_step_at_the_cli_default_peaks_under_half_a_mib(self):
        """Parameters and moments are updated in place and every temporary
        is one 64 KiB block long; blocks of 256 KiB peaked at 1.0 MiB, and
        writing the parameters into a fresh float32 buffer at 10.05 MiB."""
        mcfg = ModelConfig(layers=12, heads=8, d_model=128, d_ff=512, window=50, input_dim=12, classes=10)
        params = init_weights(mcfg, 0)
        grads = _grads_like(params, derive_rng(3, "adam").normal(size=params.flat.size))
        cfg = TrainConfig()
        state = adam_step(params, grads, None, 0.005, cfg)  # the moments exist before the traced step
        tracemalloc.start()
        try:
            adam_step(params, grads, state, 0.005, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 / 2


def _whole_buffer_adam(p, g, m, v, t, lr, cfg):
    """Adam as one whole-buffer expression, as adam_step computed it before
    it walked the buffer in blocks; returns (params, m, v)."""
    p = p.astype(np.float64)
    if cfg.weight_decay:
        p = p - lr * cfg.weight_decay * p
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
    p = p - lr * (m / (1.0 - cfg.beta1**t)) / (np.sqrt(v / (1.0 - cfg.beta2**t)) + cfg.adam_eps)
    return p, m, v


_BLOCK_EDGES = [k * ADAM_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(
    size=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 3 * ADAM_BLOCK + 100)),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.3]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_update_equals_the_whole_buffer_expression(size, weight_decay, dtype, seed):
    cfg = TrainConfig(weight_decay=weight_decay)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, size).astype(dtype)
    state = AdamState(np.zeros(size), np.zeros(size), 0)
    ref_p, ref_m, ref_v = p.copy(), np.zeros(size), np.zeros(size)
    for t in (1, 2, 3):
        # gradients over many scales, so eps matters for some entries
        g = rng.normal(size=size) * 10.0 ** rng.integers(-9, 3, size)
        lr = float(10.0 ** rng.uniform(-4, -1))
        g_before = g.copy()
        _adam_update(p, g, state, lr, cfg)  # p in place
        np.testing.assert_array_equal(g, g_before)
        ref_p, ref_m, ref_v = _whole_buffer_adam(ref_p, g, ref_m, ref_v, t, lr, cfg)
        ref_p = ref_p.astype(dtype)
        assert p.dtype == dtype and state.t == t
        np.testing.assert_array_equal(p, ref_p)
        np.testing.assert_array_equal(state.m, ref_m)
        np.testing.assert_array_equal(state.v, ref_v)


def small_setup(seed, classes=3, n=8, window=8, dim=4):
    data = make_dataset(seed=derive_seed(seed, "data"), classes=classes, n_per_class=n, dim=dim, window=window, noise_sigma=0.05)
    train_set, test_set = split_dataset(data, 0.75, derive_seed(seed, "split"))
    core, val = carve_validation(train_set, 0.15, derive_seed(seed, "val"))
    mcfg = ModelConfig(layers=1, heads=2, d_model=8, d_ff=16, window=window, input_dim=dim, classes=classes)
    return core, val, test_set, mcfg


class TestTrainLoop:
    def test_zero_epochs_returns_initial_weights(self):
        core, val, _, mcfg = small_setup(1)
        tcfg = TrainConfig(seed=5, max_epochs=0)
        weights, history = train(core, val, mcfg, tcfg)
        assert history.records == []
        assert history.best_epoch == -1
        assert save_weights(weights) == save_weights(init_weights(mcfg, derive_seed(5, "init")))

    def test_bit_reproducible(self):
        core, val, _, mcfg = small_setup(2)
        tcfg = TrainConfig(seed=6, max_epochs=4, batch_size=8)
        w1, h1 = train(core, val, mcfg, tcfg)
        w2, h2 = train(core, val, mcfg, tcfg)
        assert h1.records == h2.records
        assert save_weights(w1) == save_weights(w2)

    def test_history_follows_schedule(self):
        core, val, _, mcfg = small_setup(3)
        tcfg = TrainConfig(seed=7, max_epochs=12, batch_size=8, lr_decay_every=4)
        _, history = train(core, val, mcfg, tcfg)
        for record in history.records:
            assert record.lr == lr_at_epoch(tcfg, record.epoch)

    def test_returned_weights_hit_best_validation(self):
        core, val, _, mcfg = small_setup(4)
        tcfg = TrainConfig(seed=8, max_epochs=10, batch_size=8, early_stop_patience=3)
        weights, history = train(core, val, mcfg, tcfg)
        best = max(r.val_accuracy for r in history.records)
        assert history.records[history.best_epoch].val_accuracy == best
        np.testing.assert_allclose(evaluate_isolated(weights, val), best)

    def test_early_stopping_cuts_run_short(self):
        core, val, _, mcfg = small_setup(5)
        tcfg = TrainConfig(seed=9, max_epochs=60, batch_size=8, early_stop_patience=2)
        _, history = train(core, val, mcfg, tcfg)
        assert len(history.records) < 60
        last = history.records[-1].epoch
        assert last - history.best_epoch >= 2

    def test_tiny_run_reaches_bar(self):
        """C=3, 20 per class, W=10: validation should hit 0.95 inside 60 epochs."""
        data = make_dataset(seed=derive_seed(7, "data"), classes=3, n_per_class=20, dim=6, window=10, noise_sigma=0.05)
        train_set, _ = split_dataset(data, 0.8, derive_seed(7, "split"))
        core, val = carve_validation(train_set, 0.1, derive_seed(7, "val"))
        mcfg = ModelConfig(layers=2, heads=2, d_model=32, d_ff=128, window=10, input_dim=6, classes=3)
        tcfg = TrainConfig(seed=derive_seed(7, "train"), max_epochs=60)
        _, history = train(core, val, mcfg, tcfg)
        assert max(r.val_accuracy for r in history.records) >= 0.95

    def test_nan_frame_names_the_first_parameter(self):
        core, val, _, mcfg = small_setup(8)
        frames = core[0].frames.copy()
        frames[2, 1] = np.nan
        poisoned = [IsolatedSample(frames, core[0].label)] + core[1:]
        with pytest.raises(NonFiniteGradientError, match="'embed.w'"):
            train(poisoned, val, mcfg, TrainConfig(seed=3, max_epochs=2, batch_size=8))

    def test_peak_memory_stays_a_few_parameter_buffers(self):
        """A step adds every item's gradient into one float64 sum; one buffer
        per item made the peak of two epochs at the gate's shape 109x the
        float64 parameter buffer."""
        mcfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
        data = make_dataset(derive_seed(9, "data"), 10, 20, mcfg.input_dim, mcfg.window, 0.05)
        train_set, _ = split_dataset(data, 0.8, derive_seed(9, "split"))
        core, val = carve_validation(train_set, 0.1, derive_seed(9, "val"))
        tracemalloc.start()
        try:
            train(core, val, mcfg, TrainConfig(seed=9, max_epochs=2, batch_size=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * param_count(mcfg) * 8

    def test_step_peak_does_not_grow_with_the_batch(self):
        """backward holds the activations of one FORWARD_CHUNK of items at a
        time, so a 64-item step peaks within one chunk's of an 8-item step."""
        mcfg = ModelConfig(layers=2, heads=4, d_model=32, d_ff=64, window=16, input_dim=6, classes=4)
        data = make_dataset(derive_seed(10, "data"), mcfg.classes, 20, mcfg.input_dim, mcfg.window, 0.05)
        core, val = carve_validation(data, 0.1, derive_seed(10, "val"))

        def peak(batch_size):
            tracemalloc.start()
            try:
                train(core, val, mcfg, TrainConfig(seed=10, max_epochs=1, batch_size=batch_size))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # float32 caches per window and layer: eight (window, d_model)
        # arrays, the attention weights and the feed-forward activations
        per_window = mcfg.layers * mcfg.window * (8 * mcfg.d_model + mcfg.heads * mcfg.window + mcfg.d_ff) * 4
        assert len(core) >= 64
        peak(8)  # first-call allocations (caches, lazy imports) stay out of the comparison
        assert peak(64) <= peak(8) + FORWARD_CHUNK * per_window

    def test_one_backward_call_per_mini_batch(self, monkeypatch):
        # backward chunks a mini-batch itself; the benchmark's per-call
        # backward figures count mini-batches
        core, val, _, mcfg = small_setup(4, n=16)
        seen = []
        backward = signseg.training.backward
        monkeypatch.setattr(
            signseg.training, "backward", lambda samples, *a, **k: seen.append(len(samples)) or backward(samples, *a, **k)
        )
        batch_size = 2 * FORWARD_CHUNK + 3
        train(core, val, mcfg, TrainConfig(seed=4, max_epochs=2, batch_size=batch_size))
        items = len(core) + (len(core) + 3) // 4  # an epoch is 1.25 times the training set
        assert seen == [min(batch_size, items - start) for start in range(0, items, batch_size)] * 2

    # whole chunks of validation windows, and a part chunk after two whole ones
    @pytest.mark.parametrize("val_size", [2 * FORWARD_CHUNK, 2 * FORWARD_CHUNK + 3])
    def test_one_workspace_per_run_serves_validation_too(self, monkeypatch, val_size):
        core, val, _, mcfg = small_setup(6, n=30)
        core, val = core[val_size - len(val) :], val + core[: val_size - len(val)]
        assert len(val) == val_size and len({s.label for s in val}) == mcfg.classes
        tcfg = TrainConfig(seed=6, max_epochs=3, batch_size=2 * FORWARD_CHUNK + 3)
        made = []

        class Counted(Workspace):
            def __init__(self):
                made.append(self)
                super().__init__()

        for module in (signseg.model, signseg.gradients, signseg.training):
            monkeypatch.setattr(module, "Workspace", Counted)
        weights, history = train(core, val, mcfg, tcfg)
        assert len(made) == 1, f"{len(made)} workspaces"
        monkeypatch.undo()
        # the same run with validation making a workspace per call,
        # through weights over the same buffer that carry no workspace
        forward_probs = signseg.training.forward_probs
        monkeypatch.setattr(
            signseg.training, "forward_probs", lambda w, frames: forward_probs(ModelWeights(w.config, w.flat), frames)
        )
        fresh_weights, fresh_history = train(core, val, mcfg, tcfg)
        assert weights.flat.tobytes() == fresh_weights.flat.tobytes()
        assert history == fresh_history

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_no_built_or_returned_weights_carry_a_workspace(self, tmp_path, epochs):
        # only train() sets the field, on its own parameters and for its run
        core, val, _, mcfg = small_setup(7)
        weights, _ = train(core, val, mcfg, TrainConfig(seed=7, max_epochs=epochs, batch_size=8))
        backward(core[0], weights)  # makes a workspace for the call and keeps none
        save_weights_file(weights, tmp_path / "w.bin")
        built = [weights, init_weights(mcfg, 7), upcast(weights), load_weights(save_weights(weights)),
                 load_weights_file(tmp_path / "w.bin"), ModelWeights(mcfg, weights.flat)]
        assert [w.workspace for w in built] == [None] * len(built)
        assert "workspace" not in repr(weights)

    def test_an_epochs_windows_are_freed_before_validation(self, monkeypatch):
        # windows are cut one mini-batch at a time, just before its backward
        # call, and the last batch's are gone when validation runs
        core, val, _, mcfg = small_setup(5)
        cut, at_backward, at_validation = [], [], []
        window, backward = signseg.training.straddle_window, signseg.training.backward
        evaluate = signseg.training.evaluate_isolated

        def recorded(*args):
            out = window(*args)
            cut.append(weakref.ref(out[0].frames))
            return out

        def alive():  # training's windows: validation's straddles are cut before any epoch
            return sum(ref() is not None for ref in cut[len(val) :])

        def backward_spy(samples, weights, targets, **kwargs):
            at_backward.append((alive(), sum(t is not None for t in targets)))  # this batch's windows
            return backward(samples, weights, targets, **kwargs)

        def evaluated(*args, **kwargs):
            at_validation.append(alive())
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(signseg.training, "straddle_window", recorded)
        monkeypatch.setattr(signseg.training, "backward", backward_spy)
        monkeypatch.setattr(signseg.training, "evaluate_isolated", evaluated)
        # the second epoch trains on boundaries: more straddling windows than a batch
        train(core, val, mcfg, TrainConfig(seed=5, max_epochs=2, batch_size=8, lr_decay_every=1))
        assert len(cut) - len(val) > 8  # more than one batch of windows in all
        assert all(alive == own for alive, own in at_backward), at_backward
        assert at_validation == [0, 0]

    def test_peak_does_not_grow_with_the_training_set(self):
        """An epoch's straddling windows are cut one mini-batch at a time, so
        two epochs at the gate's shape, the second on boundaries, peak within
        0.25 MiB at about 780 training samples of the peak at about 180.
        Cutting every window when the epoch began read 13.21 against
        10.20 MiB."""
        mcfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
        data = make_dataset(derive_seed(11, "data"), mcfg.classes, 80, mcfg.input_dim, mcfg.window, 0.05)
        large, val = carve_validation(data, 0.025, derive_seed(11, "val"))
        small = [s for label in range(mcfg.classes) for s in [s for s in large if s.label == label][:18]]
        assert (len(small), len(large), len(val)) == (180, 780, 20)
        tcfg = TrainConfig(seed=11, max_epochs=2, lr_decay_every=1)

        def peak(core):
            tracemalloc.start()
            try:
                train(core, val, mcfg, tcfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(small)  # first-call allocations (caches, lazy imports) stay out of the comparison
        assert peak(large) - peak(small) <= 2**20 / 4

    @pytest.mark.parametrize("label", [-1, "classes", 2.5, True], ids=["-1", "classes", "2.5", "True"])
    @pytest.mark.parametrize("where", ["train", "validation"])
    def test_a_label_that_is_no_class_index_is_rejected_by_name(self, label, where):
        core, val, _, mcfg = small_setup(7)
        label = mcfg.classes if label == "classes" else label
        bad = [core[0], IsolatedSample(core[1].frames, label)]
        sets = (bad + core[2:], val) if where == "train" else (core, bad + val[2:])
        with pytest.raises(ValueError, match=rf"^{where} sample 1 label {label!r} is not a class index"):
            train(*sets, mcfg, TrainConfig(seed=1, max_epochs=1))

    def test_one_frame_windows_train_on_the_plain_set(self, monkeypatch):
        # a one-frame window cannot straddle two signs: each epoch is the
        # shuffled training set, and the straddling validation loss is 0.0
        mcfg = ModelConfig(layers=1, heads=2, d_model=8, d_ff=16, window=1, input_dim=4, classes=3)
        data = [
            IsolatedSample(s.frames[:1], s.label)
            for s in make_dataset(seed=3, classes=3, n_per_class=4, dim=4, window=2, noise_sigma=0.05)
        ]
        core, val = [s for i, s in enumerate(data) if i % 4], data[::4]
        seen = []
        backward = signseg.training.backward
        monkeypatch.setattr(
            signseg.training, "backward", lambda samples, *a, **k: seen.append(len(samples)) or backward(samples, *a, **k)
        )
        per_epoch = []
        _, history = train(
            core, val, mcfg, TrainConfig(seed=2, max_epochs=2, batch_size=4),
            on_epoch=lambda r: per_epoch.append(sum(seen) - sum(per_epoch)),
        )
        assert per_epoch == [len(core), len(core)]
        assert [r.val_straddle_loss for r in history.records] == [0.0, 0.0]

    def test_empty_dataset_rejected(self):
        _, val, _, mcfg = small_setup(7)
        with pytest.raises(ValueError):
            train([], val, mcfg, TrainConfig(seed=1))


def _ramp(label, window=10, dim=2):
    """Frames whose first column numbers the frames, tagged by label."""
    frames = np.zeros((window, dim))
    frames[:, 0] = np.arange(window)
    frames[:, 1] = label
    return IsolatedSample(frames, label)


class TestStraddles:
    def test_frames_are_tail_then_head(self):
        a, b = _ramp(0), _ramp(2)
        sample, _ = straddle_window(a, b, 3, classes=4)
        np.testing.assert_array_equal(sample.frames, np.concatenate([a.frames[3:], b.frames[:3]]))

    def test_target_on_both_sides_of_the_majority_share(self):
        assert STRADDLE_MAJORITY == 0.7
        a, b = _ramp(0), _ramp(2)
        # window 10: shift 3 leaves 70% to the first sign, shift 4 only 60%
        sample, target = straddle_window(a, b, 3, classes=4)
        assert sample.label == 0
        np.testing.assert_array_equal(target, [1.0, 0.0, 0.0, 0.0])
        for shift in (4, 5, 6):
            _, target = straddle_window(a, b, shift, classes=4)
            np.testing.assert_array_equal(target, np.full(4, 0.25))
        sample, target = straddle_window(a, b, 7, classes=4)
        assert sample.label == 2
        np.testing.assert_array_equal(target, [0.0, 0.0, 1.0, 0.0])

    def test_uniform_target_reads_as_blank(self):
        _, target = straddle_window(_ramp(0), _ramp(1), 5, classes=2)
        assert target.max() < 0.51

    def test_shift_must_leave_both_signs(self):
        a, b = _ramp(0), _ramp(1)
        for shift in (0, 10):
            with pytest.raises(ValueError):
                straddle_window(a, b, shift, classes=2)

    @pytest.mark.parametrize("shift", [10, 25])
    @pytest.mark.parametrize("label", [-1, 2.5, "1", 7], ids=repr)
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_a_label_that_is_no_class_index_is_named(self, which, label, shift):
        # with classes=3, a first label of -1 used to train on class 2's
        # one-hot target; at shift 10, 2.5, "1" and 7 raised numpy's bare
        # IndexError, and at shift 25, 2.5 came back labelled 2
        good, bad = _ramp(0, window=50), IsolatedSample(np.zeros((50, 2)), label)
        pair = (bad, good) if which == "first" else (good, bad)
        message = rf"^{which} sample label {re.escape(repr(label))} is not a class index in \[0, 3\)$"
        with pytest.raises(ValueError, match=message):
            straddle_window(*pair, shift, classes=3)
        with pytest.raises(ValueError, match=r"^(first|second) sample label .* is not a class index"):
            draw_straddles([good, bad], 5, derive_rng(1, "straddle"), classes=3)

    def test_draws_pair_different_classes(self):
        samples = [_ramp(label) for label in (0, 0, 1, 2)]
        for sample, target in draw_straddles(samples, 50, derive_rng(1, "straddle"), classes=3):
            labels = sample.frames[:, 1]
            first, second = labels[0], labels[-1]
            assert first != second
            shift = int((labels == second).sum())
            assert 1 <= shift <= 9
            np.testing.assert_array_equal(sample.frames[:, 0], np.r_[np.arange(shift, 10), np.arange(shift)])
            np.testing.assert_allclose(target.sum(), 1.0)

    def test_stream_is_a_pure_function_of_the_seed(self):
        samples = make_dataset(seed=3, classes=3, n_per_class=4, dim=4, window=8, noise_sigma=0.05)

        def draw(seed):
            return draw_straddles(samples, 20, derive_rng(seed, "straddle"), classes=3)

        a, b, other = draw(5), draw(5), draw(6)
        for (sa, ta), (sb, tb) in zip(a, b):
            assert sa.frames.tobytes() == sb.frames.tobytes()
            assert ta.tobytes() == tb.tobytes()
        assert any(sa.frames.tobytes() != so.frames.tobytes() for (sa, _), (so, _) in zip(a, other))

    def test_one_class_has_no_straddles(self):
        for samples in ([_ramp(1), _ramp(1)], []):
            assert draw_straddles(samples, 5, derive_rng(1, "straddle"), classes=2) == []

    def test_epoch_holds_a_quarter_more_windows(self):
        samples = make_dataset(seed=4, classes=3, n_per_class=4, dim=4, window=8, noise_sigma=0.05)
        order = derive_rng(2, "shuffle").permutation(len(samples))
        rng = derive_rng(1, "straddle")
        signs = _cut(samples, _epoch_items(samples, order, rng, boundaries=False), 3)
        assert len(signs) == 15
        assert sum(t is None for _, t in signs) == 12
        assert {id(s) for s, t in signs if t is None} == {id(s) for s in samples}
        boundary = _cut(samples, _epoch_items(samples, order, rng, boundaries=True), 3)
        assert len(boundary) == 15
        assert {id(s) for s, t in boundary if t is None} == {id(samples[i]) for i in order[:3]}


class TestSelection:
    def test_a_later_tied_epoch_is_returned(self):
        core, val, _, mcfg = small_setup(3)
        tcfg = TrainConfig(seed=3, max_epochs=30, batch_size=8, early_stop_patience=5)
        weights, history = train(core, val, mcfg, tcfg)
        best = max(r.val_accuracy for r in history.records)
        first = next(r for r in history.records if r.val_accuracy == best)
        chosen = history.records[history.best_epoch]
        assert chosen.epoch > first.epoch
        assert chosen.val_accuracy == best
        assert chosen.val_straddle_loss < first.val_straddle_loss
        # the record scores exactly the float32 weights that are returned
        assert weights.flat.dtype == np.float32
        assert evaluate_isolated(weights, val) == best
        val_straddles = draw_straddles(val, len(val), derive_rng(tcfg.seed, "val-straddle"), mcfg.classes)
        assert _mean_loss(weights, val_straddles) == chosen.val_straddle_loss


class TestEvaluate:
    def test_chance_level_over_many_inits(self):
        data = make_dataset(seed=derive_seed(5, "data"), classes=10, n_per_class=50, dim=6, window=10, noise_sigma=0.05)
        mcfg = ModelConfig(layers=1, heads=2, d_model=16, d_ff=32, window=10, input_dim=6, classes=10)
        accs = [
            evaluate_isolated(init_weights(mcfg, derive_seed(5, "init", k)), data)
            for k in range(10)
        ]
        assert abs(np.mean(accs) - 0.1) <= 0.05

    def test_empty_rejected(self, tiny_weights):
        with pytest.raises(ValueError):
            evaluate_isolated(tiny_weights, [])

    def test_mixed_shapes_rejected_by_name(self, tiny_mcfg, tiny_weights, tiny_sample):
        short = IsolatedSample(tiny_sample.frames[:-1], 0)
        with pytest.raises(ShapeError, match=r"frames have shape \(3, 6\), expected \(4, 6\)"):
            evaluate_isolated(tiny_weights, [tiny_sample, short])


def test_history_to_csv_schema():
    core, val, _, mcfg = small_setup(8)
    tcfg = TrainConfig(seed=11, max_epochs=2, batch_size=8)
    _, history = train(core, val, mcfg, tcfg)
    lines = history_to_csv(history).strip().split("\n")
    assert lines[0] == "epoch,loss,val_accuracy,lr,val_straddle_loss"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == tcfg.lr0


class TestAblate:
    def test_grid_order_and_labels(self):
        core, val, test_set, mcfg = small_setup(9)
        base = dataclasses.replace(mcfg, d_model=8, heads=2)
        tcfg = TrainConfig(seed=12, max_epochs=2, batch_size=8)
        rows = ablate([1, 2], [2, 4], [("synthetic", core + val, test_set)], base, tcfg)
        assert [(r.layers, r.heads) for r in rows] == [(1, 2), (1, 4), (2, 2), (2, 4)]
        assert rows[0].label == "1 layer with 2 heads"
        assert rows[3].label == "2 layers with 4 heads"
        for row in rows:
            assert row.error is None
            assert 0.0 <= row.accuracies["synthetic"] <= 1.0

    def test_indivisible_heads_recorded_not_fatal(self):
        core, val, test_set, mcfg = small_setup(10)
        tcfg = TrainConfig(seed=13, max_epochs=2, batch_size=8)
        rows = ablate([1], [2, 3], [("synthetic", core + val, test_set)], mcfg, tcfg)
        assert rows[0].error is None
        assert rows[1].error is not None
        assert rows[1].accuracies == {"synthetic": None}
        csv = ablation_to_csv(rows, ["synthetic"])
        assert "config-error" in csv

    def test_csv_schema_and_determinism(self):
        core, val, test_set, mcfg = small_setup(11)
        tcfg = TrainConfig(seed=14, max_epochs=2, batch_size=8)
        args = ([1], [2], [("synthetic", core + val, test_set)], mcfg, tcfg)
        a = ablation_to_csv(ablate(*args), ["synthetic"])
        b = ablation_to_csv(ablate(*args), ["synthetic"])
        assert a == b
        header, row = a.strip().split("\n")
        assert header == "Model,synthetic"
        name, cell = row.split(",")
        assert name == "1 layer with 2 heads"
        float(cell)  # percent with two decimals
        assert "." in cell

    def test_empty_choices_rejected(self):
        core, val, test_set, mcfg = small_setup(12)
        with pytest.raises(ValueError):
            ablate([], [2], [("synthetic", core + val, test_set)], mcfg, TrainConfig(seed=1))


def _numbers_setup(tiny_weights, tiny_sample):
    data = make_dataset(seed=1, classes=2, n_per_class=4, dim=3, window=5, noise_sigma=0.0)
    wp = [WindowProb(0, np.array([0.9, 0.1]))]
    stream = ContinuousStream(tiny_sample.frames, [1])
    proto = make_class_prototype(1, 0, 3)
    return {
        "split_dataset": lambda value: split_dataset(data, value, 0),
        "carve_validation": lambda value: carve_validation(data, value),
        "post_process": lambda value: post_process(wp, value),
        "segment_report": lambda value: segment_report(tiny_weights, [stream], 4, threshold=value),
        "gradient_check": lambda value: gradient_check(tiny_weights, tiny_sample, epsilon=value),
        "sample_instance": lambda value: sample_instance(proto, 0, value, 5),
    }


@pytest.mark.parametrize("value", ["0.5", None, True], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [("split_dataset", "ratio"), ("carve_validation", "fraction"), ("post_process", "threshold"),
     ("segment_report", "threshold"), ("gradient_check", "epsilon"), ("sample_instance", "noise_sigma")],
)
def test_a_real_argument_that_is_not_a_number_is_named(tiny_weights, tiny_sample, call, name, value):
    # each used to raise a bare TypeError from inside a comparison or a subtraction
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got {value!r}$"):
        _numbers_setup(tiny_weights, tiny_sample)[call](value)


@pytest.mark.parametrize("fraction", [1.5, 0.0, 1.0, -0.5])
def test_a_validation_fraction_out_of_range_is_named(tiny_weights, tiny_sample, fraction):
    # each used to be checked as the split ratio 1 - fraction: 1.5 read "ratio must be in (0, 1), got -0.5"
    named = rf"^fraction must be in \(0, 1\), got {fraction}$"
    with pytest.raises(ValueError, match=named):
        _numbers_setup(tiny_weights, tiny_sample)["carve_validation"](fraction)
    core, val, test_set, mcfg = small_setup(12)
    with pytest.raises(ValueError, match=named):
        ablate([1], [2], [("synthetic", core + val, test_set)], mcfg, TrainConfig(seed=1), val_fraction=fraction)


@pytest.mark.parametrize("fraction", [1e-17, 2**-54])
def test_a_validation_fraction_whose_complement_rounds_to_one_is_named(tiny_weights, tiny_sample, fraction):
    # each used to raise "ratio must be in (0, 1), got 1.0", naming an argument the caller never passed
    with pytest.raises(ValueError, match=rf"^fraction must be > 2\*\*-54 so that 1 - fraction stays below 1, got {fraction}$"):
        _numbers_setup(tiny_weights, tiny_sample)["carve_validation"](fraction)


HUGE = 10**5000  # past Python's 4,300-digit limit on printing an int


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda w, s: TrainConfig(lr0=HUGE), ConfigError, "lr0 must be finite, got an integer of about 5001 digits"),
        (lambda w, s: post_process([WindowProb(0, np.array([0.9, 0.1]))], HUGE), ValueError,
         "threshold must be in (0, 1), got an integer of about 5001 digits"),
        (lambda w, s: check_counts(1, window=-HUGE), ValueError,
         "window must be >= 1, got a negative integer of about 5001 digits"),
        (lambda w, s: slide(np.zeros((5, 2)), HUGE), StreamTooShortError,
         "stream has 5 frames, one window needs an integer of about 5001 digits"),
        (lambda w, s: ModelConfig(layers=1, heads=1, d_model=HUGE + 1, d_ff=1, window=1, input_dim=1, classes=1),
         ConfigError, "d_model must be even for sinusoidal position codes, got an integer of about 5001 digits"),
        (lambda w, s: straddle_window(s, s, HUGE, 3), ValueError,
         "shift must be in [1, 4), got an integer of about 5001 digits"),
        (lambda w, s: backward(IsolatedSample(s.frames, HUGE), w), ValueError,
         "sample 0 label an integer of about 5001 digits is not a class index in [0, 3)"),
        (lambda w, s: build_streams([s], 1, HUGE, 0), ValueError,
         "signs_per_stream an integer of about 5001 digits exceeds the 1 distinct labels available"),
        (lambda w, s: split_dataset([IsolatedSample(s.frames, -HUGE)], 0.8, 0), ValueError,
         "sample 0 label a negative integer of about 5001 digits is not a class index >= 0"),
    ],
    ids=["check_rules", "check_reals", "check_counts", "slide", "ModelConfig", "straddle_window", "check_label",
         "build_streams", "class_labels"],
)
def test_an_integer_too_long_to_print_is_shown_by_its_size(tiny_weights, tiny_sample, call, error, message):
    # each used to raise Python's bare "Exceeds the limit (4300 digits) for integer string conversion"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tiny_weights, tiny_sample)


def test_a_lone_class_too_long_to_print_is_warned_by_its_size(tiny_sample):
    data = [IsolatedSample(tiny_sample.frames, c % 2) for c in range(4)] + [IsolatedSample(tiny_sample.frames, HUGE)]
    message = "class an integer of about 5001 digits has 1 sample(s); keeping it in train only"
    with pytest.warns(UserWarning, match=f"^{re.escape(message)}$"):
        train_set, test_set = split_dataset(data, 0.8, 0)
    assert train_set[-1].label == HUGE and len(test_set) == 2


def test_a_class_index_comes_back_as_a_python_int():
    index = class_index(np.int64(2), "x", 3)
    assert type(index) is int and index == 2


@pytest.mark.parametrize("label", [1.9, 2.5, "1", True, -1], ids=repr)
def test_a_label_that_is_not_a_class_index_is_rejected_before_use(tiny_weights, tiny_sample, label):
    # each used to read the label through int(): 1.9 scored as class 1, and
    # 1, 1.5, "1" and True grouped as one class
    rng = derive_rng(12, "labels")
    data = [IsolatedSample(rng.normal(size=tiny_sample.frames.shape), c % 3) for c in range(6)]
    data.append(IsolatedSample(tiny_sample.frames, label))
    named = rf"^sample 6 label {re.escape(repr(label))} is not a class index"
    with pytest.raises(ValueError, match=named + r" in \[0, 3\)$"):
        evaluate_isolated(tiny_weights, data)
    for build in (
        lambda: split_dataset(data, 0.5, 0),
        lambda: build_streams(data, 1, 2, 0),
        lambda: concat_isolated(data),
    ):
        with pytest.raises(ValueError, match=named + " >= 0$"):
            build()
