"""Release gate: one test per shipping requirement.

Run with -v to get a pass/fail line per requirement. Each test states its
bound inline; tolerances are part of the requirement, not tunables.
"""
import time

import numpy as np
import pytest

from signseg import (
    ModelConfig,
    TrainConfig,
    WindowProb,
    WeightsMagicError,
    WeightsTruncationError,
    WeightsVersionError,
    attention_weights,
    build_streams,
    encoder_forward,
    evaluate_isolated,
    forward_probs,
    gradient_check,
    init_weights,
    lr_at_epoch,
    make_dataset,
    post_process,
    segment_report,
    softmax,
    split_dataset,
    train,
)
from signseg.model import weights_to_dict
from signseg.seeding import derive_rng, derive_seed
from signseg.serialize import load_weights, save_weights
from signseg.training import ablate, ablation_to_csv, carve_validation


def test_gradients_match_finite_differences(tiny_mcfg, tiny_weights, tiny_sample):
    # full-coordinate sweep on the 2-layer, 2-head, d_model 8 reference
    # shape; must finish on one core inside a minute
    start = time.monotonic()
    err = gradient_check(tiny_weights, tiny_sample, epsilon=1e-4)
    elapsed = time.monotonic() - start
    assert err < 1e-4, f"max relative error {err:.3e} exceeds 1e-4"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"


def test_probability_rows_are_normalized():
    rng = derive_rng(2026, "normalization")
    for _ in range(1000):
        width = int(rng.integers(2, 40))
        scale = float(10.0 ** rng.uniform(-3, 3))
        p = softmax(rng.normal(size=width) * scale)
        assert abs(p.sum() - 1.0) < 1e-9
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        d_k = int(rng.integers(1, 16))
        scale = float(10.0 ** rng.uniform(-2, 2))
        w = attention_weights(
            rng.normal(size=(m, d_k)) * scale, rng.normal(size=(n, d_k)) * scale, d_k
        )
        np.testing.assert_allclose(w.sum(axis=1), np.ones(m), atol=1e-9)


def test_encoder_is_permutation_equivariant_without_positions():
    mcfg = ModelConfig(layers=2, heads=2, d_model=8, d_ff=16, window=16, input_dim=6, classes=3)
    weights = init_weights(mcfg, derive_seed(2026, "init"))
    rng = derive_rng(2026, "permute")
    frames = rng.normal(size=(16, 6))
    base = encoder_forward(frames, weights, use_positions=False)
    worst = 0.0
    for _ in range(100):
        perm = rng.permutation(16)
        out = encoder_forward(frames[perm], weights, use_positions=False)
        worst = max(worst, float(np.abs(out - base[perm]).max()))
    assert worst < 1e-6, f"max deviation {worst:.3e} exceeds 1e-6"


def _reference_decode(rows, threshold):
    emitted = []
    for index, row in enumerate(rows):
        label = int(np.argmax(row))
        if row[label] >= threshold:
            emitted.append((index, label, float(row[label])))
    decoded = []
    for index, label, prob in emitted:
        if not decoded or decoded[-1][1] != label:
            decoded.append((index, label, prob))
    return [(label, index, prob) for index, label, prob in decoded]


def _decoder_corpus(random_prob_rows):
    rng = derive_rng(2026, "decoder")
    corpus = []
    for _ in range(1000):
        classes = int(rng.choice([3, 10, 100]))
        length = int(rng.integers(1, 201))
        corpus.append(random_prob_rows(rng, length, classes))
    return corpus


def test_decoder_equals_reference_and_is_threshold_monotone(random_prob_rows):
    corpus = _decoder_corpus(random_prob_rows)
    for rows in corpus:
        wp = [WindowProb(i, r) for i, r in enumerate(rows)]
        got = [(d.label, d.window_index, d.prob) for d in post_process(wp, 0.51)]
        assert got == _reference_decode(rows, 0.51)
    thresholds = [0.51, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
    for rows in corpus:
        wp = [WindowProb(i, r) for i, r in enumerate(rows)]
        counts = [len(post_process(wp, t)) for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_default_threshold_admits_at_most_one_class_per_window(tiny_mcfg, tiny_weights, random_prob_rows):
    # rows sum to one, so 0.51 can only be cleared once; checked on random
    # rows and on live model outputs
    for rows in _decoder_corpus(random_prob_rows)[:300]:
        assert ((rows >= 0.51).sum(axis=1) <= 1).all()
    rng = derive_rng(2026, "exclusive")
    for _ in range(100):
        probs = forward_probs(tiny_weights, rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim)))
        assert (probs >= 0.51).sum() <= 1


def test_end_to_end_synthetic_pipeline():
    start = time.monotonic()
    seed = 42
    data = make_dataset(
        seed=derive_seed(seed, "data"), classes=10, n_per_class=20, dim=12, window=50, noise_sigma=0.05
    )
    train_all, test_set = split_dataset(data, 0.8, derive_seed(seed, "split"))
    core, val = carve_validation(train_all, 0.1, derive_seed(seed, "val"))
    mcfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
    tcfg = TrainConfig(seed=derive_seed(seed, "train"))
    weights, history = train(core, val, mcfg, tcfg)

    accuracy = evaluate_isolated(weights, test_set)
    streams = build_streams(test_set, n_streams=20, signs_per_stream=10, seed=derive_seed(seed, "streams"))
    report = segment_report(weights, streams, window=50, stride=1, threshold=0.51)
    elapsed = time.monotonic() - start

    total_signs = sum(len(s.gt_labels) for s in streams)
    budget = 0.05 * total_signs
    measured = (
        f"accuracy={accuracy:.4f} false_with_pp={report.false_with_pp} "
        f"false_without_pp={report.false_without_pp} sign_budget={budget:.0f} "
        f"elapsed={elapsed:.0f}s epochs={len(history.records)}"
    )
    failures = []
    if not accuracy >= 0.95:
        failures.append(f"isolated test accuracy {accuracy:.4f} < 0.95")
    if not report.false_with_pp < report.false_without_pp:
        failures.append(
            f"post-processing did not reduce false recognitions "
            f"({report.false_with_pp} vs {report.false_without_pp})"
        )
    if not elapsed < 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    if not report.false_with_pp <= budget:
        failures.append(
            f"false recognitions with post-processing {report.false_with_pp} exceed "
            f"5% of {total_signs} signs ({budget:.0f})"
        )
    assert not failures, "; ".join(failures) + f" [{measured}]"


def test_ablation_grid_schema_and_byte_identical_rerun():
    data = make_dataset(
        seed=derive_seed(7, "data"), classes=3, n_per_class=6, dim=6, window=10, noise_sigma=0.02
    )
    train_all, test_set = split_dataset(data, 0.8, derive_seed(7, "split"))
    mcfg = ModelConfig(layers=1, heads=4, d_model=32, d_ff=64, window=10, input_dim=6, classes=3)
    tcfg = TrainConfig(seed=derive_seed(7, "train"), max_epochs=4, batch_size=8)

    def run():
        rows = ablate([1, 2], [4, 8], [("synthetic", train_all, test_set)], mcfg, tcfg, val_fraction=0.2)
        return rows, ablation_to_csv(rows, ["synthetic"])

    rows, csv_a = run()
    _, csv_b = run()
    lines = csv_a.strip().split("\n")
    assert lines[0] == "Model,synthetic"
    assert [r.label for r in rows] == [
        "1 layer with 4 heads",
        "1 layer with 8 heads",
        "2 layers with 4 heads",
        "2 layers with 8 heads",
    ]
    assert len(lines) == 5
    for line in lines[1:]:
        cell = line.split(",")[1]
        assert cell == "config-error" or 0.0 <= float(cell) <= 100.0
    assert csv_a == csv_b, "rerun with the same seed must be byte-identical"


def test_weights_serialization_roundtrip_and_corruption(tiny_weights):
    blob = save_weights(tiny_weights)
    restored = load_weights(blob)
    for name, value in weights_to_dict(tiny_weights).items():
        got = weights_to_dict(restored)[name]
        assert got.tobytes() == value.tobytes(), f"{name} not bit-identical"

    with pytest.raises(WeightsMagicError):
        load_weights(b"XXXXXX" + blob[6:])
    version_bumped = blob[:6] + bytes([blob[6] + 1]) + blob[7:]
    with pytest.raises(WeightsVersionError):
        load_weights(version_bumped)
    with pytest.raises(WeightsTruncationError):
        load_weights(blob[:-8])


def test_default_hyperparameters_and_learning_rate_schedule():
    cfg = TrainConfig()
    assert cfg.lr0 == 0.005
    assert cfg.lr_decay_every == 10
    assert cfg.lr_decay_factor == 0.1
    assert cfg.batch_size == 50
    assert cfg.weight_decay == 1e-4
    assert cfg.beta1 == 0.92
    assert cfg.max_epochs == 200
    assert lr_at_epoch(cfg, 0) == 0.005
    assert lr_at_epoch(cfg, 10) == 0.0005
    np.testing.assert_allclose(lr_at_epoch(cfg, 25), 5e-5, rtol=1e-12)
