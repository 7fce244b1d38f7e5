import numpy as np
import pytest

from signseg import (
    build_streams,
    make_class_prototype,
    make_dataset,
    parse_keypoint_file,
    prototype_trajectory,
    resample_sequence,
    sample_instance,
)
from signseg.seeding import derive_seed
from signseg.synthgen import (
    AMPLITUDE_RANGE,
    FREQUENCY_RANGE,
    OFFSET_RANGE,
    sample_to_jsonl,
)


def test_prototype_deterministic_and_ranged():
    a = make_class_prototype(1, 0, 6)
    b = make_class_prototype(1, 0, 6)
    assert np.array_equal(a.amplitude, b.amplitude)
    assert np.array_equal(a.frequency, b.frequency)
    assert np.array_equal(a.phase, b.phase)
    assert np.array_equal(a.offset, b.offset)
    assert ((a.amplitude >= AMPLITUDE_RANGE[0]) & (a.amplitude <= AMPLITUDE_RANGE[1])).all()
    assert ((a.frequency >= FREQUENCY_RANGE[0]) & (a.frequency <= FREQUENCY_RANGE[1])).all()
    assert ((a.phase >= 0) & (a.phase < 2 * np.pi)).all()
    assert ((a.offset >= OFFSET_RANGE[0]) & (a.offset <= OFFSET_RANGE[1])).all()


def test_prototypes_differ_across_class_and_seed():
    base = make_class_prototype(1, 0, 8)
    other_class = make_class_prototype(1, 1, 8)
    other_seed = make_class_prototype(2, 0, 8)
    assert not np.array_equal(base.amplitude, other_class.amplitude)
    assert not np.array_equal(base.amplitude, other_seed.amplitude)


def test_trajectory_start_value():
    proto = make_class_prototype(3, 2, 5)
    track = prototype_trajectory(proto, 30)
    np.testing.assert_allclose(
        track[0], proto.amplitude * np.sin(proto.phase) + proto.offset, atol=1e-12, rtol=0
    )
    assert track.shape == (30, 5)


def test_trajectory_needs_two_frames():
    with pytest.raises(ValueError):
        prototype_trajectory(make_class_prototype(3, 0, 4), 1)


def test_sample_deterministic():
    proto = make_class_prototype(4, 1, 6)
    a = sample_instance(proto, 1234, 0.05, 20)
    b = sample_instance(proto, 1234, 0.05, 20)
    assert np.array_equal(a.frames, b.frames)
    assert a.label == 1


def test_sample_lengths_and_jitter_variation():
    proto = make_class_prototype(5, 0, 6)
    frames = [sample_instance(proto, s, 0.0, 25).frames for s in range(8)]
    assert all(f.shape == (25, 6) for f in frames)
    # speed jitter alone must leave the trajectories distinct
    assert any(not np.array_equal(frames[0], f) for f in frames[1:])


def test_noise_mean_absolute_deviation():
    # |N(0, sigma)| has mean sigma*sqrt(2/pi); estimate over 1000 instances
    proto = make_class_prototype(11, 0, 6)
    sigma = 0.05
    devs = []
    for j in range(1000):
        seed = derive_seed(11, "mad", j)
        noisy = sample_instance(proto, seed, sigma, 40).frames
        clean = sample_instance(proto, seed, 0.0, 40).frames
        devs.append(np.abs(noisy - clean).mean())
    target = sigma * np.sqrt(2 / np.pi)
    assert abs(np.mean(devs) - target) < 0.1 * target


def test_make_dataset_counts():
    data = make_dataset(seed=1, classes=3, n_per_class=4, dim=6, window=10, noise_sigma=0.05)
    assert len(data) == 12
    labels = [s.label for s in data]
    assert {label: labels.count(label) for label in set(labels)} == {0: 4, 1: 4, 2: 4}


def test_make_dataset_pinned_shape():
    data = make_dataset(seed=2, classes=10, n_per_class=20, dim=12, window=50, noise_sigma=0.05)
    assert len(data) == 200
    assert all(s.frames.shape == (50, 12) for s in data)


def test_make_dataset_deterministic():
    a = make_dataset(seed=3, classes=2, n_per_class=3, dim=4, window=8, noise_sigma=0.02)
    b = make_dataset(seed=3, classes=2, n_per_class=3, dim=4, window=8, noise_sigma=0.02)
    for x, y in zip(a, b):
        assert np.array_equal(x.frames, y.frames) and x.label == y.label


def test_numpy_integer_seed_derives_the_int_stream():
    assert derive_seed(7, "x") == 9529643912638366309  # pinned: Python-int keys must not drift
    assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
    a = make_dataset(np.int64(1), 2, 1, 3, 5, 0.0)
    b = make_dataset(1, 2, 1, 3, 5, 0.0)
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.frames, y.frames) and x.label == y.label


DATASET = dict(seed=1, classes=3, n_per_class=2, dim=3, window=5, noise_sigma=0.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: resample_sequence(np.zeros((5, 3)), 2.5), r"^target must be an integer, got 2\.5$"),
        (lambda: resample_sequence(np.zeros((5, 3)), True), r"^target must be an integer, got True$"),
        (lambda: build_streams(make_dataset(**DATASET), 2.5, 3, 0), r"^n_streams must be an integer, got 2\.5$"),
        (lambda: build_streams(make_dataset(**DATASET), 2, True, 0), r"^signs_per_stream must be an integer, got True$"),
        (lambda: make_dataset(**{**DATASET, "classes": 3.0}), r"^classes must be an integer, got 3\.0$"),
        (lambda: make_dataset(**{**DATASET, "n_per_class": True}), r"^n_per_class must be an integer, got True$"),
        (lambda: make_dataset(**{**DATASET, "dim": 3.0}), r"^dim must be an integer, got 3\.0$"),
        (lambda: make_dataset(**{**DATASET, "window": 8.5}), r"^window must be an integer, got 8\.5$"),
        (lambda: make_dataset(**{**DATASET, "noise_sigma": np.nan}), r"^noise_sigma must be finite, got nan$"),
        (lambda: make_dataset(**{**DATASET, "noise_sigma": np.inf}), r"^noise_sigma must be finite, got inf$"),
    ],
    ids=["target-float", "target-bool", "n_streams-float", "signs-bool", "classes-float", "n_per_class-bool",
         "dim-float", "window-float", "sigma-nan", "sigma-inf"],
)
def test_a_data_builder_rejects_a_bad_argument_by_name(build, message):
    # unchecked, a float fails inside numpy, True counts as 1 and a NaN sigma gives NaN frames
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_counts_are_accepted():
    frames = resample_sequence(np.zeros((5, 3)), np.int64(4))
    streams = build_streams(make_dataset(**DATASET), np.int32(2), np.int64(3), 0)
    data = make_dataset(**{**DATASET, "classes": np.int64(3), "window": np.int32(5)})
    assert frames.shape == (4, 3) and len(streams) == 2 and len(data) == 6


def test_make_dataset_needs_two_classes():
    with pytest.raises(ValueError):
        make_dataset(seed=1, classes=1, n_per_class=2, dim=3, window=5, noise_sigma=0.0)


def nearest_prototype(sample, prototypes):
    """Class of the prototype nearest in Frobenius distance at sample length."""
    frames = sample.frames
    best, best_dist = -1, np.inf
    for proto in prototypes:
        ref = prototype_trajectory(proto, frames.shape[0])
        dist = float(((frames - ref) ** 2).sum())
        if dist < best_dist:
            best, best_dist = proto.class_id, dist
    return best


def test_clean_samples_separable_by_nearest_prototype():
    """With no noise, every sample sits closest to its own class curve."""
    for seed in (0, 1, 2):
        classes, dim = 16, 6
        protos = [make_class_prototype(seed, c, dim) for c in range(classes)]
        data = make_dataset(seed=seed, classes=classes, n_per_class=3, dim=dim, window=20, noise_sigma=0.0)
        hits = sum(nearest_prototype(s, protos) == s.label for s in data)
        assert hits == len(data)


def test_jsonl_round_trip_preserves_features():
    # triples of features ride as pseudo-keypoints; ingestion re-normalizes,
    # so compare after the same normalization, not raw values
    proto = make_class_prototype(6, 0, 12)
    sample = sample_instance(proto, 77, 0.01, 10)
    frames = parse_keypoint_file(sample_to_jsonl(sample))
    assert frames.shape == (10, 1, 21, 3)
    got = frames[0, 0]
    np.testing.assert_allclose(got[0], 0.0, atol=1e-12, rtol=0)  # wrist pinned at origin
    np.testing.assert_allclose(got[1:5].reshape(-1), sample.frames[0], atol=1e-12, rtol=0)
    np.testing.assert_allclose(got[5:], 0.0, atol=1e-12, rtol=0)  # padding keypoints


def test_jsonl_rejects_wide_features():
    proto = make_class_prototype(6, 0, 12)
    sample = sample_instance(proto, 1, 0.0, 4)
    bad = type(sample)(frames=np.zeros((4, 61)), label=0)
    with pytest.raises(ValueError):
        sample_to_jsonl(bad)
