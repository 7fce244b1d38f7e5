import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signseg import (
    ConfigError,
    DegenerateFrameError,
    HandCountError,
    IsolatedSample,
    KeypointParseError,
    ShapeError,
    build_streams,
    concat_isolated,
    load_isolated_dataset,
    load_stream_features,
    normalize_frame,
    parse_keypoint_file,
    resample_sequence,
)
from signseg.keypoints import FEATURES_PER_HAND, KEYPOINTS_PER_HAND
from signseg.seeding import derive_rng


def frame_line(hands):
    return json.dumps({"hands": [np.asarray(h).tolist() for h in hands]})


def make_hand(rng, scale=1.0, offset=0.0):
    return rng.normal(size=(KEYPOINTS_PER_HAND, 3)) * scale + offset


MARKER = 12345.678  # a coordinate value that no make_hand draw prints as


def with_literal(hand, literal, point, coord):
    """A one-hand frame line whose coordinate (point, coord) is the raw JSON `literal`."""
    hand = np.array(hand)
    hand[point, coord] = MARKER
    return frame_line([hand]).replace(repr(MARKER), literal)


BAD_LITERALS = ['"1.5"', "true", "false", "null", "1" + "0" * 400, "9" * 5000, "NaN", "Infinity", "-Infinity"]
MUTATIONS = [
    "drop keypoint", "extra keypoint", "drop coordinate", "extra coordinate",
    "bad value", "extra hand", "drop hand", "truncate",
]


@st.composite
def mutated_recordings(draw):
    """(text, expected error or None, 1-based line of the error) for a valid
    recording with one mutation applied to one line."""
    n_hands = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.normal(size=(draw(st.integers(1, 4)), n_hands, KEYPOINTS_PER_HAND, 3)).tolist()
    line = draw(st.integers(0, len(frames) - 1))
    hand = frames[line][draw(st.integers(0, n_hands - 1))]
    point = draw(st.integers(0, KEYPOINTS_PER_HAND - 1))
    coord = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(MUTATIONS))
    expected = KeypointParseError
    if kind == "drop keypoint":
        del hand[point]
    elif kind == "extra keypoint":
        hand.append([0.5, 0.5, 0.5])
    elif kind == "drop coordinate":
        del hand[point][coord]
    elif kind == "extra coordinate":
        hand[point].append(0.5)
    elif kind == "bad value":
        hand[point][coord] = MARKER
    elif kind == "extra hand":
        frames[line].append(hand)
    elif kind == "drop hand":
        del frames[line][0]
    if kind.endswith(" hand") and 1 <= len(frames[line]) <= 2:
        # a valid frame whose hand count differs from the other lines'
        expected = HandCountError if len(frames) > 1 else None
    lines = [json.dumps({"hands": f}) for f in frames]
    if kind == "bad value":
        lines[line] = lines[line].replace(repr(MARKER), draw(st.sampled_from(BAD_LITERALS)))
    elif kind == "truncate":
        lines[line] = lines[line][: draw(st.integers(1, len(lines[line]) - 1))]
    error_line = max(line, 1) + 1 if expected is HandCountError else line + 1
    return "\n".join(lines), expected, error_line


class TestParse:
    def test_round_trip_single_hand(self):
        rng = derive_rng(1, "parse")
        hands = [make_hand(rng) for _ in range(3)]
        text = "\n".join(frame_line([h]) for h in hands)
        frames = parse_keypoint_file(text)
        assert frames.shape == (3, 1, 21, 3)
        for got, want in zip(frames, hands):
            np.testing.assert_allclose(got[0], want)

    def test_blank_lines_skipped(self):
        rng = derive_rng(2, "parse")
        text = "\n\n" + frame_line([make_hand(rng)]) + "\n\n"
        assert len(parse_keypoint_file(text)) == 1

    def test_bad_json_reports_line_number(self):
        rng = derive_rng(3, "parse")
        text = frame_line([make_hand(rng)]) + "\n{oops\n"
        with pytest.raises(KeypointParseError) as exc:
            parse_keypoint_file(text)
        assert exc.value.line_number == 2

    def test_wrong_keypoint_count(self):
        text = json.dumps({"hands": [[[0.0, 0.0, 0.0]] * 20]})
        with pytest.raises(KeypointParseError):
            parse_keypoint_file(text)

    def test_non_finite_coordinate_rejected(self):
        rng = derive_rng(4, "parse")
        hand = make_hand(rng)
        hand[5, 1] = np.nan
        with pytest.raises(KeypointParseError):
            parse_keypoint_file(frame_line([hand]))

    def test_inconsistent_hand_count_across_frames(self):
        rng = derive_rng(5, "parse")
        text = frame_line([make_hand(rng)]) + "\n" + frame_line([make_hand(rng), make_hand(rng)])
        with pytest.raises(HandCountError):
            parse_keypoint_file(text)

    def test_three_hands_rejected(self):
        rng = derive_rng(6, "parse")
        with pytest.raises(KeypointParseError):
            parse_keypoint_file(frame_line([make_hand(rng)] * 3))

    @pytest.mark.parametrize(
        "literal", ["1" + "0" * 400, "9" * 5000], ids=["overflows_float", "past_int_digit_limit"]
    )
    def test_huge_integer_coordinate_names_line(self, literal):
        rng = derive_rng(19, "parse")
        text = frame_line([make_hand(rng)]) + "\n" + with_literal(make_hand(rng), literal, 4, 2)
        with pytest.raises(KeypointParseError) as exc:
            parse_keypoint_file(text)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("literal", ['"1.5"', "true", "null"])
    def test_non_number_coordinate_rejected(self, literal):
        rng = derive_rng(20, "parse")
        with pytest.raises(KeypointParseError):
            parse_keypoint_file(with_literal(make_hand(rng), literal, 7, 1))

    def test_empty_input_is_an_empty_recording(self):
        assert parse_keypoint_file("\n\n").shape == (0, 0, KEYPOINTS_PER_HAND, 3)

    @settings(max_examples=300, deadline=None)
    @given(mutated_recordings())
    def test_fuzzed_lines_parse_or_raise_a_named_error(self, case):
        text, expected, error_line = case
        if expected is None:
            out = parse_keypoint_file(text)
            assert out.dtype == np.float64 and out.ndim == 4 and out.shape[2:] == (KEYPOINTS_PER_HAND, 3)
            assert out.shape[0] == len(text.splitlines()) and out.shape[1] in (1, 2)
            return
        with pytest.raises(expected) as exc:
            parse_keypoint_file(text)
        if expected is KeypointParseError:
            assert exc.value.line_number == error_line
        else:
            assert str(exc.value).startswith(f"line {error_line}:")


class TestNormalize:
    def test_forced_single_point(self):
        # wrist at (1,1,1), one point offset by +x, the rest on the wrist
        hand = np.ones((21, 3))
        hand[1] = [2.0, 1.0, 1.0]
        out = normalize_frame(hand[None])
        assert out.shape == (FEATURES_PER_HAND,)
        np.testing.assert_allclose(out[:3], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out[3:], 0.0)

    def test_all_points_equal_is_degenerate(self):
        with pytest.raises(DegenerateFrameError):
            normalize_frame(np.ones((1, 21, 3)))

    def test_matches_straight_line_formula(self):
        rng = derive_rng(7, "norm")
        for _ in range(50):
            hand = make_hand(rng, scale=rng.uniform(0.1, 5.0))
            rel = hand[1:] - hand[0]
            expected = (rel / np.linalg.norm(rel, axis=1).max()).reshape(-1)
            np.testing.assert_allclose(normalize_frame(hand[None]), expected, atol=1e-12, rtol=0)

    def test_translation_invariance(self):
        rng = derive_rng(8, "norm")
        for _ in range(25):
            hand = make_hand(rng)
            shifted = hand + rng.normal(size=3)
            np.testing.assert_allclose(
                normalize_frame(hand[None]), normalize_frame(shifted[None]), atol=1e-12, rtol=0
            )

    def test_scale_invariance(self):
        rng = derive_rng(9, "norm")
        for _ in range(25):
            hand = make_hand(rng)
            k = rng.uniform(1e-3, 1e3)
            np.testing.assert_allclose(
                normalize_frame(hand[None]), normalize_frame((hand * k)[None]), atol=1e-9, rtol=0
            )

    def test_two_hands_concatenate(self):
        rng = derive_rng(10, "norm")
        a, b = make_hand(rng), make_hand(rng)
        out = normalize_frame(np.stack([a, b]))
        assert out.shape == (2 * FEATURES_PER_HAND,)
        np.testing.assert_allclose(out[:FEATURES_PER_HAND], normalize_frame(a[None]))
        np.testing.assert_allclose(out[FEATURES_PER_HAND:], normalize_frame(b[None]))

    @pytest.mark.parametrize("n_hands", [1, 2])
    def test_recording_matches_per_frame_calls(self, n_hands):
        rng = derive_rng(21, "norm")
        raw = rng.normal(size=(40, n_hands, KEYPOINTS_PER_HAND, 3))
        raw *= 10.0 ** rng.uniform(-6, 6, size=(40, n_hands, 1, 1))
        out = normalize_frame(raw)
        assert out.shape == (40, n_hands * FEATURES_PER_HAND)
        np.testing.assert_array_equal(out, np.stack([normalize_frame(frame) for frame in raw]))

    def test_degenerate_names_frame_and_hand(self):
        rng = derive_rng(22, "norm")
        raw = rng.normal(size=(6, 2, KEYPOINTS_PER_HAND, 3))
        raw[3, 1] = raw[3, 1, 0]
        raw[5, 0] = raw[5, 0, 0]
        with pytest.raises(DegenerateFrameError, match="frame 3, hand 1:"):
            normalize_frame(raw)
        with pytest.raises(DegenerateFrameError, match="^hand 1:"):
            normalize_frame(raw[3])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            normalize_frame(np.ones((2, 20, 3)))
        with pytest.raises(ShapeError):
            normalize_frame(np.ones((1, 1, 1, KEYPOINTS_PER_HAND, 3)))


class TestResample:
    def test_identity_when_lengths_match(self):
        rng = derive_rng(11, "resample")
        x = rng.normal(size=(50, 6))
        out = resample_sequence(x, 50)
        assert np.array_equal(out, x)
        assert out is not x

    def test_constant_pair_expands(self):
        x = np.ones((2, 3)) * 0.7
        out = resample_sequence(x, 7)
        np.testing.assert_allclose(out, 0.7)

    def test_linear_ramp(self):
        x = np.array([[0.0], [1.0], [2.0]])
        np.testing.assert_allclose(
            resample_sequence(x, 5), [[0.0], [0.5], [1.0], [1.5], [2.0]]
        )

    def test_single_frame_repeats(self):
        x = np.array([[3.0, 4.0]])
        out = resample_sequence(x, 4)
        assert out.shape == (4, 2)
        np.testing.assert_allclose(out, [[3.0, 4.0]] * 4)

    def test_endpoints_preserved_and_bounded(self):
        rng = derive_rng(12, "resample")
        for _ in range(30):
            t = int(rng.integers(2, 40))
            w = int(rng.integers(2, 80))
            x = rng.normal(size=(t, 4))
            out = resample_sequence(x, w)
            assert out.shape == (w, 4)
            np.testing.assert_allclose(out[0], x[0], atol=1e-12, rtol=0)
            np.testing.assert_allclose(out[-1], x[-1], atol=1e-12, rtol=0)
            # interpolation never leaves the per-feature envelope
            assert (out.max(axis=0) <= x.max(axis=0) + 1e-12).all()
            assert (out.min(axis=0) >= x.min(axis=0) - 1e-12).all()

    def test_bad_target(self):
        with pytest.raises(ValueError):
            resample_sequence(np.zeros((3, 2)), 0)

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            resample_sequence(np.zeros(5), 3)


class TestConcat:
    def test_three_samples(self):
        rng = derive_rng(13, "concat")
        samples = [
            IsolatedSample(rng.normal(size=(50, 6)), label)
            for label in (4, 7, 2)
        ]
        stream = concat_isolated(samples)
        assert stream.frames.shape == (150, 6)
        assert stream.gt_labels == [4, 7, 2]
        assert stream.boundaries == [(0, 49), (50, 99), (100, 149)]

    def test_single_sample_identity(self):
        rng = derive_rng(14, "concat")
        s = IsolatedSample(rng.normal(size=(10, 3)), 5)
        stream = concat_isolated([s])
        assert np.array_equal(stream.frames, s.frames)
        assert stream.gt_labels == [5]

    def test_order_reindexes(self):
        rng = derive_rng(15, "concat")
        samples = [IsolatedSample(rng.normal(size=(4, 2)), i) for i in range(3)]
        stream = concat_isolated(samples, [2, 0, 2])
        assert stream.gt_labels == [2, 0, 2]
        np.testing.assert_allclose(stream.frames[:4], samples[2].frames)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_isolated([])

    def test_mixed_dims_rejected(self):
        rng = derive_rng(16, "concat")
        with pytest.raises(ShapeError):
            concat_isolated(
                [IsolatedSample(rng.normal(size=(4, 2)), 0), IsolatedSample(rng.normal(size=(4, 3)), 1)]
            )


class TestBuildStreams:
    def setup_method(self):
        rng = derive_rng(17, "pool")
        self.pool = [
            IsolatedSample(rng.normal(size=(6, 2)), label) for label in range(5) for _ in range(3)
        ]

    def test_deterministic(self):
        a = build_streams(self.pool, 4, 3, seed=99)
        b = build_streams(self.pool, 4, 3, seed=99)
        assert len(a) == 4
        for s, t in zip(a, b):
            assert s.gt_labels == t.gt_labels
            assert np.array_equal(s.frames, t.frames)

    def test_labels_distinct_within_stream(self):
        for stream in build_streams(self.pool, 10, 5, seed=3):
            assert len(set(stream.gt_labels)) == len(stream.gt_labels)

    def test_too_many_signs_rejected(self):
        with pytest.raises(ValueError):
            build_streams(self.pool, 1, 6, seed=0)


def test_load_isolated_dataset(tmp_path):
    rng = derive_rng(18, "dataset")
    manifest = []
    for i, label in enumerate([0, 1, 1]):
        lines = []
        for _ in range(int(rng.integers(3, 9))):
            lines.append(frame_line([make_hand(rng)]))
        name = f"clip_{i}.jsonl"
        (tmp_path / name).write_text("\n".join(lines))
        manifest.append({"file": name, "label": label})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))

    samples = load_isolated_dataset(tmp_path / "manifest.json", window=12)
    assert [s.label for s in samples] == [0, 1, 1]
    for s in samples:
        assert s.frames.shape == (12, FEATURES_PER_HAND)
        assert np.isfinite(s.frames).all()


def test_empty_recording_names_the_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(KeypointParseError, match="empty.jsonl holds no frames"):
        load_stream_features(empty)
    (tmp_path / "manifest.json").write_text(json.dumps([{"file": "empty.jsonl", "label": 0}]))
    with pytest.raises(KeypointParseError, match="empty.jsonl holds no frames"):
        load_isolated_dataset(tmp_path / "manifest.json", window=8)


def test_bad_recording_names_the_manifest_entry(tmp_path):
    rng = derive_rng(19, "dataset")
    manifest = []
    for i in range(9):
        lines = [frame_line([make_hand(rng)]) for _ in range(6)]
        if i == 7:
            lines[4] = lines[4][: len(lines[4]) // 2]  # a truncated fifth line
        name = f"sample_{i:05d}.jsonl"
        (tmp_path / name).write_text("\n".join(lines))
        manifest.append({"file": name, "label": i % 2})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(KeypointParseError) as info:
        load_isolated_dataset(tmp_path / "manifest.json", window=8)
    assert str(info.value).startswith("manifest entry 7 (sample_00007.jsonl): line 5: invalid JSON")
    assert info.value.line_number == 5


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe[]", b'[{"file": "a.jsonl", "label": ' + b"9" * 5000 + b"}]", b'[{"file": 5, "label": 0}]'],
    ids=["not_utf8", "past_int_digit_limit", "file_not_a_string"],
)
def test_bad_manifest_is_config_error(tmp_path, content):
    (tmp_path / "manifest.json").write_bytes(content)
    with pytest.raises(ConfigError, match="manifest"):
        load_isolated_dataset(tmp_path / "manifest.json", window=8)
