import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signseg import (
    ContinuousStream,
    DecodedLabel,
    ModelConfig,
    ShapeError,
    StreamTooShortError,
    TrainConfig,
    WindowProb,
    build_streams,
    carve_validation,
    concat_isolated,
    count_false,
    edit_distance,
    make_dataset,
    post_process,
    segment_report,
    slide,
    split_dataset,
    train,
    window_probs,
)
import signseg.segmentation
from signseg.model import FORWARD_CHUNK, upcast
from signseg.segmentation import SegmentReport, _stream_row, report_aggregate_json, report_summary_csv, windows_csv
from signseg.seeding import derive_rng, derive_seed


def wp_from_rows(rows):
    return [WindowProb(i, np.asarray(r)) for i, r in enumerate(rows)]


def report_row(monkeypatch, rows, threshold):
    """segment_report's row for a stream whose windows have these class
    probabilities: window_probs is patched to return them."""
    probs = np.asarray(rows, dtype=np.float64)
    monkeypatch.setattr(signseg.segmentation, "window_probs", lambda weights, windows: probs)
    stream = ContinuousStream(np.zeros((len(probs), 1)), [])
    return segment_report(None, [stream], window=1, stride=1, threshold=threshold).rows[0]


def reference_decode(rows, threshold):
    """Straight-line restatement of the decode rule, kept deliberately dumb.

    Each window emits its argmax when that probability clears the
    threshold, otherwise Blank. Blanks are dropped and surviving runs of
    one label collapse to their first window, whether or not Blanks sat
    inside the run.
    """
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


class TestSlide:
    def test_three_windows(self):
        frames = derive_rng(0, "slide").normal(size=(150, 4))
        wins = slide(frames, window=50, stride=50)
        assert wins.shape == (3, 50, 4)
        for i, start in enumerate([0, 50, 100]):
            np.testing.assert_array_equal(wins[i], frames[start : start + 50])

    def test_exact_fit(self):
        frames = derive_rng(0, "fit").normal(size=(50, 3))
        wins = slide(frames, window=50, stride=1)
        assert wins.shape == (1, 50, 3)
        np.testing.assert_array_equal(wins[0], frames)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_read_only_view_of_the_frames(self, stride):
        frames = derive_rng(3, "view").normal(size=(40, 5))
        for stream in (frames, ContinuousStream(frames, [])):
            wins = slide(stream, window=7, stride=stride)
            assert np.shares_memory(wins, frames)
            assert not wins.flags.writeable
            with pytest.raises(ValueError):
                wins[0, 0, 0] = 1.0
            for i, win in enumerate(wins):
                np.testing.assert_array_equal(win, frames[i * stride : i * stride + 7])

    @pytest.mark.parametrize("shape", [(7,), (7, 4, 2), ()], ids=["1-D", "3-D", "scalar"])
    def test_frames_not_2d_raise_shape_error(self, shape):
        with pytest.raises(ShapeError):
            slide(np.zeros(shape), window=2)

    def test_too_short(self):
        with pytest.raises(StreamTooShortError):
            slide(np.zeros((49, 3)), window=50)

    def test_count_formula(self):
        rng = derive_rng(1, "slide")
        for _ in range(30):
            n = int(rng.integers(10, 200))
            window = rng.integers(1, n + 1)  # numpy integers are integers too
            stride = rng.integers(1, 20)
            wins = slide(rng.normal(size=(n, 2)), window=window, stride=stride)
            assert len(wins) == (n - window) // stride + 1

    def test_bad_args(self):
        with pytest.raises(ValueError, match=r"^window must be >= 1, got 0$"):
            slide(np.zeros((10, 2)), window=0)
        with pytest.raises(ValueError, match=r"^stride must be >= 1, got 0$"):
            slide(np.zeros((10, 2)), window=5, stride=0)
        for kwargs, message in [
            (dict(window=5.0), r"^window must be an integer, got 5\.0$"),
            (dict(window=True), r"^window must be an integer, got True$"),
            (dict(window=5, stride=1.5), r"^stride must be an integer, got 1\.5$"),
            (dict(window=5, stride=True), r"^stride must be an integer, got True$"),
        ]:
            with pytest.raises(ValueError, match=message):
                slide(np.zeros((10, 2)), **kwargs)


class TestWindowProbs:
    # window counts on both sides of the forward chunk boundaries (1, 8, 9, 17)
    @pytest.mark.parametrize("n_windows", [1, 8, 9, 17])
    def test_matches_per_window_forward(self, tiny_mcfg, tiny_weights, n_windows):
        from signseg import forward_probs

        rng = derive_rng(2, "wp")
        stream = rng.normal(size=(tiny_mcfg.window + 2 * (n_windows - 1), tiny_mcfg.input_dim))
        wins = slide(stream, window=tiny_mcfg.window, stride=2)
        assert len(wins) == n_windows
        # in float32 as stored and in float64 after upcast
        for weights in (tiny_weights, upcast(tiny_weights)):
            probs = window_probs(weights, wins)
            assert probs.shape == (n_windows, tiny_mcfg.classes) and probs.dtype == np.float64
            for row, win in zip(probs, wins):
                np.testing.assert_array_equal(row, forward_probs(weights, win))
                assert abs(row.sum() - 1.0) < 1e-9

    def test_empty(self, tiny_mcfg, tiny_weights):
        windows = np.empty((0, tiny_mcfg.window, tiny_mcfg.input_dim))
        assert window_probs(tiny_weights, windows).shape == (0, tiny_mcfg.classes)

    def test_memory_beyond_the_output_does_not_grow_with_the_stream(self, tiny_mcfg, tiny_weights):
        # no per-window objects and no copy of the whole strided view: a
        # float32 copy of 20,000 tiny windows alone would be 1.9 MB
        def overhead(n_windows):
            frames = derive_rng(5, "memory").normal(size=(n_windows + tiny_mcfg.window - 1, tiny_mcfg.input_dim))
            window_probs(tiny_weights, slide(frames, tiny_mcfg.window)[:FORWARD_CHUNK])  # warm caches
            tracemalloc.start()
            try:
                window_probs(tiny_weights, slide(frames, tiny_mcfg.window, 1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - n_windows * tiny_mcfg.classes * 8

        small, large = overhead(1_000), overhead(20_000)
        assert abs(large - small) < 500_000, f"{small} B at 1,000 windows, {large} B at 20,000"


class TestPostProcess:
    def test_all_below_threshold(self):
        rows = np.full((5, 4), 0.25)
        assert post_process(wp_from_rows(rows), 0.51) == []

    def test_single_run_keeps_first_window(self):
        rows = [[0.9, 0.1], [0.8, 0.2], [0.95, 0.05]]
        decoded = post_process(wp_from_rows(rows), 0.51)
        assert len(decoded) == 1
        assert decoded[0].label == 0
        assert decoded[0].window_index == 0
        assert decoded[0].prob == 0.9

    def test_blank_inside_run_does_not_split(self):
        # run merging: a sub-threshold gap inside one label's run does not
        # produce a second copy of that label
        rows = [
            [0.9, 0.1, 0.0],
            [0.9, 0.1, 0.0],
            [0.4, 0.35, 0.25],
            [0.9, 0.1, 0.0],
            [0.15, 0.7, 0.15],
            [0.2, 0.6, 0.2],
        ]
        decoded = post_process(wp_from_rows(rows), 0.51)
        assert [(d.label, d.window_index) for d in decoded] == [(0, 0), (1, 4)]

    def test_alternation_is_preserved(self):
        rows = [[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]]
        decoded = post_process(wp_from_rows(rows), 0.51)
        assert [d.label for d in decoded] == [0, 1, 0]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            post_process([], 0.0)

    def test_rows_of_different_class_counts_are_a_shape_error(self):
        for rows, message in [
            ([[0.9, 0.1], [0.8, 0.2], [0.7, 0.2, 0.1]], r"^window 2 has probabilities of shape \(3,\), window 0 \(2,\)$"),
            # rows that are not 1-D: (1, C) rows alone or beside 1-D ones, and 0-d rows
            ([[[0.9, 0.1]]], r"^window 0 has probabilities of shape \(1, 2\), expected one row \(classes,\)$"),
            ([[[0.9, 0.1]], [[0.8, 0.2]]], r"^window 0 has probabilities of shape \(1, 2\), expected one row"),
            ([[0.9, 0.1], [[0.8, 0.2]]], r"^window 1 has probabilities of shape \(1, 2\), expected one row"),
            ([0.9, 0.8], r"^window 0 has probabilities of shape \(\), expected one row"),
            ([[0.9, 0.1], 0.8], r"^window 1 has probabilities of shape \(\), expected one row"),
        ]:
            with pytest.raises(ShapeError, match=message):
                post_process(wp_from_rows(rows))

    @pytest.mark.parametrize("row", [[0.5, [0.5]], [[0.5, 0.5], [1.0]], ["a", "b"]], ids=["ragged", "rows", "strings"])
    def test_a_row_that_is_not_numbers_is_a_shape_error_naming_its_window(self, row):
        # each used to raise numpy's bare ValueError, naming no window
        wp = [WindowProb(0, np.array([0.5, 0.5])), WindowProb(1, row)]
        with pytest.raises(ShapeError, match=r"^window 1 has probabilities that are not a row of numbers$"):
            post_process(wp)

    def test_nan_row_is_blank(self, monkeypatch):
        # a NaN top probability never reaches the threshold, so the class-0
        # window after it is the run head, in the decode, the survivor mean
        # and the trace alike
        wp = [WindowProb(0, np.array([math.nan, math.nan, math.nan])), WindowProb(1, np.array([0.9, 0.05, 0.05]))]
        decoded = post_process(wp, 0.51)
        assert decoded == [DecodedLabel(0, 1, 0.9)]
        row = report_row(monkeypatch, [w.probs for w in wp], 0.51)
        assert (row.avg_softmax, row.survivor_count) == (0.9, 1)
        assert windows_csv(wp, 0.51).split("\n")[1:3] == ["0,0,nan,Blank", "1,0,0.9,0"]

    def test_matches_reference_on_random_corpus(self, random_prob_rows):
        rng = derive_rng(4, "decoder")
        for case in range(1000):
            classes = int(rng.choice([3, 10, 100]))
            length = int(rng.integers(1, 201))
            rows = random_prob_rows(rng, length, classes)
            got = [(d.label, d.window_index, d.prob) for d in post_process(wp_from_rows(rows), 0.51)]
            assert got == reference_decode(rows, 0.51), f"case {case}"

    def test_threshold_monotonicity_on_random_corpus(self, random_prob_rows):
        rng = derive_rng(5, "monotone")
        thresholds = [0.51, 0.6, 0.7, 0.8, 0.9, 0.97]
        for _ in range(300):
            classes = int(rng.choice([3, 10, 100]))
            rows = random_prob_rows(rng, int(rng.integers(1, 201)), classes)
            wp = wp_from_rows(rows)
            counts = [len(post_process(wp, t)) for t in thresholds]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_invariants_on_random_corpus(self, random_prob_rows):
        rng = derive_rng(6, "invariants")
        for _ in range(200):
            rows = random_prob_rows(rng, int(rng.integers(1, 120)), int(rng.choice([3, 10])))
            decoded = post_process(wp_from_rows(rows), 0.51)
            labels = [d.label for d in decoded]
            assert all(a != b for a, b in zip(labels, labels[1:]))
            assert all(d.prob >= 0.51 for d in decoded)
            assert len(decoded) <= len(rows)

    def test_exclusivity_above_half(self, random_prob_rows):
        # probabilities sum to one, so with threshold 0.51 at most a single
        # class can clear it in any window
        rng = derive_rng(7, "exclusive")
        for _ in range(200):
            rows = random_prob_rows(rng, int(rng.integers(1, 60)), int(rng.choice([3, 10, 100])))
            assert ((rows >= 0.51).sum(axis=1) <= 1).all()


def brute_force_decode(rows, threshold):
    """Per-row restatement of the whole decode: labels, survivor mean and
    count, and the per-window trace; a NaN top probability is Blank."""
    decoded, tops, lines = [], [], ["window_start,argmax_class,max_prob,emitted_label"]
    previous = None
    for index, row in enumerate(rows):
        label = int(np.argmax(row))
        top = float(row[label])
        emit = "Blank"
        if top >= threshold:
            tops.append(top)
            emit = ""
            if label != previous:
                decoded.append((label, index, top))
                emit = str(label)
            previous = label
        lines.append(f"{index},{label},{top!r},{emit}")
    mean = (float(np.mean(tops)), len(tops)) if tops else (0.0, 0)
    return decoded, mean, "\n".join(lines) + "\n"


@st.composite
def decoder_inputs(draw):
    threshold = draw(st.sampled_from([0.2, 0.5, 0.51, 0.9]) | st.floats(0.01, 0.99))
    classes = draw(st.integers(1, 12))
    # values at the threshold, repeated values that tie, and NaN
    value = st.sampled_from([0.0, threshold, 0.25, 0.5, 1.0, math.nan]) | st.floats(0.0, 1.0)
    row = st.lists(value, min_size=classes, max_size=classes) | st.just([math.nan] * classes)
    rows = draw(st.lists(row, min_size=1, max_size=60))
    return np.array(rows, dtype=np.float64), threshold


@given(decoder_inputs())
def test_vectorized_decode_equals_the_per_row_loop(case):
    rows, threshold = case
    wp = wp_from_rows(rows)
    want_decoded, want_mean, want_csv = brute_force_decode(rows, threshold)
    decoded = post_process(wp, threshold)
    assert [(d.label, d.window_index, d.prob) for d in decoded] == want_decoded
    row = _stream_row(0, rows, wp, decoded, [], threshold)
    assert (row.avg_softmax, row.survivor_count) == want_mean
    assert windows_csv(wp, threshold) == want_csv


class TestMetrics:
    def test_avg_recognized(self, monkeypatch):
        row = report_row(monkeypatch, [[0.9, 0.1], [0.3, 0.7], [0.45, 0.55]], 0.6)
        np.testing.assert_allclose(row.avg_softmax, 0.8)
        assert row.survivor_count == 2

    def test_avg_recognized_none_survive(self, monkeypatch):
        row = report_row(monkeypatch, [[0.5, 0.5]], 0.51)
        assert (row.avg_softmax, row.survivor_count) == (0.0, 0)

    def test_count_false_exact(self):
        assert count_false([1, 2, 3], [1, 2, 3]) == 0
        assert count_false([1, 9, 3], [1, 2, 3]) == 1
        assert count_false([1, 2], [1, 2, 3]) == 1
        assert count_false([1, 2, 3, 4], [1, 2]) == 2

    def test_count_false_accepts_decoded_labels(self):
        decoded = [DecodedLabel(4, 0, 0.9), DecodedLabel(7, 3, 0.8)]
        assert count_false(decoded, [4, 7]) == 0
        assert count_false(decoded, [4, 2]) == 1

    def test_edit_distance(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0
        assert edit_distance([1, 3], [1, 2, 3]) == 1
        assert edit_distance([2, 1], [1, 2]) == 2
        assert edit_distance([], [1, 2]) == 2

    @pytest.mark.parametrize(
        "decoded, gt, message",
        [
            (["1", 2], [1, 2], r"^decoded label 0 is '1', not an integer class$"),
            ([1, 2.9], [1, 2], r"^decoded label 1 is 2\.9, not an integer class$"),
            ([True], [1], r"^decoded label 0 is True, not an integer class$"),
            ([1, 2], [1, 2.0], r"^ground-truth label 1 is 2\.0, not an integer class$"),
            ([1], [np.True_], r"^ground-truth label 0 is (np\.)?True_?, not an integer class$"),
        ],
        ids=["str", "float", "bool", "ground-truth-float", "ground-truth-numpy-bool"],
    )
    def test_a_label_that_is_not_an_integer_is_rejected_by_side(self, decoded, gt, message):
        # int() would coerce each of these into a label that matches
        for score in (count_false, edit_distance):
            with pytest.raises(ValueError, match=message):
                score(decoded, gt)

    def test_numpy_integers_and_decoded_labels_score_on_either_side(self):
        decoded = [np.int64(4), DecodedLabel(7, 3, 0.8)]
        gt = [DecodedLabel(4, 0, 0.9), np.int32(7)]
        assert count_false(decoded, gt) == count_false(gt, decoded) == 0
        assert edit_distance(decoded, gt) == edit_distance(gt, decoded) == 0
        # scored as the Python ints they hold, so no numpy integer reaches a report
        for score in (count_false, edit_distance):
            assert type(score(decoded, gt[:1])) is int and score(decoded, gt[:1]) == 1


def reference_mismatches(probs, decoded, gt_labels):
    """The mismatch table built in three pieces: the positional mismatches,
    then the decoded tail, then the ground-truth tail (one tail is empty)."""
    table = []
    for d, gt in zip(decoded, gt_labels):
        if d.label != gt:
            gt_prob = float(probs[d.window_index, gt]) if 0 <= gt < probs.shape[1] else None
            table.append((gt, gt_prob, d.label, d.prob, d.window_index))
    tail = min(len(decoded), len(gt_labels))
    table += [(None, None, d.label, d.prob, d.window_index) for d in decoded[tail:]]
    table += [(gt, None, None, None, None) for gt in gt_labels[tail:]]
    return table


def test_the_scoring_walk_equals_the_three_piece_reference():
    # a decode longer than its ground truth pairs its tail with None, which
    # must not reach the ground-truth softmax lookup
    seen = set()
    for seed in range(200):
        rng = derive_rng(seed, "scoring walk")
        classes = int(rng.integers(1, 5))
        probs = rng.dirichlet(np.ones(classes), size=int(rng.integers(1, 12)))
        decoded = []
        for _ in range(rng.integers(0, 7)):
            window, label = int(rng.integers(len(probs))), int(rng.integers(classes))
            decoded.append(DecodedLabel(label, window, float(probs[window, label])))
        gt = rng.integers(-2, classes + 2, size=rng.integers(0, 7)).tolist()  # some negative, some >= classes
        row = _stream_row(0, probs, wp_from_rows(probs), decoded, gt, 0.5)
        want = reference_mismatches(probs, decoded, gt)
        got = [(m.gt_class, m.gt_softmax, m.recognized_class, m.recognized_softmax, m.window_index) for m in row.mismatches]
        assert got == want
        assert row.false_count == len(want)
        positional = sum(d.label != g for d, g in zip(decoded, gt))
        assert count_false(decoded, gt) == positional + abs(len(decoded) - len(gt)) == row.false_count
        seen.add(np.sign(len(decoded) - len(gt)))
        seen.update("out of range" for g in gt if not 0 <= g < classes)
    assert seen == {-1, 0, 1, "out of range"}


@pytest.fixture(scope="module")
def mini_trained():
    """A miniature trained pipeline every report test can share."""
    data = make_dataset(seed=derive_seed(9, "data"), classes=3, n_per_class=8, dim=6, window=10, noise_sigma=0.01)
    train_set, test_set = split_dataset(data, 0.75, derive_seed(9, "split"))
    core, val = carve_validation(train_set, 0.2, derive_seed(9, "val"))
    mcfg = ModelConfig(layers=1, heads=2, d_model=32, d_ff=64, window=10, input_dim=6, classes=3)
    tcfg = TrainConfig(seed=derive_seed(9, "train"), max_epochs=60, batch_size=8)
    weights, _ = train(core, val, mcfg, tcfg)
    return weights, core, test_set


class TestSegmentReport:
    def test_perfect_model_aligned_windows(self, mini_trained):
        # stride == window lands every window on one whole sign, so a model
        # that is confidently right on each chosen sign decodes the stream
        # exactly
        from signseg import forward_probs

        weights, core, _ = mini_trained
        by_label = {}
        for s in core:
            p = forward_probs(weights, s.frames)
            if int(np.argmax(p)) == s.label and p[s.label] >= 0.6:
                by_label.setdefault(s.label, s)
        assert set(by_label) == {0, 1, 2}, "fixture model too weak for this test"
        stream = concat_isolated([by_label[0], by_label[1], by_label[2], by_label[0]])
        report = segment_report(weights, [stream], window=10, stride=10, threshold=0.51)
        row = report.rows[0]
        assert row.error is None
        assert [d.label for d in row.decoded] == [0, 1, 2, 0]
        assert row.false_count == 0
        assert row.mismatches == []
        assert report.false_with_pp == 0

    def test_short_stream_recorded_not_fatal(self, mini_trained):
        weights, core, _ = mini_trained
        ok = concat_isolated([core[0]])
        rng = derive_rng(8, "short")
        short = concat_isolated([type(core[0])(rng.normal(size=(4, 6)), 0)])
        report = segment_report(weights, [short, ok], window=10, stride=10, threshold=0.51)
        assert report.rows[0].error is not None
        assert report.rows[1].error is None

    def test_a_bad_threshold_raises_before_any_stream(self, tiny_mcfg, tiny_weights, monkeypatch):
        # before an errored row is recorded or a stream's forward pass runs
        passes = []
        monkeypatch.setattr(signseg.segmentation, "window_probs", lambda *args: passes.append(args))
        short = ContinuousStream(np.zeros((tiny_mcfg.window - 1, tiny_mcfg.input_dim)), [0])
        ok = ContinuousStream(np.zeros((tiny_mcfg.window, tiny_mcfg.input_dim)), [0])
        for streams in ([short], [ok], [short, ok]):
            with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\), got 7.0"):
                segment_report(tiny_weights, streams, window=tiny_mcfg.window, threshold=7.0)
        assert passes == []

    @pytest.mark.parametrize("label", ["1", 1.5, True])
    def test_a_non_integer_ground_truth_label_raises_before_any_stream(
        self, tiny_mcfg, tiny_weights, monkeypatch, label
    ):
        # it used to reach the mismatch scoring after the stream's forward pass, and fail there
        # with a TypeError or an IndexError
        passes = []
        monkeypatch.setattr(signseg.segmentation, "window_probs", lambda *args: passes.append(args))
        ok = ContinuousStream(np.zeros((tiny_mcfg.window, tiny_mcfg.input_dim)), [0])
        bad = ContinuousStream(np.zeros((tiny_mcfg.window, tiny_mcfg.input_dim)), [0, label])
        with pytest.raises(ValueError, match=rf"^stream 1 ground-truth label 1 is {label!r}, not an integer class$"):
            segment_report(tiny_weights, [ok, bad], window=tiny_mcfg.window)
        assert passes == []

    def test_each_stage_runs_once_per_decodable_stream(self, tiny_mcfg, tiny_weights, monkeypatch):
        # the benchmark's tracer times slide, window_probs, forward_probs and
        # post_process by rebinding these module names, so its per-stage
        # figures mean one call per stream only while segment_report makes
        # exactly these
        calls = []
        for name in ("slide", "window_probs", "forward_probs", "post_process"):
            stage = getattr(signseg.segmentation, name)
            monkeypatch.setattr(
                signseg.segmentation, name,
                lambda *args, _name=name, _stage=stage, **kwargs: calls.append(_name) or _stage(*args, **kwargs),
            )
        rng = derive_rng(8, "stages")
        dim = tiny_mcfg.input_dim
        streams = [
            ContinuousStream(rng.normal(size=(tiny_mcfg.window + 2 * FORWARD_CHUNK, dim)), [0]),  # two chunks
            ContinuousStream(rng.normal(size=(tiny_mcfg.window - 1, dim)), [1]),  # too short
            ContinuousStream(rng.normal(size=(7, dim)), []),
        ]
        report = segment_report(tiny_weights, streams, window=tiny_mcfg.window, stride=2)
        assert [row.error is None for row in report.rows] == [True, False, True]
        decode = ["slide", "window_probs", "forward_probs", "post_process"]
        assert calls == decode + ["slide"] + decode

    def test_aggregates_sum_rows(self, mini_trained):
        weights, _, test_set = mini_trained
        streams = [
            concat_isolated([test_set[0], test_set[2], test_set[4]]),
            concat_isolated([test_set[1], test_set[3]]),
        ]
        report = segment_report(weights, streams, window=10, stride=3, threshold=0.51)
        ok_rows = [r for r in report.rows if r.error is None]
        assert report.false_with_pp == sum(r.false_count for r in ok_rows)
        assert report.false_collapse_only == sum(r.false_count_collapse for r in ok_rows)
        assert report.false_without_pp == sum(r.false_count_raw for r in ok_rows)
        np.testing.assert_allclose(
            report.avg_softmax_with_pp, np.mean([r.avg_softmax for r in ok_rows])
        )

    def test_collapse_only_baseline_skips_the_threshold(self, monkeypatch):
        # argmax 0 0 1 1 2 0, only windows 0 and 3 reach 0.51
        probs = np.array([
            [0.9, 0.05, 0.05], [0.4, 0.3, 0.3], [0.3, 0.4, 0.3],
            [0.05, 0.9, 0.05], [0.3, 0.3, 0.4], [0.4, 0.3, 0.3],
        ])
        monkeypatch.setattr(signseg.segmentation, "window_probs", lambda weights, windows: probs)
        stream = ContinuousStream(np.zeros((len(probs), 1)), [0, 1, 2, 0])
        report = segment_report(None, [stream], window=1, stride=1, threshold=0.51)
        row = report.rows[0]
        assert [d.label for d in row.decoded] == [0, 1]
        assert (row.false_count, row.false_count_collapse, row.false_count_raw) == (2, 0, 5)
        assert (report.false_with_pp, report.false_collapse_only, report.false_without_pp) == (2, 0, 5)

    def test_numpy_integer_ground_truth_scores_as_python_ints(self, monkeypatch):
        # a numpy integer used to reach the sums, so false_collapse_only was a
        # numpy.int64 and report_aggregate_json raised TypeError
        probs = np.array([[0.9, 0.05, 0.05], [0.4, 0.3, 0.3], [0.05, 0.9, 0.05], [0.3, 0.3, 0.4]])
        monkeypatch.setattr(signseg.segmentation, "window_probs", lambda weights, windows: probs)
        stream = ContinuousStream(np.zeros((len(probs), 1)), list(np.array([0, 2, 2])))
        report = segment_report(None, [stream], window=1, stride=1, threshold=0.51)
        row = report.rows[0]
        counts = [row.false_count, row.false_count_collapse, row.false_count_raw, row.edit_dist]
        counts += [report.false_with_pp, report.false_collapse_only, report.false_without_pp]
        assert counts == [2, 1, 3, 2, 2, 1, 3]
        labels = row.gt_labels + [m.gt_class for m in row.mismatches]
        assert all(type(value) is int for value in counts + labels)
        assert json.loads(report_aggregate_json(report))["false_collapse_only"] == 1

    def test_mismatch_rows_carry_window_probabilities(self, mini_trained):
        weights, _, test_set = mini_trained
        stream = concat_isolated([test_set[0], test_set[1]])
        report = segment_report(weights, [stream], window=10, stride=1, threshold=0.51)
        for mismatch in report.rows[0].mismatches:
            if mismatch.recognized_class is not None and mismatch.window_index is not None:
                assert 0.0 <= mismatch.recognized_softmax <= 1.0
            if mismatch.gt_class is not None and mismatch.gt_softmax is not None:
                assert 0.0 <= mismatch.gt_softmax <= 1.0


def test_float32_decode_matches_float64_reference():
    # the gate's shapes and streams, with weights trained briefly; stored
    # float32 weights decode in float32, upcast ones in float64
    seed = 42
    data = make_dataset(
        seed=derive_seed(seed, "data"), classes=10, n_per_class=20, dim=12, window=50, noise_sigma=0.05
    )
    train_all, test_set = split_dataset(data, 0.8, derive_seed(seed, "split"))
    core, val = carve_validation(train_all, 0.1, derive_seed(seed, "val"))
    mcfg = ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
    weights, _ = train(core, val, mcfg, TrainConfig(seed=derive_seed(seed, "train"), max_epochs=10))
    streams = build_streams(test_set, n_streams=20, signs_per_stream=10, seed=derive_seed(seed, "streams"))
    stored = segment_report(weights, streams, window=50, stride=1, threshold=0.51)
    reference = segment_report(upcast(weights), streams, window=50, stride=1, threshold=0.51)
    for got, want in zip(stored.rows, reference.rows):
        assert [(d.label, d.window_index) for d in got.decoded] == [
            (d.label, d.window_index) for d in want.decoded
        ], f"stream {got.index} decodes differently in float32"
        p32 = np.stack([w.probs for w in got.window_probs])
        p64 = np.stack([w.probs for w in want.window_probs])
        assert np.abs(p32 - p64).max() <= 5e-5
        assert np.abs(p32.sum(axis=1) - 1.0).max() <= 1e-9


class TestEmitters:
    def test_windows_csv(self):
        rows = [[0.9, 0.1], [0.85, 0.15], [0.5, 0.5], [0.2, 0.8]]
        wp = wp_from_rows(rows)
        text = windows_csv(wp, 0.51)
        lines = text.strip().split("\n")
        assert lines[0] == "window_start,argmax_class,max_prob,emitted_label"
        assert lines[1].startswith("0,0,0.9")
        assert lines[1].endswith(",0")  # run head carries its label
        assert lines[2].endswith(",")  # collapsed duplicate emits nothing
        assert lines[3].endswith(",Blank")  # below threshold
        assert lines[4].endswith(",1")

    def test_windows_csv_rejects_rows_that_are_not_1d(self):
        wp = wp_from_rows([[[0.1, 0.9]], [[0.9, 0.1]]])
        with pytest.raises(ShapeError, match=r"^window 0 has probabilities of shape \(1, 2\), expected one row"):
            windows_csv(wp, 0.51)

    def test_summary_csv_and_json(self, mini_trained):
        weights, _, test_set = mini_trained
        stream = concat_isolated([test_set[0], test_set[1], test_set[2]])
        report = segment_report(weights, [stream], window=10, stride=2, threshold=0.51)
        csv_text = report_summary_csv(report)
        header = csv_text.strip().split("\n")[0]
        assert header == (
            "stream,avg_softmax_recognized,gt_class,gt_softmax,recognized_class,recognized_softmax"
        )
        payload = json.loads(report_aggregate_json(report))
        assert set(payload) == {
            "avg_softmax_with_pp",
            "avg_softmax_without_pp",
            "false_collapse_only",
            "false_with_pp",
            "false_without_pp",
        }

    def test_aggregate_json_is_the_five_key_literal(self):
        # five values that all differ, so a key that read another field shows
        report = SegmentReport(
            rows=[], false_with_pp=3, false_collapse_only=5, false_without_pp=7,
            avg_softmax_with_pp=0.25, avg_softmax_without_pp=0.125,
        )
        assert report_aggregate_json(report) == json.dumps(
            {
                "avg_softmax_with_pp": 0.25,
                "avg_softmax_without_pp": 0.125,
                "false_collapse_only": 5,
                "false_with_pp": 3,
                "false_without_pp": 7,
            },
            indent=2,
        ) + "\n"

    def test_summary_csv_rows_have_six_fields(self, mini_trained):
        # a too-short stream's message holds a comma, so its cell is quoted
        # and every row reads back as the header's six fields
        weights, _, test_set = mini_trained
        short = ContinuousStream(derive_rng(8, "short").normal(size=(4, 6)), [0])
        stream = concat_isolated([test_set[0], test_set[1], test_set[2]])
        report = segment_report(weights, [short, stream], window=10, stride=2, threshold=0.51)
        records = list(csv.reader(io.StringIO(report_summary_csv(report))))
        assert len(records) > 2 and all(len(r) == 6 for r in records)
        assert records[1] == ["0", "error: stream has 4 frames, one window needs 10", "-", "-", "-", "-"]
        report.rows[0].error = 'bad "x", y'  # a quote inside the cell is doubled
        assert list(csv.reader(io.StringIO(report_summary_csv(report))))[1][1] == 'error: bad "x", y'
