import importlib
import math

import pytest

import signseg.segmentation
import signseg.training
from tracing import REBOUND, Span, Tracer, rebound, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert union_length([(1.0, 3.0), (0.0, 5.0), (4.0, 4.5)]) == 5.0


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] with its own child [2, 3], and b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] overlap on [3, 5]; their union is 6 long,
    # and [9, 12] sticks out of the parent, so only [9, 10] of it counts
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 1.0, 5.0, 0),
        Span("y", 3.0, 7.0, 0),
        Span("z", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_links_parents_and_sums_stats():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    stats = tracer.stats()
    assert stats["inner"].calls == 2
    assert stats["outer"].calls == 1
    inner_total = sum(s.end - s.start for s in tracer.spans[1:])
    assert stats["outer"].self_s == pytest.approx(stats["outer"].total_s - inner_total)
    assert not any(math.isnan(s.end) for s in tracer.spans)


def test_rebound_wraps_only_inside_the_block():
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in REBOUND}
    tracer = Tracer()
    with rebound(tracer):
        assert signseg.training.backward is not before[("signseg.training", "backward")]
        signseg.segmentation.slide([[0.0]] * 3, window=2)
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert tracer.stats()["segmentation.slide"].calls == 1
    assert tracer.counts["segmentation.windows"] == 2
