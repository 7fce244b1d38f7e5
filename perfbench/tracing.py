"""In-memory spans and counters, plus rebinding of signseg's cross-layer calls.

A span has a name, a start, an end and the span that was open when it
started. Spans stay in memory until the run ends. A span's self time is its
duration minus the union of its children's intervals.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, [])
            if min(e, span.end) > max(s, span.start)
        ]
        out.append((span.end - span.start) - union_length(clipped))
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans and named counters of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn, counter=None):
        """fn inside a span; counter(args, result) yields (count name, n) pairs."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, n in counter(args, result):
                    self.count(key, n)
            return result

        return traced

    def stats(self) -> dict[str, SpanStats]:
        out: dict[str, SpanStats] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            s = out.setdefault(span.name, SpanStats())
            s.calls += 1
            s.total_s += span.end - span.start
            s.self_s += own
        return out


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: int) -> None:
        pass


# (module, public name) rebound in the traced run -> span name and counter.
# Each is a call one signseg layer makes into another through its module
# globals, so rebinding the name in the calling module catches the call.
REBOUND = {
    ("signseg.training", "backward"): ("gradients.backward", None),
    ("signseg.training", "forward_probs"): ("model.forward", None),
    ("signseg.training", "adam_step"): ("training.adam_step", None),
    ("signseg.training", "evaluate_isolated"): ("training.evaluate", None),
    ("signseg.segmentation", "forward_probs"): ("model.forward", None),
    ("signseg.segmentation", "slide"): (
        "segmentation.slide", lambda args, result: [("segmentation.windows", len(result))]),
    ("signseg.segmentation", "window_probs"): ("segmentation.window_probs", None),
    ("signseg.segmentation", "post_process"): (
        "segmentation.post_process", lambda args, result: [("segmentation.decoded", len(result))]),
    ("signseg.keypoints", "parse_keypoint_file"): (
        "keypoints.parse",
        lambda args, result: [("keypoints.frames", len(result)), ("keypoints.bytes", len(args[0]))]),
    ("signseg.keypoints", "normalize_frame"): ("keypoints.normalize", None),
    ("signseg.keypoints", "resample_sequence"): ("keypoints.resample", None),
}


@contextlib.contextmanager
def rebound(tracer: Tracer):
    """Within the block, every REBOUND name calls through a tracing wrapper."""
    saved = []
    try:
        for (module_name, attr), (span_name, counter) in REBOUND.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
