"""In-memory span recorder for the traced benchmark run.

A span is one public call into a camforest layer, made from the benchmark's
own code: name, start, end, the span that was open when it began (its
parent), and the trace id shared by every span of one repetition. Spans are
kept in a list and written out when the run ends.
"""

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; ``clock`` is injectable for tests."""

    def __init__(self, trace_id: str, clock=time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {"trace": self.trace_id, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "start": self.clock(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class NullTracer:
    """Tracing off: calls go straight through."""

    spans = ()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        a, b = s["start"], s["end"]
        kids = [(max(a, c["start"]), min(b, c["end"]))
                for c in children.get(s["id"], ())]
        out[s["id"]] = (b - a) - _covered([k for k in kids if k[1] > k[0]])
    return out
