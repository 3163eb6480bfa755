"""In-memory spans recorded by the benchmark around each call into phnet.

A span has a name, start, end (perf_counter seconds), the id of its
parent span and the job it belongs to, plus the counts the caller attaches
after the call.  They stay in memory; run.py writes them out at the end.
"""

import time
from contextlib import contextmanager


class Tracer:
    """Records spans; ``job`` opens the root span of one job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "job": self._job,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, job_id):
        self._job = job_id
        try:
            with self.span("job") as rec:
                yield rec
        finally:
            self._job = None


class NullTracer:
    """Same interface, records nothing: the untraced run."""

    @contextmanager
    def span(self, name):
        yield {}

    job = span


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Children of one span run one after another (one thread, no overlap),
    so their durations add.
    """
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def layer_totals(spans):
    """name -> {"calls", "busy_s", "self_s"} summed over spans of that name."""
    own = self_times(spans)
    out = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += s["end"] - s["start"]
        agg["self_s"] += own[s["id"]]
    return out
