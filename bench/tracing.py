"""In-memory span recorder for the benchmark's traced run.

The benchmark wraps each call it makes into a layer of the package in
``Tracer.call(name, fn, *args)``.  With tracing off that is a plain call.
With tracing on it records a span ``[id, parent, op, name, start, end, tag]``
in a list that is written out once, when the run ends.  ``name`` is the
per-layer metric prefix (``gluing.eval_glued``), ``parent`` is the span that
was open when the call started (the op span for calls made by an op), and
``op`` is the id of the op span, shared by every span of one op.

Nothing here touches the package itself: spans sit at the boundary between
the benchmark and the layer it calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

OP = "bench.op"


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        # seconds a span of (start, end) counts for in the summaries
        self.duration = lambda start, end: end - start
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None

    def call(self, name: str, fn, *args, tag=None):
        if not self.enabled:
            return fn(*args)
        rec = self._open(name, tag)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counters[name] += n

    def begin_op(self, op_name: str):
        if not self.enabled:
            return None
        rec = self._open(OP, op_name)
        self._op = rec[0]
        rec[2] = rec[0]
        return rec

    def end_op(self, rec) -> None:
        if rec is not None:
            self._close(rec)
            self._op = None

    def _open(self, name, tag) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self._op, name, 0.0, 0.0, tag]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = time.perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    # -- summaries --------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds and calls; per layer: self seconds.

        A span's self time is its duration minus the durations of its direct
        children; children of one span never overlap, because the benchmark
        is a single thread that closes every span before opening a sibling.
        """
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        durations = [self.duration(rec[4], rec[5]) for rec in self.spans]
        for (sid, parent, _, name, *_), d in zip(self.spans, durations):
            seconds[name] += d
            calls[name] += 1
            if parent is not None:
                child_time[parent] += d
        self_s: dict[str, float] = defaultdict(float)
        for (sid, _, _, name, *_), d in zip(self.spans, durations):
            self_s[layer_of(name)] += d - child_time[sid]
        return seconds, calls, self_s

    def tagged_seconds(self, name: str) -> dict:
        """Total seconds of the spans called ``name``, keyed by their tag."""
        out: dict = defaultdict(float)
        for _, _, _, n, start, end, tag in self.spans:
            if n == name:
                out[tag] += self.duration(start, end)
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "tag")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
