"""Spans recorded by the benchmark around each call into a grasspack layer.

A span has a name ``<module>.<function>``, a start and end time, the span
that caused it and the operation it belongs to. Spans are kept in memory and
written out once, when the run ends.

While ``alloc`` is set, calls into the ``packing`` layer also record the
``tracemalloc`` peak inside the span; numpy reports its buffers to
``tracemalloc``, so the peak includes them. ``tracemalloc`` slows
allocation-heavy Python code several times over, so times are summarised only
from operations traced with ``alloc`` off, and peaks only from those with it on.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

ALLOC_LAYERS = ("packing.",)


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    alloc = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, **attrs):
        yield attrs

    @contextmanager
    def operation(self, name):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.alloc = False
        self._alloc_ops: set[int] = set()
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, **attrs):
        """Record one span; the caller may add attributes to the yielded
        dict, such as a child process's peak RSS."""
        record = {"id": len(self.spans), "name": name, "op": self._op,
                  "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        track = (self.alloc and name.startswith(ALLOC_LAYERS)
                 and not tracemalloc.is_tracing())
        if track:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            if track:
                attrs["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._stack.pop()

    @contextmanager
    def operation(self, name):
        """A root span; every span opened inside shares its operation id."""
        self._op = self._ops
        self._ops += 1
        if self.alloc:
            self._alloc_ops.add(self._op)
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per span name, over the operations that enter it: the median of
        the self time summed within one operation (``s``), of its total time
        (``total_s``), of the call count (``calls``) and of each other summed
        numeric attribute, from operations traced without ``alloc``; and the
        largest ``alloc_peak_mb`` of those traced with it."""
        own = self.self_times()
        per_op: dict[str, dict[int, dict]] = defaultdict(dict)
        for s in self.spans:
            acc = per_op[s["name"]].setdefault(
                s["op"], {"s": 0.0, "calls": 0, "total_s": 0.0})
            acc["s"] += own[s["id"]]
            acc["total_s"] += s["end"] - s["start"]
            acc["calls"] += 1
            for key, value in s["attrs"].items():
                if key == "alloc_peak_mb":
                    acc[key] = max(acc.get(key, 0.0), value)
                elif isinstance(value, (int, float)):
                    acc[key] = acc.get(key, 0) + value
        summary = {}
        for name, ops in per_op.items():
            timing = [acc for op, acc in ops.items() if op not in self._alloc_ops]
            summary[name] = {key: statistics.median(acc.get(key, 0) for acc in timing)
                             for key in (timing[0] if timing else ())
                             if key != "alloc_peak_mb"}
            peaks = [acc["alloc_peak_mb"] for op, acc in ops.items()
                     if op in self._alloc_ops and "alloc_peak_mb" in acc]
            if peaks:
                summary[name]["alloc_peak_mb"] = max(peaks)
        return summary

    def write(self, path, **header) -> None:
        own = self.self_times()
        spans = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        path.write_text(json.dumps(dict(header, spans=spans), indent=1) + "\n")
