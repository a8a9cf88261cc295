"""Spans and counts recorded around the benchmark's calls into the package.

A span is (id, name, parent, start, end). Spans stay in memory and are
written out once, when the run ends. With ``memory=True`` each span also
gets the ``tracemalloc`` peak above the memory traced when it opened; the
peak of a span includes the peaks of its children.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class NullTracer:
    """Tracer of the untraced passes: records nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value) -> None:
        pass


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[dict] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent["id"] if parent else None}
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = current
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter() - self._origin
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()
            if self.memory:
                peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["peak_mb"] = (peak - rec.pop("_base")) / 2**20
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], peak)

    def count(self, name: str, value) -> None:
        self.counts[name] = int(value)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own
