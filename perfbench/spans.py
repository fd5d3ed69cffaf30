"""In-memory span recorder for the traced run.

Spans are recorded only around the calls the benchmark's own files make
into each engine layer; nothing is traced inside the package. Each span
keeps its name, start, end, parent span and op id. Spans stay in memory
until the run ends and the parent process writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op_id: str | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Self time of every span, grouped by span name: its duration minus
    the part of it that its child spans cover. Children of one span run
    one after another on one thread, so their durations add up."""
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, list[float]] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
        out.setdefault(s["name"], []).append(own)
    return out
