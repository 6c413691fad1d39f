"""Spans around the benchmark's calls into thermolight's layers.

A span has a name, a start, an end, a parent span and the id of the op it
belongs to. Spans stay in memory and are written out when the run ends.
The untraced tracer hands out one shared no-op context, so untraced runs
pay a single method call per boundary.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.values: list[dict] = []   # per-op measurements that are not spans
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.counting = True  # counts are kept for the first few inputs only

    def span(self, name: str):
        """Context manager timing one call; a no-op when tracing is off."""
        return _Span(self, name) if self.enabled else _NULL

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (a child process on the same monotonic clock)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"id": len(self.spans), "op": self.op_id, "name": name,
                               "parent": parent, "start": start, "end": end})

    def record(self, name: str, value: float) -> None:
        """Record a per-op measurement such as a count or a per-point cost."""
        if self.enabled:
            self.values.append({"op": self.op_id, "name": name, "value": float(value)})

    def count(self, name: str, value: int) -> None:
        """Add to a count; kept only while counting, so that the total repeats exactly for a seed."""
        if self.enabled and self.counting:
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "values": self.values, "counts": self.counts}, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append({"id": self.index, "op": tr.op_id, "name": self.name,
                         "parent": parent, "start": time.perf_counter(), "end": None})
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index]["end"] = time.perf_counter()
        tr._stack.pop()
        return False


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def per_op_medians(tracer: Tracer) -> dict[str, float]:
    """Median over ops of each span's self time in ms, and of each recorded value.

    Keys are "<span name>_ms" and value names. Within one op, repeated spans
    or values of one name are summed first.
    """
    selfs = self_times(tracer.spans)
    per_op: dict[str, dict[int, float]] = {}
    for s in tracer.spans:
        slot = per_op.setdefault(s["name"] + "_ms", {})
        slot[s["op"]] = slot.get(s["op"], 0.0) + selfs[s["id"]] * 1e3
    for v in tracer.values:
        slot = per_op.setdefault(v["name"], {})
        slot[v["op"]] = slot.get(v["op"], 0.0) + v["value"]
    return {name: statistics.median(by_op.values()) for name, by_op in per_op.items()}
