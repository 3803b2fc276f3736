"""Spans and counts recorded in memory, written out when the run ends.

A span holds its name, start, end, parent span, the key of the operation it
belongs to (a step or frame number) and the minor page faults taken inside
it. Spans are recorded by the benchmark around its calls into the program;
nothing inside the program is instrumented. A disabled tracer hands out one
shared no-op context, so the untraced run pays a ``with`` statement per call.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

_OFF = contextlib.nullcontext()


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Span:
    __slots__ = ("tracer", "name", "key", "parent", "start", "faults")

    def __init__(self, tracer: "Tracer", name: str, key):
        self.tracer, self.name, self.key = tracer, name, key

    def __enter__(self):
        stack = self.tracer._open
        self.parent = stack[-1] if stack else None
        stack.append(self.tracer._next_id)
        self.tracer._next_id += 1
        self.faults = minor_faults()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        faults = minor_faults() - self.faults
        span_id = self.tracer._open.pop()
        self.tracer.spans.append({
            "id": span_id, "name": self.name, "key": self.key, "parent": self.parent,
            "start": self.start, "end": end, "minor_faults": faults})
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self._open: List[int] = []
        self._next_id = 0

    def span(self, name: str, key=None):
        return _Span(self, name, key) if self.enabled else _OFF

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    def _of(self, name: str) -> List[dict]:
        found = [s for s in self.spans if s["name"] == name]
        if not found:
            raise KeyError(f"no span named {name!r} was recorded")
        return found

    def median_s(self, name: str) -> float:
        return statistics.median(s["end"] - s["start"] for s in self._of(name))

    def median_faults(self, name: str) -> float:
        return statistics.median(s["minor_faults"] for s in self._of(name))

    def median_count(self, name: str) -> float:
        return statistics.median(self.counts[name])

    def dump(self, path: Path, header: Optional[dict] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header or {}, spans=self.spans, counts=dict(self.counts))
        path.write_text(json.dumps(payload), encoding="utf-8")
