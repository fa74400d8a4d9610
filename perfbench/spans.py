"""Spans recorded by the benchmark around its calls into each layer.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started (its parent) and the id of
the trace it belongs to; one trace covers one benchmark operation.  Spans
are kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "trace_id")

    def __init__(self, span_id: int, name: str, start: float, parent: Optional[int], trace_id: int):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace": self.trace_id,
        }


class Tracer:
    """In-memory span recorder for one run (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._trace_id = 0

    @contextmanager
    def trace(self, name: str):
        """A root span that starts a new trace."""
        self._trace_id += 1
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans) + 1, name, time.perf_counter(), parent, self._trace_id)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name: str) -> List[float]:
        return [span.seconds * 1000.0 for span in self.spans if span.name == name]

    def self_times_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage.

        Children of one span never overlap (one thread), so the covered
        part is the sum of their durations.
        """
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - covered.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own * 1000.0
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
