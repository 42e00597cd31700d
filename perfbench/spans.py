"""In-memory spans for the traced run.

A span records a name, the layer (repository module) it covers, its
start and end on the ``perf_counter`` clock, the span that caused it,
and the operation it belongs to: the spans of one benchmark operation
share an operation id.  Spans are kept in memory and written out once,
when the run ends, so recording costs one ``perf_counter`` pair and a
list append.  The untraced run uses :data:`OFF`, whose spans do
nothing.

Spans are recorded from the benchmark's own files, around its direct
calls into each layer; nothing inside the program is patched.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: "int | None"
    op: int


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def operation(self, name: str) -> Iterator[None]:
        """One benchmark operation: a root span with a fresh op id."""
        self._local.op = next(self._ops)
        with self.span(name, "bench"):
            yield

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        identifier = next(self._ids)
        stack.append(identifier)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(identifier, name, layer, start, end, parent,
                        getattr(self._local, "op", -1))
            with self._lock:
                self.spans.append(span)

    def self_times(self) -> "dict[str, float]":
        """Seconds per layer, each span minus the time its children
        cover.  Children never overlap their parent's other children
        (one thread per operation), so subtracting their durations is
        exact."""
        child_time: "dict[int, float]" = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        totals: "dict[str, float]" = {}
        for span in self.spans:
            own = span.end - span.start - child_time.get(span.id, 0.0)
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(asdict(span)) + "\n")


class _Off:
    """The untraced stand-in: same interface, records nothing."""

    @staticmethod
    def operation(name: str) -> "contextlib.nullcontext[None]":
        return contextlib.nullcontext()

    @staticmethod
    def span(name: str, layer: str) -> "contextlib.nullcontext[None]":
        return contextlib.nullcontext()


OFF = _Off()
