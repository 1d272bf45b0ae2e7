"""In-memory spans around the benchmark's calls into snarklab.

A span records a layer call made from the benchmark's own code: its name
(``layer.call``), start and end on the monotonic clock, the span open when
it started, and the item it belongs to. Spans stay in memory; the worker
sums them per name when its phase ends. ``NullTracer`` gives untraced runs
the same code path with nothing recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int], Optional[int]]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: Optional[int] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, item))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, item)

    def totals(self) -> dict[str, float]:
        """Seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


class NullTracer:
    @contextmanager
    def span(self, name: str, item: Optional[int] = None) -> Iterator[None]:
        yield
