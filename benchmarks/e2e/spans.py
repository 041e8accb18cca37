"""In-memory spans around the benchmark's calls into each layer.

A span is ``(name, start, end, parent)``; spans opened while another is
open on the same thread become its children, and every span under one
root shares that root's index as its trace identifier.  A span's *self
time* is its duration minus the part its children cover.  Spans stay in
memory until the workload ends and leave the process inside its result
document.

The untraced pass uses :class:`NoSpans`, whose ``span`` is a shared no-op
context manager, so end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Spans:
    """Recorder of nested spans; safe to use from several client threads."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = threading.local()
        #: ``[name, start, end, parent index or None]``, in opening order.
        self.records: List[List[Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = [name, 0.0, 0.0, stack[-1] if stack else None]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span called *name*."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.records if n == name]

    def median(self, name: str) -> Optional[float]:
        """Median duration of the spans called *name*; None when there are none."""
        values = self.durations(name)
        return statistics.median(values) if values else None

    def last(self, name: str) -> float:
        """Duration of the most recent span called *name*."""
        return self.durations(name)[-1]

    def self_times(self, name: str) -> List[float]:
        """Duration minus direct children, for every span called *name*."""
        covered: Dict[int, float] = {}
        for _, start, end, parent in self.records:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [
            (end - start) - covered.get(index, 0.0)
            for index, (n, start, end, _) in enumerate(self.records)
            if n == name
        ]

    def dump(self) -> List[Dict[str, Any]]:
        """Every span as a JSON-ready mapping, ``trace`` naming its root."""
        roots: List[int] = []
        out = []
        for index, (name, start, end, parent) in enumerate(self.records):
            roots.append(index if parent is None else roots[parent])
            out.append(
                {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "trace": roots[index],
                }
            )
        return out


class NoSpans(Spans):
    """Tracing off: ``span`` costs one attribute load and records nothing."""

    enabled = False
    _noop = contextlib.nullcontext()

    def span(self, name: str):  # type: ignore[override]
        return self._noop
