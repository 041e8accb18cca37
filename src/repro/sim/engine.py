"""Minimal deterministic discrete-event engine.

Pending events are ``(time, seq, callback, args)`` tuples run in
``(time, seq)`` order: the unique sequence number breaks ties in insertion
order (so comparison never reaches the callback), which — together with
seeding every random draw from one :class:`numpy.random.Generator` — makes
entire simulations bit-reproducible from a single seed.  ``call_at`` /
``call_later`` take the callback's positional arguments (the ``asyncio``
shape), so a caller schedules a bound method plus its operand instead of a
closure.  Nothing can be cancelled, so no handle is created.

The earliest pending entry waits in a one-entry slot in front of the heap,
strictly before the heap's top: an entry earlier than everything queued (a
process's continuation usually is) runs next without touching
:mod:`heapq`, and the slot's entry moves into the heap when an earlier one
takes its place.  Non-finite times are refused (``delay < 0`` is ``False``
for NaN, and one NaN in the heap corrupts its order for the rest of the run).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from sys import maxsize
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

Entry = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class Engine:
    """The event loop.  Time is in (true) seconds and never runs backwards."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._next: Optional[Entry] = None  # the earliest pending entry, if not in the heap
        self._seq = 0
        #: Current true simulation time in seconds (read-only for callers).
        self.now = 0.0
        self._processed = 0

    @property
    def processed_events(self) -> int:
        """Callbacks executed; a run adds its count when it returns or raises."""
        return self._processed

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        if not 0 <= delay < inf:  # NaN fails
            raise SimulationError(
                f"cannot schedule a negative or non-finite delay: delay={delay}"
            )
        self.call_at(self.now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time *time* (must not precede now)."""
        if not self.now <= time < inf:  # NaN fails
            raise SimulationError(
                f"cannot schedule into the past or at a non-finite time: "
                f"t={time}, now={self.now}"
            )
        entry = (time, self._seq, callback, args)
        self._seq += 1
        first = self._next  # on a time tie the new entry, with the largest seq, goes after
        if first is None:
            heap = self._heap
            if heap and heap[0][0] <= time:
                heappush(heap, entry)
            else:
                self._next = entry
        elif time < first[0]:
            heappush(self._heap, first)
            self._next = entry
        else:
            heappush(self._heap, entry)

    def run(self, max_events: Optional[int] = None) -> None:
        """Process events in time order until none is pending.

        *max_events* is a runaway-loop backstop: the call raises
        :class:`~repro.errors.SimulationError` once it has run that many
        callbacks.
        """
        heap = self._heap
        limit = maxsize if max_events is None else max_events
        executed = 0
        try:
            while True:
                entry = self._next
                if entry is not None:
                    self._next = None
                elif heap:
                    entry = heappop(heap)
                else:
                    return
                self.now, _, callback, args = entry
                callback(*args)
                executed += 1
                if executed >= limit:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events — likely livelock"
                    )
        finally:
            self._processed += executed
