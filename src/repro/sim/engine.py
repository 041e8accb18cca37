"""Minimal deterministic discrete-event engine.

A binary heap of plain ``[time, seq, callback, args, pooled]`` list entries.
The sequence number breaks ties in insertion order (and is unique, so
comparison never reaches the callback slot), which — together with seeding
every random draw from one :class:`numpy.random.Generator` — makes entire
simulations bit-reproducible from a single seed.

Cancellation flips the callback slot to ``None`` and decrements a live-entry
counter, so :meth:`Engine.pending_events` and :meth:`Engine.empty` are O(1)
and cancelled entries cost one heap pop when their time comes instead of a
full-heap scan on every query.

Two scheduling surfaces exist.  :meth:`Engine.schedule` /
:meth:`Engine.schedule_at` return an :class:`EventHandle` for callers that
may cancel.  :meth:`Engine.call_later` / :meth:`Engine.call_at` are the hot
path: they take the callback's positional arguments (the ``asyncio``
``call_at`` shape) and keep them in the entry's ``args`` slot, so a caller
schedules a bound method plus its operand instead of allocating a closure
per event.  No handle is created, and the entry list itself is recycled
through a small free pool once its callback has run — per-message
scheduling then allocates nothing but the argument tuple in the steady
state.  What is pooled is the five-slot list only: a recycled entry keeps
its last ``args`` until it is reused (at most ``_POOL_MAX`` stale tuples),
and only handle-less entries are pooled — an entry referenced by an
:class:`EventHandle` is never reused, so a stale handle can never cancel an
unrelated later event.

All four reject non-finite times: ``delay < 0`` is ``False`` for NaN, so the
old guard let ``NaN``/``inf`` stamps into the heap, where a single NaN
poisons the heap invariant (every comparison with NaN is ``False``) and
corrupts event ordering for the rest of the run.
"""

from __future__ import annotations

import heapq
from math import isfinite
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

#: Callback-slot sentinel for entries whose callback already ran (or was
#: skipped as cancelled); distinguishes them from cancelled-but-pending
#: entries (``None``) so a late ``cancel()`` cannot corrupt the counter.
_DONE = object()

# Entry layout: [time, seq, callback, args, pooled]; callback is None once
# cancelled and _DONE once consumed by the run loop, ``args`` is the tuple it
# is called with.  ``pooled`` marks handle-less entries eligible for recycling.
_TIME, _SEQ, _CALLBACK, _ARGS, _POOLED = 0, 1, 2, 3, 4

#: Upper bound on recycled entry lists kept around (covers scheduling
#: bursts; beyond this, entries are simply dropped to the allocator).
_POOL_MAX = 1024


class EventHandle:
    """Cancelable reference to a scheduled callback."""

    __slots__ = ("_entry", "_engine")

    def __init__(self, entry: list, engine: "Engine") -> None:
        self._entry = entry
        self._engine = engine

    def cancel(self) -> None:
        if self._entry[_CALLBACK] is not None and self._entry[_CALLBACK] is not _DONE:
            self._entry[_CALLBACK] = None
            self._engine._live -= 1

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None


class Engine:
    """The event loop.  Time is in (true) seconds and never runs backwards."""

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = 0
        #: Current true simulation time in seconds (read-only for callers).
        self.now = 0.0
        self._processed = 0
        self._live = 0  # non-cancelled entries still in the heap
        self._pool: List[list] = []  # recycled handle-less entries

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (engine statistics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled callbacks — O(1)."""
        return self._live

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* ``delay`` seconds from now."""
        if delay < 0 or not isfinite(delay):
            raise SimulationError(
                f"cannot schedule a negative or non-finite delay: delay={delay}"
            )
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* at absolute time *time* (must not precede now)."""
        if time < self.now or not isfinite(time):
            raise SimulationError(
                f"cannot schedule into the past or at a non-finite time: "
                f"t={time}, now={self.now}"
            )
        entry = [time, self._seq, callback, (), False]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._live += 1
        return EventHandle(entry, self)

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Handle-less :meth:`schedule` (hot path; cannot be cancelled)."""
        if delay < 0 or not isfinite(delay):
            raise SimulationError(
                f"cannot schedule a negative or non-finite delay: delay={delay}"
            )
        self.call_at(self.now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Handle-less :meth:`schedule_at`: run ``callback(*args)`` at *time*.

        Hot path; cannot be cancelled.  The entry list is drawn from (and
        eventually returned to) the free pool, so steady-state scheduling
        allocates nothing beyond the *args* tuple.
        """
        if time < self.now or not isfinite(time):
            raise SimulationError(
                f"cannot schedule into the past or at a non-finite time: "
                f"t={time}, now={self.now}"
            )
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[_TIME] = time
            entry[_SEQ] = self._seq
            entry[_CALLBACK] = callback
            entry[_ARGS] = args
        else:
            entry = [time, self._seq, callback, args, True]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._live += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Stops when the heap is empty, when the next event lies beyond
        *until*, or after *max_events* callbacks (a runaway-loop backstop).
        In every stop case with *until* set, ``now`` ends up at *until*
        (never beyond it, never stale behind it).

        Same-timestamp wakeups are drained in one batch: ``now`` is written
        and the stop condition re-checked once per distinct timestamp, not
        once per callback — timer-heavy workloads schedule many completions
        at identical times (eager arrivals, collective exits).
        """
        heap = self._heap
        pool = self._pool
        pop = heapq.heappop
        executed = 0
        while heap:
            batch_time = heap[0][_TIME]
            if until is not None and batch_time > until:
                self.now = until
                return
            self.now = batch_time
            while heap and heap[0][_TIME] == batch_time:
                entry = pop(heap)
                callback = entry[_CALLBACK]
                if callback is None:  # cancelled; stays marked cancelled forever
                    continue  # (never pooled: only handles can cancel)
                entry[_CALLBACK] = _DONE
                self._live -= 1
                callback(*entry[_ARGS])
                self._processed += 1
                executed += 1
                if entry[_POOLED] and len(pool) < _POOL_MAX:
                    pool.append(entry)
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events — likely livelock"
                    )
        # Heap drained before reaching *until*: idle time still passes.
        if until is not None and until > self.now:
            self.now = until

    def empty(self) -> bool:
        """True when no live callbacks remain — O(1)."""
        return self._live == 0
