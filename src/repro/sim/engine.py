"""Minimal deterministic discrete-event engine.

A binary heap of plain ``[time, seq, callback, args]`` list entries.  The
sequence number breaks ties in insertion order (and is unique, so
comparison never reaches the callback slot), which — together with seeding
every random draw from one :class:`numpy.random.Generator` — makes entire
simulations bit-reproducible from a single seed.

One scheduling surface: :meth:`Engine.call_later` / :meth:`Engine.call_at`
take the callback's positional arguments (the ``asyncio`` ``call_at``
shape) and keep them in the entry's ``args`` slot, so a caller schedules a
bound method plus its operand instead of allocating a closure per event.
Nothing can be cancelled, so no handle is created, and every entry list is
recycled through a small free pool once its callback has run — per-message
scheduling then allocates nothing but the argument tuple in the steady
state.  A recycled entry keeps its last callback and ``args`` until it is
reused (at most ``_POOL_MAX`` of them).

Both reject non-finite times: ``delay < 0`` is ``False`` for NaN, so the
old guard let ``NaN``/``inf`` stamps into the heap, where a single NaN
poisons the heap invariant (every comparison with NaN is ``False``) and
corrupts event ordering for the rest of the run.
"""

from __future__ import annotations

import heapq
from math import isfinite
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

# Entry layout: [time, seq, callback, args]; ``args`` is the tuple the
# callback is called with.
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: Upper bound on recycled entry lists kept around (covers scheduling
#: bursts; beyond this, entries are simply dropped to the allocator).
_POOL_MAX = 1024


class Engine:
    """The event loop.  Time is in (true) seconds and never runs backwards."""

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = 0
        #: Current true simulation time in seconds (read-only for callers).
        self.now = 0.0
        self._processed = 0
        self._pool: List[list] = []  # recycled entries

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (engine statistics)."""
        return self._processed

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0 or not isfinite(delay):
            raise SimulationError(
                f"cannot schedule a negative or non-finite delay: delay={delay}"
            )
        self.call_at(self.now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time *time* (must not precede now).

        The entry list is drawn from (and eventually returned to) the free
        pool, so steady-state scheduling allocates nothing beyond the
        *args* tuple.
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
            entry = [time, self._seq, callback, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)

    def run(self, max_events: Optional[int] = None) -> None:
        """Process events in time order until the heap is empty.

        *max_events* is a runaway-loop backstop: the call raises
        :class:`~repro.errors.SimulationError` once it has run that many
        callbacks.
        """
        heap = self._heap
        pool = self._pool
        pop = heapq.heappop
        executed = 0
        while heap:
            entry = pop(heap)
            self.now = entry[_TIME]
            entry[_CALLBACK](*entry[_ARGS])
            self._processed += 1
            executed += 1
            if len(pool) < _POOL_MAX:
                pool.append(entry)
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events — likely livelock"
                )
