"""Per-process trace buffers.

The tracing backend appends events as they happen; the buffer enforces the
per-process invariants trace consumers rely on: non-decreasing local time
stamps and balanced ENTER/EXIT nesting (checked on finalize).

Events are *encoded as they arrive*: each hook packs its record straight
into the binary trace format (:mod:`repro.trace.encoding`) and appends it
to one growing ``bytearray``.  Memory per buffered event is therefore the
encoded record size (13–37 bytes) instead of a Python event object
(~100+ bytes), which is what bounds simulator memory at 1024 ranks, and
end-of-run archive writing is a plain byte copy instead of a second
whole-trace encode pass.  :attr:`events` decodes on demand for consumers
that want event objects (tests, diagnostics); the encoded and decoded
views are byte-equivalent by construction since both run through the same
record structs.
"""

from __future__ import annotations

import struct
from typing import Iterator, List

from repro.errors import EncodingError, TraceError
from repro.trace.encoding import (
    decode_events,
    encode_header,
    pack_coll_exit,
    pack_enter,
    pack_exit,
    pack_omp_region,
    pack_recv,
    pack_send,
)
from repro.trace.events import Event


class TraceBuffer:
    """Append-only event log of one process, encoded on the fly."""

    __slots__ = ("rank", "_buf", "_count", "_last_time", "_depth", "_finalized")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._buf = bytearray()
        self._count = 0
        self._last_time = float("-inf")
        self._depth = 0
        self._finalized = False

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def events(self) -> List[Event]:
        """Decoded event objects (materialized on each access)."""
        return decode_events(self.encoded())[1]

    def encoded(self) -> bytes:
        """The trace-file bytes (header + records) encoded so far.

        Identical to ``encode_events(rank, events)`` over the same event
        sequence; the archive writer stores this directly.  One join, so
        the records are copied once.
        """
        return b"".join((encode_header(self.rank), self._buf))

    # One frame per record on the accepting path: order/finalized/depth
    # checks, pack and append happen in the record method itself, and a
    # failed pack leaves the buffer untouched.  The simulated world calls
    # these once per event, directly.

    def _reject(self, time: float) -> None:
        if self._finalized:
            raise TraceError(f"trace buffer of rank {self.rank} already finalized")
        raise TraceError(
            f"rank {self.rank}: non-monotonic local time stamp "
            f"{time} after {self._last_time}"
        )

    def _unencodable(self, kind: str, exc: struct.error) -> EncodingError:
        return EncodingError(f"rank {self.rank}: cannot encode {kind} event: {exc}")

    def enter(self, time: float, region: int) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_enter(1, time, region)
        except struct.error as exc:
            raise self._unencodable("ENTER", exc) from exc
        self._last_time = time
        self._count += 1
        self._depth += 1

    def exit(self, time: float, region: int) -> None:
        if self._depth <= 0:
            raise TraceError(f"rank {self.rank}: EXIT without matching ENTER")
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_exit(2, time, region)
        except struct.error as exc:
            raise self._unencodable("EXIT", exc) from exc
        self._last_time = time
        self._count += 1
        self._depth -= 1

    def send(self, time: float, dest: int, tag: int, comm: int, size: int) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_send(3, time, dest, tag, comm, size)
        except struct.error as exc:
            raise self._unencodable("SEND", exc) from exc
        self._last_time = time
        self._count += 1

    def recv(self, time: float, source: int, tag: int, comm: int, size: int) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_recv(4, time, source, tag, comm, size)
        except struct.error as exc:
            raise self._unencodable("RECV", exc) from exc
        self._last_time = time
        self._count += 1

    def omp_region(
        self, time: float, region: int, nthreads: int, busy_sum: float, busy_max: float
    ) -> None:
        if nthreads < 1:
            raise TraceError(f"rank {self.rank}: team size must be positive")
        if busy_sum < 0 or busy_max < 0:
            raise TraceError(f"rank {self.rank}: negative thread busy time")
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_omp_region(6, time, region, nthreads, busy_sum, busy_max)
        except struct.error as exc:
            raise self._unencodable("OMPREGION", exc) from exc
        self._last_time = time
        self._count += 1

    def coll_exit(
        self, time: float, region: int, comm: int, root: int, sent: int, recvd: int
    ) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_coll_exit(5, time, region, comm, root, sent, recvd)
        except struct.error as exc:
            raise self._unencodable("COLLEXIT", exc) from exc
        self._last_time = time
        self._count += 1

    def finalize(self) -> None:
        """Close the buffer, verifying ENTER/EXIT balance."""
        if self._depth != 0:
            raise TraceError(
                f"rank {self.rank}: {self._depth} unclosed regions at trace end"
            )
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized
