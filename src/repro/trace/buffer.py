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
whole-trace encode pass.  Appending also notes where each checksum block
ends (the first record end at or past each ``CHECKSUM_BLOCK_BYTES`` mark),
so the archive manifest's table needs no second walk over the records.
:attr:`events` decodes on demand for consumers that want event objects
(tests, diagnostics); the encoded and decoded views are byte-equivalent by
construction since both run through the same record structs.
"""

from __future__ import annotations

import struct
import zlib
from math import inf
from typing import Iterator, List, Tuple

from repro.errors import EncodingError, TraceError
from repro.trace.encoding import (
    CHECKSUM_BLOCK_BYTES,
    HEADER_SIZE,
    decode_events,
    encode_header,
    pack_coll_exit,
    pack_enter,
    pack_exit,
    pack_omp_region,
    pack_recv,
    pack_send,
    scan_records,
)
from repro.trace.events import Event


class TraceBuffer:
    """Append-only event log of one process, encoded on the fly."""

    __slots__ = ("rank", "_buf", "_last_time", "_depth", "_finalized", "_cuts", "_mark")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._buf = bytearray()
        self._last_time = float("-inf")
        self._depth = 0
        self._finalized = False
        # Record offsets where checksum blocks end; where the open one may.
        self._cuts: List[int] = []
        self._mark = CHECKSUM_BLOCK_BYTES - HEADER_SIZE

    def __len__(self) -> int:
        return len(scan_records(self.encoded()).offsets)

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

    def blocks(self) -> List[Tuple[int, int, int]]:
        """The checksum table of :meth:`encoded`, equal to its ``block_table``."""
        data = memoryview(self.encoded())
        ends = [HEADER_SIZE + cut for cut in self._cuts]
        ends += [len(data)] if not ends or ends[-1] < len(data) else []
        return [(a, b - a, zlib.crc32(data[a:b])) for a, b in zip([0, *ends], ends)]

    def _cut(self) -> None:
        """A record ended at or past the mark: the open block ends here."""
        stop = len(self._buf)
        self._cuts.append(stop)
        self._mark = stop + CHECKSUM_BLOCK_BYTES

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
        if len(self._buf) >= self._mark:
            self._cut()
        self._last_time = time
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
        if len(self._buf) >= self._mark:
            self._cut()
        self._last_time = time
        self._depth -= 1

    def send(self, time: float, dest: int, tag: int, comm: int, size: int) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_send(3, time, dest, tag, comm, size)
        except struct.error as exc:
            raise self._unencodable("SEND", exc) from exc
        if len(self._buf) >= self._mark:
            self._cut()
        self._last_time = time

    def recv(self, time: float, source: int, tag: int, comm: int, size: int) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_recv(4, time, source, tag, comm, size)
        except struct.error as exc:
            raise self._unencodable("RECV", exc) from exc
        if len(self._buf) >= self._mark:
            self._cut()
        self._last_time = time

    def omp_region(
        self, time: float, region: int, nthreads: int, busy_sum: float, busy_max: float
    ) -> None:
        if nthreads < 1:
            raise TraceError(f"rank {self.rank}: team size must be positive")
        if not (0 <= busy_sum < inf and 0 <= busy_max < inf):  # NaN fails
            raise TraceError(f"rank {self.rank}: thread busy times must be finite and >= 0")
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_omp_region(6, time, region, nthreads, busy_sum, busy_max)
        except struct.error as exc:
            raise self._unencodable("OMPREGION", exc) from exc
        if len(self._buf) >= self._mark:
            self._cut()
        self._last_time = time

    def coll_exit(
        self, time: float, region: int, comm: int, root: int, sent: int, recvd: int
    ) -> None:
        if self._finalized or time < self._last_time:
            self._reject(time)
        try:
            self._buf += pack_coll_exit(5, time, region, comm, root, sent, recvd)
        except struct.error as exc:
            raise self._unencodable("COLLEXIT", exc) from exc
        if len(self._buf) >= self._mark:
            self._cut()
        self._last_time = time

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
