"""Binary encoding of local trace files.

Fixed-layout little-endian records, one per event, each introduced by a
one-byte kind tag (see :class:`~repro.trace.events.EventKind`):

====  ==========================================  =======
kind  payload                                     bytes
====  ==========================================  =======
1     ENTER     f64 time, u32 region              13
2     EXIT      f64 time, u32 region              13
3     SEND      f64 time, i32 dest, i32 tag,      29
                u32 comm, u64 size
4     RECV      f64 time, i32 src,  i32 tag,      29
                u32 comm, u64 size
5     COLLEXIT  f64 time, u32 region, u32 comm,   37
                i32 root, u64 sent, u64 recvd
6     OMPREGION f64 time, u32 region, u32 team,   33
                f64 busy_sum, f64 busy_max
====  ==========================================  =======

A short magic header (``RPRT`` + format version + rank) makes stray files
detectable.  The codec is strict both ways: out-of-range field values on
encode, and unknown kinds or truncated records on decode, all raise
:class:`~repro.errors.EncodingError` (offsets in decode diagnostics always
point at the record's kind tag, i.e. the start of the offending record).

Both directions run through per-kind dispatch tables, and three loops step
through the variable-length record grammar:

* :func:`scan_records` builds nothing: it returns every complete record's
  offset, where the clean prefix ends and the defect there.
  :func:`decode_columns` and :func:`decode_batch` (the columnar decoders
  the replay's local phase reads: one numpy array per kind, no event
  objects), :func:`block_table`, :func:`record_boundary` and
  :func:`salvage_events` are array operations over its result;
* :func:`walk_records` makes the same result for many blobs at once: the
  blocks of their checksum manifests are walked in lockstep, one vector
  step per record a block holds, and only where a block's walk does not
  land on the next block's start does the :func:`scan_records` loop take
  over;
* :func:`_chunk_iter` builds event objects for the streaming
  :func:`iter_events` and :func:`decode_events` — the reference the
  columnar decoders are tested against — one ``unpack_from`` per record
  (traces wrap every MPI call in its own ENTER/EXIT, so same-kind runs
  average 1.07 records and batching them measured slower).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import EncodingError
from repro.trace.events import (
    CollExitEvent,
    EnterEvent,
    Event,
    EventKind,
    ExitEvent,
    OmpRegionEvent,
    RecvEvent,
    SendEvent,
)

MAGIC = b"RPRT"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHI")  # magic, version, rank

#: Byte length of the file header (fault injection cuts traces below this).
HEADER_SIZE = _HEADER.size

# Whole-record structs (kind byte + payload, still unaligned little-endian)
# shared by the encoder and the decoders.
_ENTER_REC = struct.Struct("<BdI")
_EXIT_REC = _ENTER_REC
_SEND_REC = struct.Struct("<BdiiIQ")
_RECV_REC = _SEND_REC
_COLLEXIT_REC = struct.Struct("<BdIIiQQ")
_OMPREGION_REC = struct.Struct("<BdIIdd")

#: kind → function packing one event into its full record (kind byte included).
_ENCODERS: Dict[int, Callable[[Event], bytes]] = {
    EventKind.ENTER: lambda e, _p=_ENTER_REC.pack: _p(1, e.time, e.region),
    EventKind.EXIT: lambda e, _p=_EXIT_REC.pack: _p(2, e.time, e.region),
    EventKind.SEND: lambda e, _p=_SEND_REC.pack: _p(
        3, e.time, e.dest, e.tag, e.comm, e.size
    ),
    EventKind.RECV: lambda e, _p=_RECV_REC.pack: _p(
        4, e.time, e.source, e.tag, e.comm, e.size
    ),
    EventKind.COLLEXIT: lambda e, _p=_COLLEXIT_REC.pack: _p(
        5, e.time, e.region, e.comm, e.root, e.sent, e.recvd
    ),
    EventKind.OMPREGION: lambda e, _p=_OMPREGION_REC.pack: _p(
        6, e.time, e.region, e.nthreads, e.busy_sum, e.busy_max
    ),
}

def _factory(cls) -> Callable[[tuple], Event]:
    """Record tuple (kind byte included) → event, via C-level tuple.__new__.

    Events are NamedTuples, so ``tuple.__new__(cls, fields)`` builds them
    without entering the generated Python ``__new__`` — the decoder
    constructs millions of these.  Field arity is guaranteed by the fixed
    record structs.
    """
    return lambda f, _new=tuple.__new__, _cls=cls: _new(_cls, f[1:])


#: The record grammar: (kind, whole-record struct, event class).
_RECORD_KINDS = (
    (EventKind.ENTER, _ENTER_REC, EnterEvent),
    (EventKind.EXIT, _EXIT_REC, ExitEvent),
    (EventKind.SEND, _SEND_REC, SendEvent),
    (EventKind.RECV, _RECV_REC, RecvEvent),
    (EventKind.COLLEXIT, _COLLEXIT_REC, CollExitEvent),
    (EventKind.OMPREGION, _OMPREGION_REC, OmpRegionEvent),
)

#: kind → (record stride, unpack_from, record fields → event).
_DECODERS: Dict[int, Tuple[int, Callable, Callable[[tuple], Event]]] = {
    int(kind): (rec.size, rec.unpack_from, _factory(cls))
    for kind, rec, cls in _RECORD_KINDS
}

#: kind byte → record stride; a byte that is no record kind strides past the
#: end of any file, so the scan needs no test for it inside its loop.
_STRIDES = [_DECODERS[kind][0] if kind in _DECODERS else 1 << 62 for kind in range(256)]
#: The same table as an array, for the lockstep walk's vector steps.
_STRIDE_ARRAY = np.array(_STRIDES, dtype=np.int64)


def encode_header(rank: int) -> bytes:
    """Trace-file header bytes for *rank* (shared with the streaming buffer)."""
    try:
        return _HEADER.pack(MAGIC, FORMAT_VERSION, rank)
    except struct.error as exc:
        raise EncodingError(f"cannot encode rank {rank} in trace header: {exc}") from exc


#: Bound whole-record packers (kind byte first) for callers that encode
#: records as they are produced — the streaming
#: :class:`~repro.trace.buffer.TraceBuffer` — instead of going through
#: event objects and :func:`encode_events`.
pack_enter = _ENTER_REC.pack
pack_exit = _EXIT_REC.pack
pack_send = _SEND_REC.pack
pack_recv = _RECV_REC.pack
pack_coll_exit = _COLLEXIT_REC.pack
pack_omp_region = _OMPREGION_REC.pack


def encode_events(rank: int, events: Iterable[Event]) -> bytes:
    """Serialize *events* of one process to a trace-file byte string."""
    chunks: List[bytes] = [encode_header(rank)]
    append = chunks.append
    encoders = _ENCODERS
    for index, event in enumerate(events):
        encoder = encoders.get(event.kind)
        if encoder is None:
            raise EncodingError(f"cannot encode event kind {event.kind!r}")
        try:
            append(encoder(event))
        except struct.error as exc:
            raise EncodingError(
                f"cannot encode {EventKind(event.kind).name} event at index "
                f"{index}: {exc} ({event!r})"
            ) from exc
    return b"".join(chunks)


def header_rank(data: bytes) -> int:
    """Validate the file header; returns the recorded rank."""
    if len(data) < _HEADER.size:
        raise EncodingError("trace file shorter than its header")
    magic, version, rank = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise EncodingError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != FORMAT_VERSION:
        raise EncodingError(f"unsupported trace format version {version}")
    return rank


def _defect(data: bytes, offset: int) -> str:
    """Why no complete record starts at *offset*: the text both walks report."""
    kind = data[offset]
    if kind not in _DECODERS:
        return f"unknown record kind {kind} at offset {offset}"
    return f"truncated {EventKind(kind).name} record at offset {offset}"


#: Records decoded per chunk on the streaming path — large enough to make the
#: per-chunk Python generator resume negligible, small enough that memory
#: stays O(chunk) rather than O(trace).
_CHUNK_RECORDS = 1024


def _chunk_iter(data: bytes, chunk: int = _CHUNK_RECORDS) -> Iterator[List[Event]]:
    """Decode records after a validated header, yielding lists of ~*chunk*.

    The walk that builds event objects: both the streaming
    (:func:`iter_events`) and the one-shot (:func:`decode_events`) decoders
    consume it.  Inside a chunk the loop is a tight ``append``; yielding
    whole lists keeps per-event generator-resume cost out of the hot path
    (the consumer iterates each chunk at C level).
    """
    decoders = _DECODERS
    size = len(data)
    offset = _HEADER.size
    buf: List[Event] = []
    append = buf.append
    while offset < size:
        entry = decoders.get(data[offset])
        if entry is None or offset + entry[0] > size:
            raise EncodingError(_defect(data, offset))
        stride, unpack_from, factory = entry
        append(factory(unpack_from(data, offset)))
        offset += stride
        if len(buf) >= chunk:
            yield buf
            buf = []
            append = buf.append
    if buf:
        yield buf


def iter_events(data: bytes) -> Tuple[int, Iterator[Event]]:
    """Streaming decoder: ``(rank, lazy event iterator)``.

    The header is validated eagerly; record decoding errors surface as
    :class:`~repro.errors.EncodingError` while iterating.  Memory use is
    bounded by the decode chunk size, never the whole trace.
    """
    return header_rank(data), chain.from_iterable(_chunk_iter(data))


def decode_events(data: bytes) -> Tuple[int, List[Event]]:
    """Parse a trace file; returns ``(rank, events)``."""
    rank, events = iter_events(data)
    return rank, list(events)


class TraceColumns(NamedTuple):
    """One trace file as arrays: what :func:`decode_columns` returns."""

    rank: int
    #: Record kind per event, in trace order.
    kinds: np.ndarray
    #: Local time stamp per event, in trace order.
    times: np.ndarray
    #: kind → that kind's records in trace order, one structured row each
    #: (fields named as in the event class); every kind is present.
    records: Dict[int, np.ndarray]


#: struct format character → numpy scalar type (all little-endian).
_NUMPY_TYPES = {"B": "u1", "d": "<f8", "i": "<i4", "I": "<u4", "Q": "<u8"}

#: kind → packed structured dtype of one whole record (kind byte first).
_RECORD_DTYPES: Dict[int, np.dtype] = {
    int(kind): np.dtype(
        [("kind", "u1")]
        + [(name, _NUMPY_TYPES[code]) for name, code in zip(cls._fields, rec.format[2:])]
    )
    for kind, rec, cls in _RECORD_KINDS
}


class RecordScan(NamedTuple):
    """What one walk of the record grammar finds behind the header."""

    #: Offset of every complete record's kind tag, ascending.
    offsets: np.ndarray
    #: Where the clean prefix ends: the defect's offset, or ``len(data)``.
    end: int
    #: What the strict decoders raise at ``end``; empty when every byte parses.
    error: str


def scan_records(data: bytes) -> RecordScan:
    """Step through the records of *data* without decoding any; never raises.

    Record lengths depend on the kind, so this one pass cannot be an array
    operation; everything that does not build event objects is one over its
    result.  The header is not examined (checksum blocks and fault injection
    walk foreign files too): the walk starts where it ends.
    """
    return _scan_from(data, min(_HEADER.size, len(data)))


def _scan_from(data: bytes, offset: int, known: Optional[np.ndarray] = None) -> RecordScan:
    """The sequential walk from *offset*, a record start; *known* holds the
    offsets of the records before it."""
    strides = _STRIDES
    size = len(data)
    offsets: List[int] = []
    append = offsets.append
    while offset < size:
        append(offset)
        offset += strides[data[offset]]
    if offset > size:  # the last step left the file: cut short, or no record
        offset = offsets.pop()
    error = _defect(data, offset) if offset < size else ""
    found = np.array(offsets, dtype=np.int64)
    if known is not None:
        found = np.concatenate((known, found))
    return RecordScan(found, offset, error)


def walk_records(
    blobs: Sequence[bytes], tables: Sequence[Optional[Sequence[Tuple[int, int, int]]]]
) -> List[RecordScan]:
    """``scan_records(blob)`` of every blob, with one walk for all of them.

    ``tables[i]`` is blob *i*'s checksum block table (``(offset, length,
    crc32)`` triples, as :func:`block_table` cuts them), or None.  Every
    block is a cursor — block 0's starts where the header ends — and all
    cursors of all blobs step at once, one vector step per record a block
    holds (``cur += strides[raw[cur]]``).  A block is trusted only when its
    walk lands exactly on the next block's start, or on the blob's end for
    the last block: by induction from the header, a trusted block's records
    are the ones the sequential walk meets there.  From a blob's first
    untrusted block on — and for a blob without a table — the
    :func:`scan_records` loop continues, so the results equal it whatever
    the tables say.
    """
    scans: List[Optional[RecordScan]] = [None] * len(blobs)
    lanes = [
        i for i, (blob, table) in enumerate(zip(blobs, tables))
        if table and len(blob) > _HEADER.size
    ]
    if lanes:
        sizes = np.array([len(blobs[i]) for i in lanes], np.int64)
        counts = np.array([len(tables[i]) for i in lanes], np.int64)
        base = np.cumsum(sizes) - sizes
        first = np.cumsum(counts) - counts
        last = first + counts - 1
        lane_of = np.repeat(np.arange(len(lanes)), counts)
        # Cursors stay inside their blob, whatever the table claims.
        start = np.clip(
            np.array([block[0] for i in lanes for block in tables[i]], np.int64),
            _HEADER.size,
            sizes[lane_of],
        )
        start[first] = _HEADER.size
        end = np.roll(start, -1)
        end[last] = sizes
        start += base[lane_of]
        end += base[lane_of]
        raw = np.frombuffer(b"".join(blobs[i] for i in lanes), np.uint8)

        stands = start.copy()
        live = np.flatnonzero(start < end)
        at, stop = start[live], end[live]
        seen, seen_in = [], []
        while len(at):
            seen.append(at)
            seen_in.append(live)
            at = at + _STRIDE_ARRAY[raw[at]]
            going = at < stop
            if not going.all():
                stands[live] = at
                live, at, stop = live[going], at[going], stop[going]

        # A lane trusts its blocks up to the first one that missed.
        block = np.arange(len(start)) - first[lane_of]
        missed = np.where(stands == end, counts[lane_of], block)
        trusted = np.minimum.reduceat(missed, first)
        if seen:
            offsets = np.concatenate(seen)
            owner = np.concatenate(seen_in)
            offsets = np.sort(offsets[block[owner] < trusted[lane_of[owner]]])
        else:
            offsets = np.empty(0, np.int64)
        bounds = np.searchsorted(offsets, np.append(base, base[-1] + sizes[-1])).tolist()
        for lane, i in enumerate(lanes):
            known = offsets[bounds[lane]:bounds[lane + 1]] - base[lane]
            if trusted[lane] == counts[lane]:
                scans[i] = RecordScan(known, len(blobs[i]), "")
            else:
                resume = int(start[first[lane] + trusted[lane]] - base[lane])
                scans[i] = _scan_from(blobs[i], resume, known)
    return [scan if scan is not None else scan_records(blob) for scan, blob in zip(scans, blobs)]


def decode_columns(data: bytes, scan: Optional[RecordScan] = None) -> TraceColumns:
    """Parse a trace file into per-kind arrays, without event objects.

    The strict decoders' columnar sibling: same header and grammar checks,
    same :class:`~repro.errors.EncodingError` texts, then
    :func:`decode_batch` over this one blob.  *scan* is the blob's walk
    when the caller has already made it.
    """
    rank = header_rank(data)
    if scan is None:
        scan = scan_records(data)
    if scan.error:
        raise EncodingError(scan.error)
    return TraceColumns(rank, *decode_batch([data], [scan.offsets]))


def decode_batch(
    blobs: Sequence[bytes], offsets: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """The records of several blobs as one set of columns, blob by blob.

    ``offsets[i]`` is blob *i*'s record offsets from a clean walk; the
    header and grammar checks of :func:`decode_columns` are the caller's.
    Returns what :class:`TraceColumns` holds past the rank — kinds, stamps,
    per-kind rows — over the concatenated records.  Each kind's records are
    gathered in one indexing operation through a byte-window view of the
    blobs and reinterpreted as structured rows, so the cost per event is a
    few array elements, not a Python object.
    """
    sizes = np.array([len(blob) for blob in blobs], np.int64)
    where = np.concatenate([np.empty(0, np.int64), *offsets])
    where += np.repeat(np.cumsum(sizes) - sizes, [len(rows) for rows in offsets])
    raw = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    kinds = raw[where]

    def gather(at: np.ndarray, dtype: np.dtype) -> np.ndarray:
        if not len(at):  # also: a blob too short for one window
            return np.empty(0, dtype)
        return sliding_window_view(raw, dtype.itemsize)[at].view(dtype).ravel()

    # Every record carries its stamp right after the kind tag.
    times = gather(where + 1, np.dtype("<f8"))
    records = {
        kind: gather(where[kinds == kind], dtype) for kind, dtype in _RECORD_DTYPES.items()
    }
    return kinds, times, records


#: Target checksum-block size.  Small enough that a flipped byte condemns
#: only a sliver of a large trace, large enough that the manifest stays a
#: few entries per kilobyte of trace.
CHECKSUM_BLOCK_BYTES = 4096


def block_table(
    data: bytes, block_bytes: int = CHECKSUM_BLOCK_BYTES
) -> List[Tuple[int, int, int]]:
    """Record-aligned checksum blocks of a trace file: ``(offset, length, crc32)``.

    Blocks are cut at record ends of the scan (like
    :func:`record_boundary`), never mid-record, so a failed checksum
    condemns whole records and the block boundary doubles as a salvage
    boundary.  The first block starts at offset 0 and includes the header;
    each block closes at the first record boundary at or past
    ``block_bytes``.  Bytes that do not parse as records (a damaged or
    foreign tail) are folded into the final block — every byte of the file
    is covered by exactly one block.
    """
    size = len(data)
    if size == 0:
        return []
    if block_bytes <= 0:
        raise ValueError(f"block_bytes must be positive, got {block_bytes}")
    scan = scan_records(data)
    # A block may close wherever a complete record ends.
    ends = np.append(scan.offsets[1:], scan.end) if len(scan.offsets) else scan.offsets
    table: List[Tuple[int, int, int]] = []
    start = 0
    for _ in range(size // block_bytes):  # no more blocks than this can fill up
        index = int(np.searchsorted(ends, start + block_bytes))
        if index == len(ends):
            break
        stop = int(ends[index])
        table.append((start, stop - start, zlib.crc32(data[start:stop])))
        start = stop
    if start < size:
        table.append((start, size - start, zlib.crc32(data[start:size])))
    return table


def record_boundary(data: bytes, target_offset: int) -> int:
    """Offset of the first record starting at or after *target_offset*.

    Steps through the record grammar from the header without decoding
    payloads, so callers (fault injection, salvage diagnostics) can damage
    or cut a trace at a record boundary.  Stops early at an unknown kind
    byte; the returned offset never exceeds ``len(data)``.
    """
    size = len(data)
    scan = scan_records(data)
    index = int(np.searchsorted(scan.offsets, target_offset))
    if index < len(scan.offsets):
        return int(scan.offsets[index])
    end = scan.end
    if end < min(size, target_offset) and data[end] in _DECODERS:
        # The defect before the target is a truncated record: stepped over.
        # (An unknown kind stops the walk where it stands.)
        return size
    return end


@dataclass
class SalvagedTrace:
    """Best-effort decode of a possibly truncated or corrupt trace file.

    ``events`` holds every record that decoded cleanly before the first
    defect; ``complete`` is True iff the whole byte stream decoded.  The
    strict decoders raise on the defects this type records — salvage never
    raises, it stops.
    """

    rank: Optional[int]
    events: List[Event] = field(default_factory=list)
    complete: bool = True
    error: str = ""
    bytes_decoded: int = 0
    bytes_total: int = 0
    #: Records decoded (or, for a count-only scan, counted without being
    #: materialized).  Equals ``len(events)`` whenever events were collected.
    event_count: int = 0
    #: ENTER records left unmatched by an EXIT at the end of the decoded
    #: prefix.  Negative when stray EXITs outnumber ENTERs (corruption that
    #: happened to decode as valid records).
    open_regions: int = 0

    @property
    def completeness(self) -> float:
        """Fraction of the file's bytes that decoded (1.0 for a clean file)."""
        if self.bytes_total <= 0:
            return 1.0 if self.complete else 0.0
        return self.bytes_decoded / self.bytes_total

    @property
    def balanced(self) -> bool:
        """True iff every decoded ENTER has its EXIT.

        A truncation that lands exactly on a record boundary yields a blob
        that decodes cleanly (``complete`` is True) — the only remaining
        evidence of damage is regions left open at the end of the event
        stream.  Analyzability requires ``complete and balanced``.
        """
        return self.open_regions == 0


def salvage_events(
    data: bytes, count_only: bool = False, scan: Optional[RecordScan] = None
) -> SalvagedTrace:
    """Decode the longest clean prefix of *data*, never raising.

    Unlike :func:`decode_events`, a bad header, an unknown kind byte, or a
    truncated final record end the decode instead of raising
    :class:`~repro.errors.EncodingError`; everything before the defect is
    returned together with a description of it.  Degraded-mode replay is
    built on this.

    Every field but ``events`` comes from the scan — *scan* itself, when the
    caller has already walked *data*.  ``count_only=True`` stops there —
    records are counted (``event_count``), not materialized, so a long
    damaged trace costs one offset per record instead of one object.
    Degraded admission uses this over the local phase's one walk.
    """
    try:
        rank = header_rank(data)
    except EncodingError as exc:
        return SalvagedTrace(rank=None, complete=False, error=str(exc), bytes_total=len(data))
    if scan is None:
        scan = scan_records(data)
    kinds = np.bincount(np.frombuffer(data, dtype=np.uint8)[scan.offsets], minlength=3)
    return SalvagedTrace(
        rank,
        [] if count_only else decode_events(data[: scan.end])[1],
        complete=not scan.error,
        error=scan.error,
        bytes_decoded=scan.end,
        bytes_total=len(data),
        event_count=len(scan.offsets),
        open_regions=int(kinds[EventKind.ENTER]) - int(kinds[EventKind.EXIT]),
    )
