"""Per-process timelines: local trace events → synchronized op tables.

This is the local phase of the replay: each analysis process walks its own
rank's events once, converting node-local stamps to master time with the
selected synchronization scheme, reconstructing call paths, accumulating
per-call-path exclusive time, and collecting every completed MPI call as a
row of an :class:`OpTable` (its SEND/RECV/COLLEXIT records as rows of the
table's record columns) and every fork-join region as a row of an
:class:`OmpTable`.  Nothing here requires data from other ranks.

Two implementations produce the same :class:`ProcessTimeline`.
:func:`build_timeline`, here, is the sequential definition: a plain loop
over event objects — the buffered reference analyzer's local phase, the
oracle the property tests compare against, and the source of every
structural error message.  The streaming replay and the shard workers run
:func:`repro.analysis.optable.build_tables` instead: array passes over
the trace blobs.  Both write the same columns, of the same dtypes; the
tables hold those columns and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError
from repro.ids import Location
from repro.trace.encoding import _RECORD_DTYPES
from repro.trace.events import Event, EventKind
from repro.trace.regions import RegionRegistry, is_mpi_region

#: One kind of record in a table: (each op's first row, ``len(ops) + 1``
#: long; the record columns, rows grouped by owning op in trace order).
Records = Tuple[np.ndarray, Tuple[np.ndarray, ...]]


class _Columns:
    """Equality column by column: every field equal, arrays by
    ``np.array_equal`` (so a NaN equals nothing)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None  # type: ignore[assignment]


def _equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass(eq=False, slots=True)
class OpTable(_Columns):
    """One rank's completed MPI operations, in completion (EXIT) order.

    The record columns are, per kind: SEND ``(time, dest, tag, comm,
    size)``, RECV ``(time, source, tag, comm, size)`` and COLLEXIT ``(time,
    region, comm, root, sent, recvd)`` — synchronized stamps, global ranks.
    An op may hold several COLLEXIT records; its last one counts.
    """

    rank: int
    #: region id → name, for the MPI regions that occur.
    names: Dict[int, str]
    region: np.ndarray
    cpid: np.ndarray
    enter: np.ndarray
    exit: np.ndarray
    sends: Records
    recvs: Records
    colls: Records

    def __len__(self) -> int:
        return len(self.region)

    def remap(self, lookup: np.ndarray) -> None:
        """Renumber call paths: ``lookup[old cpid]`` is the new one."""
        self.cpid = np.take(lookup, self.cpid)


@dataclass(eq=False, slots=True)
class OmpTable(_Columns):
    """One rank's fork-join region records, in trace order."""

    #: cpid, enter, exit, nthreads, busy_sum, busy_max — one array each.
    columns: Tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    def remap(self, lookup: np.ndarray) -> None:
        self.columns = (np.take(lookup, self.columns[0]),) + self.columns[1:]


@dataclass
class ProcessTimeline:
    """Everything the replay needs about one rank, locally derived."""

    rank: int
    location: Location
    first_time: float
    last_time: float
    exclusive_time: Dict[int, float] = field(default_factory=dict)
    #: Number of times each call path was entered.
    visits: Dict[int, int] = field(default_factory=dict)
    #: Completed MPI operations and fork-join regions; None once a
    #: ``bounded`` analysis has dropped them.
    mpi_ops: Optional[OpTable] = None
    omp_regions: Optional[OmpTable] = None
    event_count: int = 0

    @property
    def machine(self) -> int:
        return self.location.machine

    @property
    def total_time(self) -> float:
        return max(0.0, self.last_time - self.first_time)


def build_timeline(
    rank: int,
    location: Location,
    events: Iterable[Event],
    converter: LinearConverter,
    callpaths: CallPathRegistry,
    regions: RegionRegistry,
) -> ProcessTimeline:
    """Walk one rank's events and produce its synchronized timeline.

    *events* may be any iterable — in particular the streaming decoder of
    :meth:`~repro.trace.archive.ArchiveReader.stream_trace`, so a trace is
    consumed record by record without a full in-memory event list.
    """
    visits: Dict[int, int] = {}
    exclusive_time: Dict[int, float] = {}
    slope = converter.slope
    intercept = converter.intercept
    intern = callpaths.intern
    # Per-open-frame state: [cpid, region, enter_sync, child_time, records],
    # *records* None outside MPI regions, else the op's (kind, row) pairs
    # until its EXIT moves them to the rank's rows of that kind.
    frame_stack: List[List] = []
    #: region id → region name when it is an MPI region, else None.
    mpi_name: Dict[int, Optional[str]] = {}
    ops: List[Tuple] = []
    rows_of_kind: Tuple[List[Tuple], ...] = ([], [], [])
    owners: Tuple[List[int], ...] = ([], [], [])  # each row's op
    omp_rows: List[Tuple] = []
    first: Optional[float] = None
    count = 0
    t = 0.0
    for event in events:
        t = event.time * slope + intercept
        if first is None:
            first = t
        count += 1
        kind = event.kind
        if kind == _KIND_ENTER:
            region = event.region
            cpid = intern(frame_stack[-1][0] if frame_stack else ROOT_PATH, region)
            visits[cpid] = visits.get(cpid, 0) + 1
            name = mpi_name.get(region, _UNRESOLVED)
            if name is _UNRESOLVED:
                resolved = regions.name_of(region)
                name = resolved if is_mpi_region(resolved) else None
                mpi_name[region] = name
            frame_stack.append([cpid, region, t, 0.0, None if name is None else []])
        elif kind == _KIND_EXIT:
            if not frame_stack:
                raise AnalysisError(f"rank {rank}: EXIT without open frame")
            cpid, region, enter_t, child_time, records = frame_stack.pop()
            if region != event.region:
                raise AnalysisError(
                    f"rank {rank}: EXIT region {event.region} does not match "
                    f"open region {region}"
                )
            duration = t - enter_t
            if duration < 0.0:
                duration = 0.0
            exclusive = duration - child_time
            exclusive_time[cpid] = exclusive_time.get(cpid, 0.0) + (
                exclusive if exclusive > 0.0 else 0.0
            )
            if frame_stack:
                frame_stack[-1][3] += duration
            if records is not None:
                for which, row in records:
                    rows_of_kind[which].append(row)
                    owners[which].append(len(ops))
                ops.append((region, cpid, enter_t, t))
        elif kind == _KIND_SEND:
            _open_op_records(frame_stack, rank, "SEND").append(
                (0, (t, event.dest, event.tag, event.comm, event.size))
            )
        elif kind == _KIND_RECV:
            _open_op_records(frame_stack, rank, "RECV").append(
                (1, (t, event.source, event.tag, event.comm, event.size))
            )
        elif kind == _KIND_COLLEXIT:
            _open_op_records(frame_stack, rank, "COLLEXIT").append(
                (2, (t, event.region, event.comm, event.root, event.sent, event.recvd))
            )
        elif kind == _KIND_OMP:
            if not frame_stack or frame_stack[-1][1] != event.region:
                raise AnalysisError(
                    f"rank {rank}: OMPREGION record outside its region frame"
                )
            cpid, _, enter_t, _, _ = frame_stack[-1]
            omp_rows.append(
                (cpid, enter_t, t, event.nthreads, event.busy_sum, event.busy_max)
            )
        else:  # pragma: no cover - closed event union
            raise AnalysisError(f"rank {rank}: unknown event {event!r}")
    if frame_stack:
        raise AnalysisError(
            f"rank {rank}: {len(frame_stack)} regions still open at trace end"
        )
    region, cpid, enter, exit = _columns(ops, _OP_TYPES)
    return ProcessTimeline(
        rank=rank,
        location=location,
        first_time=0.0 if first is None else first,
        last_time=0.0 if first is None else t,
        exclusive_time=exclusive_time,
        visits=visits,
        mpi_ops=OpTable(
            rank,
            {r: name for r, name in sorted(mpi_name.items()) if name is not None},
            region, cpid, enter, exit,
            *[
                (np.searchsorted(np.array(owner, np.int64), np.arange(len(ops) + 1)),
                 _columns(rows, types))
                for rows, owner, types in zip(rows_of_kind, owners, _RECORD_TYPES)
            ],
        ),
        omp_regions=OmpTable(_columns(omp_rows, _OMP_TYPES)),
        event_count=count,
    )


#: Cache-miss sentinel for the per-region MPI-name cache (None is a valid hit).
_UNRESOLVED = object()

#: Integer event kinds, hoisted so the dispatch compares int to int.
_KIND_ENTER = int(EventKind.ENTER)
_KIND_EXIT = int(EventKind.EXIT)
_KIND_SEND = int(EventKind.SEND)
_KIND_RECV = int(EventKind.RECV)
_KIND_COLLEXIT = int(EventKind.COLLEXIT)
_KIND_OMP = int(EventKind.OMPREGION)


def _field_types(kind: int, skip: int) -> List[np.dtype]:
    """The trace dtypes of a record kind's fields, after the first *skip*."""
    record = _RECORD_DTYPES[kind]
    return [record[name] for name in record.names[1 + skip:]]


#: The dtypes the array passes give each column: synchronized stamps and
#: ids as float64 / int64, record fields as the trace stores them.
_OP_TYPES = [np.int64, np.int64, np.float64, np.float64]
_RECORD_TYPES = [_field_types(kind, 0) for kind in (_KIND_SEND, _KIND_RECV, _KIND_COLLEXIT)]
_OMP_TYPES = [np.int64, np.float64, np.float64, *_field_types(_KIND_OMP, 2)]


def _columns(rows: List[Tuple], types: Sequence) -> Tuple[np.ndarray, ...]:
    """*rows* as one array per field."""
    return tuple(
        np.array(column, dtype) for column, dtype in zip(list(zip(*rows)) or [()] * len(types), types)
    )


def _open_op_records(frame_stack: List[List], rank: int, what: str) -> List[Tuple]:
    if not frame_stack or frame_stack[-1][4] is None:
        raise AnalysisError(f"rank {rank}: {what} record outside an MPI region")
    return frame_stack[-1][4]


def total_time_of(timelines: Dict[int, ProcessTimeline]) -> float:
    """Aggregate wall time over all ranks (the Figure 6 percentage base)."""
    return sum(tl.total_time for tl in timelines.values())


def remap_timeline(timeline: ProcessTimeline, remap: List[int]) -> None:
    """Rewrite a table-backed timeline's call-path ids: ``remap[old]`` is new.

    How a shard worker's tables get their global (rank-major, first-
    encounter) ids before the global phase reads them.  Dict insertion order is
    preserved, so downstream iteration order is unchanged; the op and
    fork-join tables take one ``np.take`` each.
    """
    timeline.exclusive_time = {
        remap[cpid]: value for cpid, value in timeline.exclusive_time.items()
    }
    timeline.visits = {remap[cpid]: n for cpid, n in timeline.visits.items()}
    lookup = np.array(remap, np.int64)
    timeline.mpi_ops.remap(lookup)
    timeline.omp_regions.remap(lookup)


def record_rows(records: Records, make: Callable = tuple) -> Tuple[List[int], list]:
    """One record kind of a table as Python scalars: each op's first row
    (``len(ops) + 1`` bounds) and the rows, each made by *make*."""
    start, columns = records
    return start.tolist(), list(map(make, zip(*[column.tolist() for column in columns])))


def require_tables(timelines: Dict[int, ProcessTimeline], reader: str, error: type) -> None:
    """Raise *error* when a ``bounded`` analysis has dropped the op tables
    that *reader* reads, instead of reading dropped as empty."""
    if any(timeline.mpi_ops is None for timeline in timelines.values()):
        raise error(
            f"{reader} reads the per-op tables, which a bounded=True analysis drops; "
            "analyze without bounded"
        )
