"""Per-process timelines: local trace events → synchronized MPI op instances.

This is the local phase of the replay: each analysis process walks its own
rank's events once, converting node-local stamps to master time with the
selected synchronization scheme, reconstructing call paths, accumulating
per-call-path exclusive time, and collecting one :class:`MPIOpInstance` per
completed MPI call (with its attached SEND/RECV/COLLEXIT records).  Nothing
here requires data from other ranks.

Two implementations produce the same :class:`ProcessTimeline`.
:func:`build_timeline`, here, is the sequential definition: a plain loop
over event objects — the buffered reference analyzer's local phase, the
oracle the property tests compare against, and the source of every
structural error message.  The streaming replay and the shard workers run
:func:`repro.analysis.optable.build_rank_tables` instead: array passes over
the trace blob, whose ``mpi_ops`` / ``omp_regions`` are lazy column-backed
sequences that make the record types below on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError
from repro.ids import Location, NodeId, node_of
from repro.trace.events import Event, EventKind
from repro.trace.regions import RegionRegistry, is_mpi_region


class SendRecord(NamedTuple):
    """A SEND event with synchronized stamp, in trace order.

    The per-event records are ``NamedTuple``\\ s for the same reason the raw
    trace events are: ``build_timeline`` constructs one per communication
    record and tuple construction is several times cheaper than a frozen
    dataclass ``__init__``.
    """

    time: float
    dest: int  # global rank
    tag: int
    comm: int
    size: int


class RecvRecord(NamedTuple):
    """A RECV event with synchronized stamp, in trace order."""

    time: float
    source: int  # global rank
    tag: int
    comm: int
    size: int


class CollRecord(NamedTuple):
    """A COLLEXIT event with synchronized stamp."""

    time: float
    region: int
    comm: int
    root: int  # global rank
    sent: int
    recvd: int


class OmpRegionRecord(NamedTuple):
    """One fork-join region with synchronized times and team summary."""

    cpid: int
    enter: float
    exit: float
    nthreads: int
    busy_sum: float
    busy_max: float

    @property
    def idle_thread_seconds(self) -> float:
        """Thread-seconds idled waiting for the slowest team member."""
        return max(0.0, self.nthreads * self.busy_max - self.busy_sum)


@dataclass(slots=True)
class MPIOpInstance:
    """One completed MPI call of one rank, with synchronized times.

    ``sends``/``recvs`` are immutable tuples: most ops carry no record and
    share the one empty ``()`` instead of allocating a list pair each.
    """

    rank: int
    region: int
    op_name: str
    cpid: int
    enter: float
    exit: float
    sends: Tuple[SendRecord, ...] = ()
    recvs: Tuple[RecvRecord, ...] = ()
    coll: Optional[CollRecord] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.exit - self.enter)


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
    #: Completed MPI operations in completion order, and fork-join region
    #: records in trace order: lists from :func:`build_timeline`, lazy
    #: column-backed sequences (objects made on read) from the op tables.
    mpi_ops: Sequence[MPIOpInstance] = field(default_factory=list)
    omp_regions: Sequence[OmpRegionRecord] = field(default_factory=list)
    event_count: int = 0

    @property
    def node(self) -> NodeId:
        return node_of(self.location)

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
    timeline = ProcessTimeline(
        rank=rank, location=location, first_time=0.0, last_time=0.0
    )
    visits = timeline.visits
    exclusive_time = timeline.exclusive_time
    mpi_ops = timeline.mpi_ops
    slope = converter.slope
    intercept = converter.intercept
    intern = callpaths.intern
    # Per-open-frame state: [cpid, region, enter_sync, child_time, instance]
    frame_stack: List[List] = []
    #: region id → region name when it is an MPI region, else None.
    mpi_name: Dict[int, Optional[str]] = {}
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
            instance = None
            if name is not None:
                instance = MPIOpInstance(rank, region, name, cpid, t, t)
            frame_stack.append([cpid, region, t, 0.0, instance])
        elif kind == _KIND_EXIT:
            if not frame_stack:
                raise AnalysisError(f"rank {rank}: EXIT without open frame")
            cpid, region, enter_t, child_time, instance = frame_stack.pop()
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
            if instance is not None:
                instance.exit = t
                mpi_ops.append(instance)
        elif kind == _KIND_SEND:
            instance = _open_mpi_instance(frame_stack, rank, "SEND")
            instance.sends += (
                SendRecord(t, event.dest, event.tag, event.comm, event.size),
            )
        elif kind == _KIND_RECV:
            instance = _open_mpi_instance(frame_stack, rank, "RECV")
            instance.recvs += (
                RecvRecord(t, event.source, event.tag, event.comm, event.size),
            )
        elif kind == _KIND_COLLEXIT:
            instance = _open_mpi_instance(frame_stack, rank, "COLLEXIT")
            instance.coll = CollRecord(
                t, event.region, event.comm, event.root, event.sent, event.recvd
            )
        elif kind == _KIND_OMP:
            if not frame_stack or frame_stack[-1][1] != event.region:
                raise AnalysisError(
                    f"rank {rank}: OMPREGION record outside its region frame"
                )
            timeline.omp_regions.append(
                OmpRegionRecord(
                    cpid=frame_stack[-1][0],
                    enter=frame_stack[-1][2],
                    exit=t,
                    nthreads=event.nthreads,
                    busy_sum=event.busy_sum,
                    busy_max=event.busy_max,
                )
            )
        else:  # pragma: no cover - closed event union
            raise AnalysisError(f"rank {rank}: unknown event {event!r}")
    if frame_stack:
        raise AnalysisError(
            f"rank {rank}: {len(frame_stack)} regions still open at trace end"
        )
    timeline.event_count = count
    if first is not None:
        timeline.first_time = first
        timeline.last_time = t
    return timeline


#: Cache-miss sentinel for the per-region MPI-name cache (None is a valid hit).
_UNRESOLVED = object()

#: Integer event kinds, hoisted so the dispatch compares int to int.
_KIND_ENTER = int(EventKind.ENTER)
_KIND_EXIT = int(EventKind.EXIT)
_KIND_SEND = int(EventKind.SEND)
_KIND_RECV = int(EventKind.RECV)
_KIND_COLLEXIT = int(EventKind.COLLEXIT)
_KIND_OMP = int(EventKind.OMPREGION)


def _open_mpi_instance(frame_stack: List[List], rank: int, what: str) -> MPIOpInstance:
    if not frame_stack or frame_stack[-1][4] is None:
        raise AnalysisError(
            f"rank {rank}: {what} record outside an MPI region"
        )
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
