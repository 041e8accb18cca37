"""Per-process timelines: local trace events → synchronized MPI op instances.

This is the local phase of the replay: each analysis process walks its own
rank's events once, converting node-local stamps to master time with the
selected synchronization scheme, reconstructing call paths, accumulating
per-call-path exclusive time, and collecting one :class:`MPIOpInstance` per
completed MPI call (with its attached SEND/RECV/COLLEXIT records).  Nothing
here requires data from other ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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
    mpi_ops: List[MPIOpInstance] = field(default_factory=list)
    omp_regions: List[OmpRegionRecord] = field(default_factory=list)
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


class TimelineBuilder:
    """Incremental form of :func:`build_timeline`: feed runs of events, then finish.

    The streaming replay drives one builder per rank from its slice pump,
    so a rank's timeline state advances a slice at a time while other
    ranks' slices interleave.  Two hooks make bounded-memory analysis
    possible:

    * ``on_op`` is called with each :class:`MPIOpInstance` the moment its
      region EXITs (its attached records are final at that point), and
      ``on_omp`` with each :class:`OmpRegionRecord` as it is recorded;
    * ``retain=False`` skips appending those instances to the timeline's
      ``mpi_ops``/``omp_regions`` lists — the hooks are then the only
      consumers, and memory stays bounded by the *open* frames instead of
      the whole trace.

    The one-shot :func:`build_timeline` is a thin wrapper feeding the whole
    trace as one run, so both paths produce identical timelines.
    """

    __slots__ = (
        "rank",
        "timeline",
        "retain",
        "on_op",
        "on_omp",
        "op_count",
        "_frame_stack",
        "_first",
        "_last",
        "_count",
        "_slope",
        "_intercept",
        "_intern",
        "_regions",
        "_mpi_name",
        "_finished",
    )

    def __init__(
        self,
        rank: int,
        location: Location,
        converter: LinearConverter,
        callpaths: CallPathRegistry,
        regions: RegionRegistry,
        retain: bool = True,
        on_op=None,
        on_omp=None,
    ) -> None:
        self.rank = rank
        self.timeline = ProcessTimeline(
            rank=rank, location=location, first_time=0.0, last_time=0.0
        )
        self.retain = retain
        self.on_op = on_op
        self.on_omp = on_omp
        #: Completed MPI ops so far — the op index of the *next* completed
        #: op, identical to its position in a retained ``mpi_ops`` list.
        self.op_count = 0
        # Per-open-frame state: [cpid, region, enter_sync, child_time, instance]
        self._frame_stack: List[List] = []
        self._first: Optional[float] = None
        self._last = 0.0
        self._count = 0
        self._slope = converter.slope
        self._intercept = converter.intercept
        self._intern = callpaths.intern
        self._regions = regions
        #: region id → region name when it is an MPI region, else None.
        self._mpi_name: Dict[int, Optional[str]] = {}
        self._finished = False

    def feed_many(self, events: Iterable[Event]) -> None:
        """Process a run of this rank's events, in trace order.

        The replay's innermost loop and its only dispatch: the streaming
        pump hands it one slice at a time, the one-shot callers a whole
        trace.
        """
        rank = self.rank
        frame_stack = self._frame_stack
        timeline = self.timeline
        visits = timeline.visits
        exclusive_time = timeline.exclusive_time
        slope = self._slope
        intercept = self._intercept
        intern = self._intern
        mpi_name = self._mpi_name
        retain = self.retain
        on_op = self.on_op
        on_omp = self.on_omp
        first = self._first
        count = 0
        t = self._last
        for event in events:
            t = event.time * slope + intercept
            if first is None:
                self._first = first = t
            count += 1
            kind = event.kind
            if kind == _KIND_ENTER:
                region = event.region
                cpid = intern(
                    frame_stack[-1][0] if frame_stack else ROOT_PATH, region
                )
                visits[cpid] = visits.get(cpid, 0) + 1
                name = mpi_name.get(region, _UNRESOLVED)
                if name is _UNRESOLVED:
                    resolved = self._regions.name_of(region)
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
                    if retain:
                        timeline.mpi_ops.append(instance)
                    self.op_count += 1
                    if on_op is not None:
                        on_op(instance)
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
                cpid, _region, enter_t, _child, _inst = frame_stack[-1]
                record = OmpRegionRecord(
                    cpid=cpid,
                    enter=enter_t,
                    exit=t,
                    nthreads=event.nthreads,
                    busy_sum=event.busy_sum,
                    busy_max=event.busy_max,
                )
                if retain:
                    timeline.omp_regions.append(record)
                if on_omp is not None:
                    on_omp(record)
            else:  # pragma: no cover - closed event union
                raise AnalysisError(f"rank {rank}: unknown event {event!r}")
        self._last = t
        self._count += count

    def finish(self, *, force: bool = False) -> ProcessTimeline:
        """Validate trace closure and return the completed timeline.

        ``force=True`` tolerates open region frames — the deadline-expired
        pump stops mid-trace, so an interrupted rank legitimately ends with
        its stack non-empty.  Open frames are discarded (their enclosing
        time never settled), not synthesized.
        """
        if self._frame_stack:
            if not force:
                raise AnalysisError(
                    f"rank {self.rank}: {len(self._frame_stack)} regions still "
                    "open at trace end"
                )
            self._frame_stack.clear()
        timeline = self.timeline
        timeline.event_count = self._count
        timeline.first_time = self._first if self._first is not None else 0.0
        timeline.last_time = self._last if self._first is not None else 0.0
        self._finished = True
        return timeline


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

    One-shot wrapper over :class:`TimelineBuilder` (the incremental form
    the streaming replay drives slice by slice).
    """
    builder = TimelineBuilder(rank, location, converter, callpaths, regions)
    builder.feed_many(events)
    return builder.finish()


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


def remap_timeline(timeline: ProcessTimeline, remap: Dict[int, int]) -> None:
    """Rewrite a timeline's local call-path ids in place.

    Shared by the two renumbering finalizers: the parallel merge (shard-
    local → global ids) and the streaming replay (rank-local → global ids).
    Dict insertion order is preserved, so downstream iteration order is
    unchanged.
    """
    timeline.exclusive_time = {
        remap[cpid]: value for cpid, value in timeline.exclusive_time.items()
    }
    timeline.visits = {remap[cpid]: n for cpid, n in timeline.visits.items()}
    for op in timeline.mpi_ops:
        op.cpid = remap[op.cpid]
    if timeline.omp_regions:
        timeline.omp_regions = [
            omp._replace(cpid=remap[omp.cpid]) for omp in timeline.omp_regions
        ]
