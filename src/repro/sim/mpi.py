"""The simulated MPI world.

Applications are generator functions ``def app(ctx): ... yield ...`` that
yield *request* objects built by their :class:`Context`:

* ``yield ctx.compute(work)`` — busy CPU time (scaled by the CPU's speed
  factor, so the same work takes twice as long on a half-speed metahost);
* ``msg = yield ctx.comm.recv(source, tag)`` — blocking receive;
* ``yield ctx.comm.send(dest, size, tag)`` — blocking standard send (eager
  below the threshold, rendezvous above);
* ``h = yield ctx.comm.isend(...)`` / ``yield ctx.comm.wait(h)`` — the
  non-blocking forms;
* ``yield ctx.comm.barrier()`` / ``allreduce`` / ``bcast`` / … — collectives.

Naming follows mpi4py's lowercase conventions.  The world owns the event
engine, the message-matching queues (MPI semantics: per-communicator, FIFO,
``ANY_SOURCE``/``ANY_TAG`` wildcards, non-overtaking delivery), and the
instrumentation hooks that turn simulated MPI activity into trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import inf
from numbers import Real
from operator import index
from sys import intern
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeadlockError, MPIUsageError, ReproError, SimulationError
from repro.ids import ANY_SOURCE, ANY_TAG, Location, node_of
from repro.sim import collectives as coll
from repro.sim.engine import Engine
from repro.sim.process import AppGenerator, SimProcess
from repro.sim.transfer import ChannelClock, SimParams
from repro.topology.metacomputer import Metacomputer, Placement, ProcessSlot
from repro.topology.network import ExponentialJitterStream, LatencyModel

# --------------------------------------------------------------------------
# Requests yielded by application generators
# --------------------------------------------------------------------------
# ``NamedTuple``s, for the reason ``trace/events.py`` gives for its records:
# one is built per simulated call, and a frozen dataclass pays one
# ``object.__setattr__`` per field.


class ComputeReq(NamedTuple):
    """Busy CPU time in *wall* seconds (already speed-scaled)."""

    seconds: float


class SendReq(NamedTuple):
    comm_id: int
    dest: int  # comm rank
    size: int
    tag: int
    data: Any = None
    #: Synchronous mode (MPI_Ssend): always rendezvous, completes only
    #: after the matching receive started.
    synchronous: bool = False


class RecvReq(NamedTuple):
    comm_id: int
    source: int  # comm rank or ANY_SOURCE
    tag: int


class IsendReq(NamedTuple):
    comm_id: int
    dest: int
    size: int
    tag: int
    data: Any = None


class IrecvReq(NamedTuple):
    comm_id: int
    source: int
    tag: int


class WaitReq(NamedTuple):
    handle: "RequestHandle"


class WaitallReq(NamedTuple):
    handles: Tuple["RequestHandle", ...]


class SendrecvReq(NamedTuple):
    comm_id: int
    dest: int
    send_size: int
    send_tag: int
    source: int
    recv_tag: int
    data: Any = None


class CollectiveReq(NamedTuple):
    comm_id: int
    op: str
    size: int
    root: int = 0  # comm rank
    data: Any = None


class OmpParallelReq(NamedTuple):
    """A fork-join parallel region: per-thread reference work amounts."""

    work_seconds: Tuple[float, ...]
    region: str


class SplitReq(NamedTuple):
    """MPI_Comm_split: collective creation of sub-communicators."""

    comm_id: int
    color: Optional[int]
    key: int


Request = Any  # union of the request tuples above


# --------------------------------------------------------------------------
# Messages and non-blocking handles
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Message:
    """A matched point-to-point message as seen by the receiver."""

    source: int  # comm rank within the receiving communicator
    dest: int  # comm rank
    tag: int
    comm_id: int
    size: int
    data: Any = None
    #: True time the sender entered the sending MPI call.
    send_enter_time: float = 0.0
    #: True time the SEND trace event was recorded.
    send_time: float = 0.0
    #: Global ranks (world), for system-level bookkeeping.
    source_global: int = 0
    dest_global: int = 0


class RequestHandle:
    """Handle returned by ``isend``/``irecv``; completed via ``wait``.

    ``completion_time`` is the whole completion state: ``None`` until the
    instant the operation completes is known — at injection for an eager
    send, at match time for everything else, both possibly long before that
    instant — and the instant itself from then on (``result`` is set with
    it).  The completion becomes observable when simulated time reaches
    ``completion_time``: a ``wait`` issued after it returns at once, a
    ``wait`` issued before it is woken by one engine event at exactly that
    instant.  A handle nobody waits on costs the engine nothing; it settles
    lazily, if and when a wait reads its time.  Ids count from 1 per
    :class:`World`, so a seed reproduces them.
    """

    __slots__ = ("id", "kind", "owner_rank", "completion_time", "result", "_waiter")

    def __init__(self, handle_id: int, kind: str, owner_rank: int) -> None:
        self.id = handle_id
        self.kind = kind  # "send" | "recv"
        self.owner_rank = owner_rank
        self.completion_time: Optional[float] = None
        self.result: Optional[Message] = None
        #: ``(process, waitall slot or None)`` blocked on this handle.
        self._waiter: Optional[Tuple[SimProcess, Optional[int]]] = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        due = self.completion_time
        state = "pending" if due is None else f"due t={due}"
        return f"RequestHandle(#{self.id} {self.kind} rank={self.owner_rank} {state})"


# --------------------------------------------------------------------------
# Communicators
# --------------------------------------------------------------------------


class CommunicatorData:
    """Shared (process-independent) communicator state."""

    def __init__(self, comm_id: int, name: str, global_ranks: Sequence[int]) -> None:
        if len(set(global_ranks)) != len(global_ranks):
            raise MPIUsageError(f"duplicate ranks in communicator {name!r}")
        if not global_ranks:
            raise MPIUsageError(f"communicator {name!r} has no members")
        self.id = comm_id
        self.name = name
        self.global_ranks: Tuple[int, ...] = tuple(global_ranks)
        self.size = len(self.global_ranks)
        self._comm_rank_of: Dict[int, int] = {
            g: i for i, g in enumerate(self.global_ranks)
        }

    def comm_rank(self, global_rank: int) -> int:
        try:
            return self._comm_rank_of[global_rank]
        except KeyError:
            raise MPIUsageError(
                f"rank {global_rank} is not a member of communicator {self.name!r}"
            ) from None

    def global_rank(self, comm_rank: int) -> int:
        if not 0 <= comm_rank < self.size:
            raise MPIUsageError(
                f"comm rank {comm_rank} out of range for {self.name!r} "
                f"(size {self.size})"
            )
        return self.global_ranks[comm_rank]

    def contains(self, global_rank: int) -> bool:
        return global_rank in self._comm_rank_of


#: Exclusive upper bounds of a message size and tag: the SEND and RECV trace
#: records store them as u64 and i32, and MPI tags are non-negative.
_SIZE_END = 2**64
_TAG_END = 2**31


def _checked(value: Any, what: str, end: Optional[int], wildcard: Optional[int] = None) -> int:
    """A builder's slow path: *value* as an ``int`` in ``[0, end)`` (any
    ``int`` if *end* is None) or equal to *wildcard*, else
    :class:`MPIUsageError` naming the argument *what*.  Numpy integers pass;
    floats and bools do not, even when integral."""
    try:
        number = None if isinstance(value, bool) else index(value)
    except TypeError:
        number = None
    if number is None:
        raise MPIUsageError(f"{what} must be an integer, got {value!r}")
    if end is not None and not (0 <= number < end or number == wildcard):
        bound = f"2**{end.bit_length() - 1}" if end >= 2**31 else end
        allowed = "" if wildcard is None else f" or {wildcard} (the wildcard)"
        raise MPIUsageError(f"{what} must be in [0, {bound}){allowed}, got {number}")
    return number


def _seconds(value: Any, what: str) -> float:
    """A duration's slow path: *value* as a finite ``float`` >= 0, else
    :class:`MPIUsageError` naming the argument *what*.  Bools do not pass."""
    try:
        if isinstance(value, Real) and not isinstance(value, bool) and 0 <= float(value) < inf:
            return float(value)
    except OverflowError:  # an integer no float can hold
        pass
    raise MPIUsageError(f"{what} must be a number of seconds >= 0 and finite, got {value!r}")


# Builders that differ only in what they build, each checking and building in
# one frame: a plain in-range ``int`` passes on ``type(x) is int`` and one
# chained comparison, the rest goes through :func:`_checked`.  ``ANY_SOURCE``
# and ``ANY_TAG`` are -1, so a receive's range starts at its wildcard.


def _sender(request: Callable[..., Any]) -> Callable[..., Any]:
    def build(self: Communicator, dest: int, size: int, tag: int = 0, data: Any = None):
        if type(dest) is not int or not 0 <= dest < self.size:
            dest = _checked(dest, "dest", self.size)
        if type(size) is not int or not 0 <= size < _SIZE_END:
            size = _checked(size, "size", _SIZE_END)
        if type(tag) is not int or not 0 <= tag < _TAG_END:
            tag = _checked(tag, "tag", _TAG_END)
        return request(self.id, dest, size, tag, data)

    return build


def _receiver(request: Callable[..., Any]) -> Callable[..., Any]:
    def build(self: Communicator, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        if type(source) is not int or not ANY_SOURCE <= source < self.size:
            source = _checked(source, "source", self.size, ANY_SOURCE)
        if type(tag) is not int or not ANY_TAG <= tag < _TAG_END:
            tag = _checked(tag, "tag", _TAG_END, ANY_TAG)
        return request(self.id, source, tag)

    return build


def _rooted(op: str) -> Callable[..., CollectiveReq]:
    def build(self: Communicator, size: int, root: int = 0, data: Any = None):
        if type(size) is not int or not 0 <= size < _SIZE_END:
            size = _checked(size, "size", _SIZE_END)
        if type(root) is not int or not 0 <= root < self.size:
            root = _checked(root, "root", self.size)
        return CollectiveReq(self.id, op, size, root, data)

    return build


def _unrooted(op: str) -> Callable[..., CollectiveReq]:
    def build(self: Communicator, size: int, data: Any = None):
        if type(size) is not int or not 0 <= size < _SIZE_END:
            size = _checked(size, "size", _SIZE_END)
        return CollectiveReq(self.id, op, size, 0, data)

    return build


class Communicator:
    """A communicator bound to one calling process (mpi4py-style surface)."""

    def __init__(self, data: CommunicatorData, my_global_rank: int) -> None:
        self.data = data
        self.my_global_rank = my_global_rank
        self.rank = data.comm_rank(my_global_rank)
        self.id = data.id
        self.size = data.size

    @property
    def name(self) -> str:
        return self.data.name

    # -- point-to-point request builders ------------------------------------

    send = _sender(SendReq)
    isend = _sender(IsendReq)
    recv = _receiver(RecvReq)
    irecv = _receiver(IrecvReq)

    def ssend(self, dest: int, size: int, tag: int = 0, data: Any = None) -> SendReq:
        """Synchronous send: rendezvous regardless of size (MPI_Ssend)."""
        return self.send(dest, size, tag, data)._replace(synchronous=True)

    @staticmethod
    def wait(handle: RequestHandle) -> WaitReq:
        return WaitReq(handle)

    @staticmethod
    def waitall(handles: Sequence[RequestHandle]) -> WaitallReq:
        return WaitallReq(tuple(handles))

    def sendrecv(
        self,
        dest: int,
        send_size: int,
        send_tag: int = 0,
        source: int = ANY_SOURCE,
        recv_tag: int = ANY_TAG,
        data: Any = None,
    ) -> SendrecvReq:
        if type(dest) is not int or not 0 <= dest < self.size:
            dest = _checked(dest, "dest", self.size)
        if type(send_size) is not int or not 0 <= send_size < _SIZE_END:
            send_size = _checked(send_size, "send_size", _SIZE_END)
        if type(send_tag) is not int or not 0 <= send_tag < _TAG_END:
            send_tag = _checked(send_tag, "send_tag", _TAG_END)
        if type(source) is not int or not ANY_SOURCE <= source < self.size:
            source = _checked(source, "source", self.size, ANY_SOURCE)
        if type(recv_tag) is not int or not ANY_TAG <= recv_tag < _TAG_END:
            recv_tag = _checked(recv_tag, "recv_tag", _TAG_END, ANY_TAG)
        return SendrecvReq(self.id, dest, send_size, send_tag, source, recv_tag, data)

    # -- collective request builders -----------------------------------------

    def barrier(self) -> CollectiveReq:
        return CollectiveReq(self.id, coll.BARRIER, 0)

    bcast = _rooted(coll.BCAST)
    reduce = _rooted(coll.REDUCE)
    gather = _rooted(coll.GATHER)
    scatter = _rooted(coll.SCATTER)
    allreduce = _unrooted(coll.ALLREDUCE)
    allgather = _unrooted(coll.ALLGATHER)
    alltoall = _unrooted(coll.ALLTOALL)
    scan = _unrooted(coll.SCAN)  # MPI_Scan: inclusive prefix over comm ranks

    def split(self, color: Optional[int], key: int = 0) -> SplitReq:
        """MPI_Comm_split: partition this communicator by *color*.

        Every member must call it; members sharing a color form a new
        communicator ordered by (key, old rank).  ``color=None``
        (MPI_UNDEFINED) yields no communicator for that rank — the result
        delivered to the caller is then ``None``.  A color is a C ``int``.
        """
        if color is not None and (type(color) is not int or not 0 <= color < _TAG_END):
            color = _checked(color, "color", _TAG_END)
        if type(key) is not int:
            key = _checked(key, "key", None)
        return SplitReq(self.id, color, key)


# --------------------------------------------------------------------------
# Context handed to application generators
# --------------------------------------------------------------------------


class Context:
    """Per-rank view of the simulated machine handed to the application."""

    def __init__(
        self,
        world: "World",
        slot: ProcessSlot,
        env: Dict[str, str],
        rng: np.random.Generator,
    ) -> None:
        self._world = world
        self.slot = slot
        self.rank = slot.rank
        self.size = world.placement.size
        self.comm = Communicator(world.comm_world, slot.rank)
        self._speed = slot.cpu.speed_factor
        #: Per-metahost environment, carrying the paper's two variables
        #: (``REPRO_METAHOST_ID`` and ``REPRO_METAHOST_NAME``).
        self.env = env
        self.rng = rng
        self._proc: Optional[SimProcess] = None  # set by World.launch

    # -- machine info ---------------------------------------------------------

    @property
    def metahost_id(self) -> int:
        return int(self.env["REPRO_METAHOST_ID"])

    @property
    def metahost_name(self) -> str:
        return self.env["REPRO_METAHOST_NAME"]

    @property
    def location(self) -> Location:
        return self.slot.location

    @property
    def now(self) -> float:
        """Current true simulation time (apps may use it for pacing)."""
        return self._world.engine.now

    # -- requests ---------------------------------------------------------------

    def compute(self, work_seconds: float) -> ComputeReq:
        """Busy time for *work_seconds* of reference work on this CPU."""
        if type(work_seconds) is not float or not 0.0 <= work_seconds < inf:
            work_seconds = _seconds(work_seconds, "work_seconds")
        return ComputeReq(work_seconds / self._speed)  # CpuSpec.work_seconds

    def sleep(self, wall_seconds: float) -> ComputeReq:
        """Busy time independent of CPU speed (I/O waits, fixed delays)."""
        if type(wall_seconds) is not float or not 0.0 <= wall_seconds < inf:
            wall_seconds = _seconds(wall_seconds, "wall_seconds")
        return ComputeReq(wall_seconds)

    def parallel(
        self, work_seconds: Sequence[float], region: str = "omp_parallel"
    ) -> OmpParallelReq:
        """Fork-join multithreaded region (hybrid MPI + threads).

        The team runs one thread per entry of *work_seconds* (reference
        seconds, each scaled by this CPU's speed); the region lasts as long
        as its slowest thread.  The trace records the team's busy-time
        summary, from which the analyzer derives the *Idle Threads*
        severity (paper Section 1: message passing "may be combined with
        multithreading used within the metahosts").
        """
        if not work_seconds:
            raise MPIUsageError("parallel region needs at least one thread")
        work = tuple(_seconds(w, f"work_seconds[{i}]") for i, w in enumerate(work_seconds))
        return OmpParallelReq(work, region)

    def get_comm(self, name: str) -> Optional[Communicator]:
        """Bound view of a named sub-communicator, or None if not a member."""
        data = self._world.communicator(name)
        if not data.contains(self.rank):
            return None
        return Communicator(data, self.rank)

    # -- instrumentation --------------------------------------------------------

    def enter(self, region: str) -> None:
        """Record entry into a user region (e.g. ``cgiteration``)."""
        self._world.record_enter(self._proc, region)

    def exit(self, region: str) -> None:
        """Record exit from a user region."""
        self._world.record_exit(self._proc, region)

    def region(self, name: str) -> "_RegionGuard":
        """``with ctx.region("foo"): yield ...`` convenience guard."""
        return _RegionGuard((self._world, self._proc, name))


class _RegionGuard(tuple):
    """``(world, process, region)``, built by ``tuple``'s own constructor (no
    ``__init__`` frame); entering and leaving record straight on the world."""

    __slots__ = ()

    def __enter__(self) -> "_RegionGuard":
        self[0].record_enter(self[1], self[2])
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self[0].record_exit(self[1], self[2])


# --------------------------------------------------------------------------
# Internal matching structures
# --------------------------------------------------------------------------


@dataclass(slots=True)
class _PendingRecv:
    proc: SimProcess
    source: int  # comm rank or ANY_SOURCE
    tag: int
    comm_id: int
    post_time: float
    handle: Optional[RequestHandle]  # None for a blocking recv: *proc* resumes


@dataclass(slots=True)
class _InFlight:
    """A message that has 'announced' itself at the receiver.

    For eager messages this is the payload arrival; for rendezvous messages
    it is the ready-to-send announcement, and the payload transfer only
    starts at match time.
    """

    message: Message
    announce_time: float
    rendezvous: bool
    sender: SimProcess
    #: Rendezvous only: the isend/sendrecv handle the transfer completes;
    #: ``None`` when *sender* itself is blocked in the send.
    sender_handle: Optional[RequestHandle]


@dataclass(slots=True)
class _CollectiveInstance:
    op: str
    root: int  # comm rank
    size: int
    enter_times: Dict[int, float] = field(default_factory=dict)
    data: Dict[int, Any] = field(default_factory=dict)
    #: Comm ranks whose exit has already been scheduled (rooted and prefix
    #: operations release members before the whole communicator has entered).
    resumed: set = field(default_factory=set)


@dataclass
class WorldStats:
    """Aggregate simulation statistics."""

    p2p_messages: int = 0
    p2p_bytes: int = 0
    collectives: int = 0
    rendezvous_messages: int = 0
    finish_time: float = 0.0
    #: Fault-injected retransmissions performed by this world's transport
    #: (0 without an active fault plan).
    retransmits: int = 0


class _RegionIds(dict):
    """Region name → id, registered with the run's registry on first use.

    First use is in global event order, exactly when the tracer's by-slot
    hooks would have registered the name, so ids are unchanged.
    """

    def __init__(self, registry: Any) -> None:
        super().__init__()
        self._register = registry.register

    def __missing__(self, name: str) -> int:
        rid = self[name] = self._register(name)
        return rid


# --------------------------------------------------------------------------
# The world
# --------------------------------------------------------------------------


class World:
    """Owns the engine, processes, communicators, matching state and hooks.

    A simulated MPI call costs one engine event per thing that happens at a
    distinct time — the call's return, a message's arrival, a completion a
    rank is blocked on — and every event is a bound method of this class
    scheduled with its operand: the continuation of a blocked rank is the
    ``(blocked_on, pending)`` pair on its :class:`SimProcess`.

    Parameters
    ----------
    metacomputer / placement:
        Where the ranks run; drives per-message link selection.
    params:
        MPI timing constants.
    rng:
        Single generator used for every latency draw (reproducibility).
    tracer:
        Optional :class:`~repro.instrument.tracer.Tracer`.  The world takes
        each rank's buffer, its node clock and the region registry from it
        and writes records into the buffers directly; ``None`` disables
        tracing.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`; when set, every
        network delay consults it for outage/loss/degradation effects and
        retransmission backoff (``params.retry``).  ``None`` — the default
        and the empty-plan case — leaves the timing model byte-identical.
    """

    def __init__(
        self,
        metacomputer: Metacomputer,
        placement: Placement,
        params: SimParams = SimParams(),
        rng: Optional[np.random.Generator] = None,
        tracer: Any = None,
        max_events: int = 50_000_000,
        fault_injector: Any = None,
    ) -> None:
        if placement.metacomputer is not metacomputer:
            raise SimulationError("placement does not belong to this metacomputer")
        self.metacomputer = metacomputer
        self.placement = placement
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.tracer = tracer
        self.max_events = max_events
        self.fault_injector = fault_injector
        self.engine = Engine()
        self.stats = WorldStats()

        self.comm_world = CommunicatorData(0, "world", range(placement.size))
        self._comms: Dict[int, CommunicatorData] = {0: self.comm_world}
        self._comms_by_name: Dict[str, CommunicatorData] = {"world": self.comm_world}

        self._procs: Dict[int, SimProcess] = {}
        self._envs: Dict[int, Dict[str, str]] = {}
        #: Request handles are numbered per world, so a seed names them.
        self._handle_ids = count(1)
        # Matching state, keyed by (comm_id, dest_global).
        self._pending_recvs: Dict[Tuple[int, int], List[_PendingRecv]] = {}
        self._unexpected: Dict[Tuple[int, int], List[_InFlight]] = {}
        self._channel_clock = ChannelClock()
        # Collective sequencing: (comm_id) -> list of instances; each rank
        # tracks which instance index it joins next.
        self._coll_instances: Dict[int, List[_CollectiveInstance]] = {}
        self._coll_next: Dict[Tuple, int] = {}
        self._split_pending: Dict[Tuple, List[Dict]] = {}

        # Hot-path caches.  All are pure functions of immutable run state
        # (placement, link topology, communicator membership, first-use
        # order of region names), so memoizing them cannot change any
        # sampled value or trace byte.
        self._jitter = ExponentialJitterStream(self.rng)
        self._routes: Dict[Tuple[int, int], Tuple[LatencyModel, str]] = {}
        #: (comm id, source global, dest comm rank) -> what _inject needs.
        self._channels: Dict[Tuple[int, int, int], Tuple[Any, ...]] = {}
        self._comm_costs: Dict[int, Tuple[float, float]] = {}
        self._region_ids = _RegionIds(tracer.regions) if tracer is not None else {}
        self._handlers: Dict[type, Callable[[SimProcess, Any], None]] = {
            ComputeReq: self._do_compute,
            SendReq: self._do_send,
            RecvReq: self._do_recv,
            IsendReq: self._do_isend,
            IrecvReq: self._do_irecv,
            WaitReq: self._do_wait,
            WaitallReq: self._do_waitall,
            SendrecvReq: self._do_sendrecv,
            CollectiveReq: self._do_collective,
            SplitReq: self._do_split,
            OmpParallelReq: self._do_omp_parallel,
        }

    # -- setup ------------------------------------------------------------------

    def new_communicator(self, name: str, global_ranks: Sequence[int]) -> CommunicatorData:
        """Create a named sub-communicator (apps fetch it via ctx.get_comm).

        Member order defines the new communicator's rank order: callers
        that want rank-sorted comms pass sorted sequences, and ``split``
        relies on (key, old-rank) order being preserved.
        """
        if name in self._comms_by_name:
            raise MPIUsageError(f"communicator {name!r} already exists")
        for g in global_ranks:
            if not 0 <= g < self.placement.size:
                raise MPIUsageError(f"rank {g} outside world (size {self.placement.size})")
        data = CommunicatorData(len(self._comms), name, list(global_ranks))
        self._comms[data.id] = data
        self._comms_by_name[name] = data
        return data

    def communicator(self, name: str) -> CommunicatorData:
        try:
            return self._comms_by_name[name]
        except KeyError:
            raise MPIUsageError(f"no communicator named {name!r}") from None

    def all_communicators(self) -> List[CommunicatorData]:
        """Every communicator of the run, including split-created ones."""
        return [self._comms[cid] for cid in sorted(self._comms)]

    def comm_by_id(self, comm_id: int) -> CommunicatorData:
        try:
            return self._comms[comm_id]
        except KeyError:
            raise MPIUsageError(f"no communicator with id {comm_id}") from None

    def launch(
        self,
        app: Callable[[Context], AppGenerator],
        seed: int = 0,
    ) -> None:
        """Instantiate one process per placement slot running *app*."""
        if self._procs:
            raise SimulationError("world already launched")
        for slot in self.placement.slots:
            host = self.metacomputer.metahost(slot.location.machine)
            env = {
                "REPRO_METAHOST_ID": str(slot.location.machine),
                "REPRO_METAHOST_NAME": host.name,
            }
            ctx = Context(
                self,
                slot,
                env,
                np.random.default_rng((seed, slot.rank)),
            )
            self._envs[slot.rank] = env
            proc = ctx._proc = SimProcess(slot, app(ctx))
            if self.tracer is not None:
                # What a record needs, resolved once per rank: the buffer
                # and the node clock as ``offset + rate * true_time`` —
                # the arithmetic of ``LinearClock.local_time``, bit for bit.
                clock = self.tracer.clocks.clock(node_of(slot.location))
                proc.trace = (
                    self.tracer.buffer(slot.rank), clock.offset_s, 1.0 + clock.drift
                )
            self._procs[slot.rank] = proc
        for proc in self._procs.values():
            self.engine.call_later(0.0, self._advance, proc)

    # -- execution ----------------------------------------------------------------

    def run(self) -> WorldStats:
        """Run the simulation to completion; raises on deadlock or app error."""
        if not self._procs:
            raise SimulationError("nothing launched")
        try:
            self.engine.run(max_events=self.max_events)
        finally:
            # Rewind the shared generator to where scalar draws would have
            # left it, so post-simulation consumers (clock-offset
            # measurement) see a byte-identical stream — even if the run
            # dies (deadlock, fault-injection timeout) mid-block.
            self._jitter.sync()
        blocked = [p for p in self._procs.values() if not p.done]
        if blocked:
            detail = ", ".join(
                f"rank {p.rank} in {p.blocked_on or 'unknown'}" for p in blocked[:8]
            )
            raise DeadlockError(
                f"{len(blocked)} processes never finished: {detail}"
            )
        self.stats.finish_time = self.engine.now
        return self.stats

    # -- process stepping ----------------------------------------------------------

    def _advance(self, proc: SimProcess) -> None:
        """Resume *proc* with its pending value and dispatch its next request.

        The one resume path of a simulated process and the handler lookup,
        in one frame; an application's own exception is recorded on *proc*
        and re-raised as a :class:`SimulationError` naming the rank.
        """
        if proc.done:
            raise SimulationError(f"rank {proc.rank} already finished")
        value, proc.pending = proc.pending, None
        try:
            request = proc.generator.send(value)
        except StopIteration:
            proc.done = True
            proc.finish_time = self.engine.now
            return
        except BaseException as exc:  # noqa: BLE001 - reported with context
            proc.done = True
            proc.failure = exc
            if isinstance(exc, ReproError):
                # Toolkit errors (bad rank, bad size, ...) keep their type.
                raise
            raise SimulationError(f"rank {proc.rank} raised {exc!r}") from exc
        handler = self._handlers.get(type(request))
        if handler is None:
            raise MPIUsageError(
                f"rank {proc.rank} yielded an unknown request at "
                f"t={self.engine.now}: {request!r}"
            )
        handler(proc, request)

    def _finish_call(self, proc: SimProcess) -> None:
        """The call *proc* is blocked in returns: EXIT record, then resume."""
        trace = proc.trace  # record_exit, inlined: every call returns through here
        if trace is not None:
            buf, offset, rate = trace
            buf.exit(offset + rate * self.engine.now, self._region_ids[proc.blocked_on])
        self._advance(proc)

    def _do_compute(self, proc: SimProcess, req: ComputeReq) -> None:
        proc.blocked_on = "compute"
        self.engine.call_later(req.seconds, self._advance, proc)

    # -- trace emit --------------------------------------------------------------------
    #
    # One frame in front of each TraceBuffer record method: stamp with the
    # rank's node clock, resolve the region id, append.

    def record_enter(self, proc: SimProcess, region: str) -> None:
        trace = proc.trace
        if trace is not None:
            buf, offset, rate = trace
            buf.enter(offset + rate * self.engine.now, self._region_ids[region])

    def record_exit(self, proc: SimProcess, region: str) -> None:
        trace = proc.trace
        if trace is not None:
            buf, offset, rate = trace
            buf.exit(offset + rate * self.engine.now, self._region_ids[region])

    def _record_recv(self, proc: SimProcess, message: Message) -> None:
        trace = proc.trace
        if trace is not None:
            buf, offset, rate = trace
            buf.recv(
                offset + rate * self.engine.now,
                message.source_global, message.tag, message.comm_id, message.size,
            )

    # -- point-to-point implementation ------------------------------------------------

    def _route(self, src_global: int, dst_global: int) -> Tuple[LatencyModel, str]:
        """Cached ``(latency model, interned direction key)`` per rank pair.

        Ranks never migrate, so the placement/topology lookups and the
        direction-string formatting that used to run once per message are
        paid once per (src, dst) pair for the whole run.  The direction
        keys the congestion model (per node pair).
        """
        key = (src_global, dst_global)
        route = self._routes.get(key)
        if route is None:
            a = self.placement.location(src_global)
            b = self.placement.location(dst_global)
            model = self.metacomputer.latency_model(self.metacomputer.link_between(a, b))
            direction = intern(f"{node_of(a)}->{node_of(b)}")
            route = (model, direction)
            self._routes[key] = route
        return route

    def _faulted(self, link: LatencyModel, sampled: float) -> float:
        """Apply fault-plan effects to one sampled network delay.

        Called only when a fault injector exists.  Retransmission backoff
        (lost messages, outage windows) is added on top; degradation
        windows scale the sampled delay itself.  Raises
        :class:`~repro.errors.CommunicationTimeoutError` out of the engine
        when the retry budget dies on a blacked-out link.
        """
        inj = self.fault_injector
        when = self.engine.now
        before = inj.counters.retransmits
        delay = inj.message_delivery(link.spec, when, self.params.retry)
        self.stats.retransmits += inj.counters.retransmits - before
        return delay + sampled * inj.latency_factor(link.spec, when + delay)

    def _inject(
        self,
        proc: SimProcess,
        comm_id: int,
        dest: int,
        size: int,
        tag: int,
        data: Any,
        overhead: float,
        eager: bool,
        handle: Optional[RequestHandle],
    ) -> None:
        """Put one message of *proc* on the wire.

        The single injection routine behind ``send``/``ssend``, ``isend``
        and the send half of ``sendrecv``: build the :class:`Message`, count
        it, write the SEND record, draw the network delay (one cached
        channel lookup, one draw from the shared jitter stream, fault effects
        if a plan is active), clamp the arrival on the channel (MPI non-overtaking) and
        schedule the announcement at the receiver.  *overhead* is the
        sender-side cost before the message leaves; *eager* selects payload
        arrival over a ready-to-send announcement; *handle* is the request
        the send completes, ``None`` when *proc* itself blocks in the call
        (its return is then the caller's business for eager, the match's
        for rendezvous).  Draw, clamp and scheduling order are part of the
        archive contract — do not reorder.
        """
        src_global = proc.rank
        channel = self._channels.get((comm_id, src_global, dest))
        if channel is None:  # the first message on it: resolve once, errors uncached
            comm = self.comm_by_id(comm_id)
            dst_global = comm.global_rank(dest)
            channel = self._channels[comm_id, src_global, dest] = (
                comm.comm_rank(src_global), dst_global, *self._route(src_global, dst_global),
                (comm_id, src_global, dst_global),  # the FIFO key
            )
        source, dst_global, link, direction, fifo = channel
        now = self.engine.now
        message = Message(
            source, dest, tag, comm_id, size, data, now, now, src_global, dst_global
        )
        stats = self.stats
        stats.p2p_messages += 1
        stats.p2p_bytes += size
        trace = proc.trace
        if trace is not None:
            buf, offset, rate = trace
            buf.send(offset + rate * now, dst_global, tag, comm_id, size)
        if eager:
            delay = link.transfer_time(size, self._jitter, now, direction)
        else:
            stats.rendezvous_messages += 1
            delay = link.sample_latency(self._jitter, now, direction)
        if self.fault_injector is not None:
            delay = self._faulted(link, delay)
        announce = self._channel_clock.clamp(fifo, now + overhead + delay)
        self.engine.call_at(
            announce, self._announce, _InFlight(message, announce, not eager, proc, handle)
        )
        if eager and handle is not None:
            # The eager isend itself completes immediately after the copy.
            self._complete_handle(handle, now + self.params.eager_send_cost_s(size), None)

    def _do_send(self, proc: SimProcess, req: SendReq) -> None:
        region = "MPI_Ssend" if req.synchronous else "MPI_Send"
        self.record_enter(proc, region)
        proc.blocked_on = region
        params = self.params
        eager = params.is_eager(req.size) and not req.synchronous
        self._inject(
            proc, req.comm_id, req.dest, req.size, req.tag, req.data,
            params.send_overhead_s, eager, None,
        )
        if eager:  # a rendezvous sender returns when the match's transfer ends
            self.engine.call_at(
                self.engine.now + params.eager_send_cost_s(req.size), self._finish_call, proc
            )

    def _do_isend(self, proc: SimProcess, req: IsendReq) -> None:
        self.record_enter(proc, "MPI_Isend")
        proc.blocked_on = "MPI_Isend"
        params = self.params
        handle = proc.pending = RequestHandle(next(self._handle_ids), "send", proc.rank)
        self._inject(
            proc, req.comm_id, req.dest, req.size, req.tag, req.data,
            params.nonblocking_overhead_s, params.is_eager(req.size), handle,
        )
        self.engine.call_at(
            self.engine.now + params.nonblocking_overhead_s, self._finish_call, proc
        )

    def _do_recv(self, proc: SimProcess, req: RecvReq) -> None:
        self.record_enter(proc, "MPI_Recv")
        proc.blocked_on = "MPI_Recv"
        self._post_recv(
            _PendingRecv(proc, req.source, req.tag, req.comm_id, self.engine.now, None)
        )

    def _finish_recv(self, proc: SimProcess) -> None:
        """A receiving call returns the message pending on *proc*: RECV
        record at this instant (none for a ``wait`` on a send), then EXIT."""
        if proc.pending is not None:
            self._record_recv(proc, proc.pending)
        self._finish_call(proc)

    def _do_irecv(self, proc: SimProcess, req: IrecvReq) -> None:
        self.record_enter(proc, "MPI_Irecv")
        proc.blocked_on = "MPI_Irecv"
        handle = RequestHandle(next(self._handle_ids), "recv", proc.rank)
        self._post_recv(
            _PendingRecv(proc, req.source, req.tag, req.comm_id, self.engine.now, handle)
        )
        proc.pending = handle
        self.engine.call_at(
            self.engine.now + self.params.nonblocking_overhead_s, self._finish_call, proc
        )

    def _do_wait(self, proc: SimProcess, req: WaitReq) -> None:
        self.record_enter(proc, "MPI_Wait")
        proc.blocked_on = "MPI_Wait"
        self._wait_for(proc, (req.handle,), False)

    def _do_waitall(self, proc: SimProcess, req: WaitallReq) -> None:
        self.record_enter(proc, "MPI_Waitall")
        proc.blocked_on = "MPI_Waitall"
        proc.pending = [None] * len(req.handles)
        self._wait_for(proc, req.handles, True)

    def _do_sendrecv(self, proc: SimProcess, req: SendrecvReq) -> None:
        """Simultaneous send + receive (deadlock-free halo exchanges).

        The send half behaves like an isend, the receive half like an
        irecv; the call returns the received message once both are due and
        stamps its RECV record at that instant.
        """
        self.record_enter(proc, "MPI_Sendrecv")
        proc.blocked_on = "MPI_Sendrecv"
        params = self.params
        send_handle = RequestHandle(next(self._handle_ids), "send", proc.rank)
        self._inject(
            proc, req.comm_id, req.dest, req.send_size, req.send_tag, req.data,
            params.send_overhead_s, params.is_eager(req.send_size), send_handle,
        )
        recv_handle = RequestHandle(next(self._handle_ids), "recv", proc.rank)
        self._post_recv(
            _PendingRecv(
                proc, req.source, req.recv_tag, req.comm_id, self.engine.now, recv_handle
            )
        )
        self._wait_for(proc, (send_handle, recv_handle), False)

    # -- matching ------------------------------------------------------------------

    def _post_recv(self, pending: _PendingRecv) -> None:
        if pending.comm_id not in self._comms:
            self.comm_by_id(pending.comm_id)  # raises: unknown communicator
        key = (pending.comm_id, pending.proc.rank)
        queue = self._unexpected.get(key)
        if queue:
            for i, inflight in enumerate(queue):
                if self._matches(pending, inflight.message):
                    del queue[i]
                    self._match(pending, inflight)
                    return
        self._pending_recvs.setdefault(key, []).append(pending)

    def _announce(self, inflight: _InFlight) -> None:
        """A message (or its rendezvous announcement) reaches the receiver."""
        msg = inflight.message
        key = (msg.comm_id, msg.dest_global)
        pendings = self._pending_recvs.get(key)
        if pendings:
            for i, pending in enumerate(pendings):
                if self._matches(pending, msg):
                    del pendings[i]
                    self._match(pending, inflight)
                    return
        self._unexpected.setdefault(key, []).append(inflight)

    @staticmethod
    def _matches(pending: _PendingRecv, msg: Message) -> bool:
        """Both queues are keyed by communicator: source and tag decide."""
        return (pending.source == ANY_SOURCE or pending.source == msg.source) and (
            pending.tag == ANY_TAG or pending.tag == msg.tag
        )

    def _match(self, pending: _PendingRecv, inflight: _InFlight) -> None:
        """Complete a pair matched at this instant, honouring protocol timing."""
        msg = inflight.message
        now = self.engine.now
        if inflight.rendezvous:
            src_global, dst_global = msg.source_global, msg.dest_global
            link, direction = self._route(src_global, dst_global)
            # Clear-to-send travels back, then the payload forward.
            cts = link.sample_latency(
                self._jitter, now, self._route(dst_global, src_global)[1]
            )
            transfer = link.transfer_time(msg.size, self._jitter, now, direction)
            if self.fault_injector is not None:
                cts = self._faulted(link, cts)
                transfer = self._faulted(link, transfer)
            transfer_done = now + cts + transfer
            recv_completion = transfer_done + self.params.recv_overhead_s
            if inflight.sender_handle is None:
                self.engine.call_at(transfer_done, self._finish_call, inflight.sender)
            else:
                self._complete_handle(inflight.sender_handle, transfer_done, None)
        else:
            recv_completion = max(
                max(inflight.announce_time, pending.post_time) + self.params.recv_overhead_s,
                now,
            )
        if pending.handle is None:
            pending.proc.pending = msg
            self.engine.call_at(recv_completion, self._finish_recv, pending.proc)
        else:
            self._complete_handle(pending.handle, recv_completion, msg)

    # -- handle plumbing ---------------------------------------------------------------

    def _complete_handle(
        self, handle: RequestHandle, completion_time: float, result: Optional[Message]
    ) -> None:
        """Record when *handle* completes; wake its waiter then, if it has one."""
        if handle.completion_time is not None:
            raise SimulationError(f"handle {handle!r} completed twice")
        due = handle.completion_time = max(completion_time, self.engine.now)
        handle.result = result
        if handle._waiter is not None:
            self.engine.call_at(due, self._handle_due, handle)

    def _wait_for(
        self, proc: SimProcess, handles: Tuple[RequestHandle, ...], indexed: bool
    ) -> None:
        """Block *proc* until every handle of its call is due.

        Handles already past due are settled here and now; each other one
        gets *proc* as its waiter and — as soon as its completion time is
        known — exactly one engine event at that instant.  If nothing is
        left outstanding the whole call costs one event.  *indexed* is a
        ``waitall`` (results land in ``proc.pending[i]``, each RECV record
        stamped as its handle falls due); otherwise the call returns the
        one received message and stamps its RECV record on return.
        """
        now = self.engine.now
        outstanding = 0
        for index, handle in enumerate(handles):
            slot = index if indexed else None
            due = handle.completion_time
            if due is not None and due <= now:
                if handle.result is not None:
                    self._settle(proc, handle.result, slot)
                continue
            if handle._waiter is not None:
                raise MPIUsageError(f"handle {handle!r} waited on twice")
            handle._waiter = (proc, slot)
            outstanding += 1
            if due is not None:
                self.engine.call_at(due, self._handle_due, handle)
        proc.outstanding = outstanding
        if not outstanding:
            self.engine.call_at(
                now, self._finish_call if indexed else self._finish_recv, proc
            )

    def _settle(self, proc: SimProcess, message: Message, slot: Optional[int]) -> None:
        """Hand a due receive's *message* to the call *proc* waits in."""
        if slot is None:
            proc.pending = message
        else:
            proc.pending[slot] = message
            self._record_recv(proc, message)

    def _handle_due(self, handle: RequestHandle) -> None:
        """The completion instant of a handle somebody waits on."""
        proc, slot = handle._waiter
        handle._waiter = None
        if handle.result is not None:
            self._settle(proc, handle.result, slot)
        proc.outstanding -= 1
        if not proc.outstanding:
            if slot is None:
                self._finish_recv(proc)
            else:
                self._finish_call(proc)

    # -- collectives ---------------------------------------------------------------------

    def _do_collective(self, proc: SimProcess, req: CollectiveReq) -> None:
        comm = self._comms.get(req.comm_id) or self.comm_by_id(req.comm_id)
        my_comm_rank = comm._comm_rank_of.get(proc.rank)
        if my_comm_rank is None:
            raise MPIUsageError(
                f"rank {proc.rank} called {req.op} on communicator "
                f"{comm.name!r} it does not belong to"
            )
        op = req.op
        if op not in coll.ALL_COLLECTIVES:
            raise MPIUsageError(
                f"rank {proc.rank} called unknown collective {op!r} on {comm.name!r}"
            )
        if not 0 <= req.root < comm.size:
            raise MPIUsageError(
                f"rank {proc.rank} called {op} on {comm.name!r} with root "
                f"{req.root}, outside [0, {comm.size})"
            )
        now = self.engine.now
        self.record_enter(proc, op)
        proc.blocked_on = op

        instances = self._coll_instances.setdefault(req.comm_id, [])
        index_key = (req.comm_id, proc.rank)
        index = self._coll_next.get(index_key, 0)
        self._coll_next[index_key] = index + 1
        while len(instances) <= index:
            instances.append(_CollectiveInstance(op=req.op, root=req.root, size=req.size))
        instance = instances[index]
        if instance.enter_times and instance.op != op:
            raise MPIUsageError(
                f"collective mismatch on {comm.name!r}: rank {proc.rank} called "
                f"{op} while others called {instance.op}"
            )
        if not instance.enter_times:
            instance.op = op
            instance.root = req.root
            instance.size = req.size
        elif op != coll.BARRIER and instance.root != req.root:
            raise MPIUsageError(
                f"root mismatch in {op} on {comm.name!r}: "
                f"{req.root} vs {instance.root}"
            )
        instance.size = max(instance.size, req.size)
        instance.enter_times[my_comm_rank] = now
        instance.data[my_comm_rank] = req.data

        exits = coll.exits_on_entry(
            op, instance.root, instance.size, instance.enter_times, instance.resumed,
            my_comm_rank, req.size, comm.size,
            self._comm_costs.get(comm.id) or self._comm_cost(comm),
        )
        if exits:
            self._release(comm, instance, exits)
        if len(instance.enter_times) == comm.size:
            self.stats.collectives += 1

    def _comm_cost(self, comm: CommunicatorData) -> Tuple[float, float]:
        """(alpha, 1/bandwidth) of the communicator's slowest spanned link.

        Cached per communicator id: membership is immutable after creation,
        so the O(size²)-ish link scan ran redundantly on every collective
        entry of every rank.
        """
        cost = self._comm_costs.get(comm.id)
        if cost is None:
            locations = [self.placement.location(g) for g in comm.global_ranks]
            cost = coll.comm_alpha_beta(self.metacomputer, locations, self.params)
            self._comm_costs[comm.id] = cost
        return cost

    def _release(
        self,
        comm: CommunicatorData,
        instance: _CollectiveInstance,
        exits: Sequence[Tuple[int, float]],
    ) -> None:
        """Hand each ``(comm rank, exit time)`` its result; one exit event per
        run of equal times leaves them in *exits* order, as an event each would
        (consecutive seqs, before anything a continuation schedules)."""
        now = self.engine.now
        comm_id = comm.id
        global_ranks = comm.global_ranks
        root_global = global_ranks[instance.root]
        released_at = None
        for comm_rank, exit_time in exits:
            if comm_rank in instance.resumed:
                raise SimulationError(
                    f"comm rank {comm_rank} resumed twice in {instance.op}"
                )
            instance.resumed.add(comm_rank)
            proc = self._procs[global_ranks[comm_rank]]
            proc.pending = self._collective_result(instance, comm_rank)
            sent, recvd = coll.bytes_moved(
                instance.op, instance.size, comm.size, comm_rank, instance.root
            )
            exit_time = max(exit_time, now)
            if exit_time != released_at:
                # Filled before any event runs: nothing runs while this loops.
                members = []
                self.engine.call_at(exit_time, self._finish_collective, members)
                released_at = exit_time
            members.append((proc, comm_id, root_global, sent, recvd))

    def _finish_collective(self, members: List[Tuple[SimProcess, int, int, int, int]]) -> None:
        """Each ``(proc, comm id, root, sent, recvd)`` member leaves the
        collective it is blocked in, in order: COLLEXIT, EXIT, resume."""
        time = self.engine.now
        region_ids = self._region_ids
        for proc, comm_id, root_global, sent, recvd in members:
            trace = proc.trace
            if trace is not None:
                buf, offset, rate = trace
                buf.coll_exit(
                    offset + rate * time, region_ids[proc.blocked_on],
                    comm_id, root_global, sent, recvd,
                )
            self._finish_call(proc)

    # -- fork-join threading ------------------------------------------------------

    def _do_omp_parallel(self, proc: SimProcess, req: OmpParallelReq) -> None:
        """Run a fork-join region: wall time = slowest thread's work."""
        speed = proc.slot.cpu.speed_factor
        busy = [w / speed for w in req.work_seconds]
        busy_max = max(busy)
        self.record_enter(proc, req.region)
        proc.blocked_on = req.region
        self.engine.call_later(
            busy_max, self._finish_omp_parallel, proc, len(busy), sum(busy), busy_max
        )

    def _finish_omp_parallel(
        self, proc: SimProcess, nthreads: int, busy_sum: float, busy_max: float
    ) -> None:
        trace = proc.trace
        if trace is not None:
            buf, offset, rate = trace
            buf.omp_region(
                offset + rate * self.engine.now, self._region_ids[proc.blocked_on],
                nthreads, busy_sum, busy_max,
            )
        self._finish_call(proc)

    # -- communicator splitting -------------------------------------------------

    def _do_split(self, proc: SimProcess, req: SplitReq) -> None:
        """MPI_Comm_split: synchronizes like an allgather of (color, key)."""
        comm = self.comm_by_id(req.comm_id)
        if not comm.contains(proc.rank):
            raise MPIUsageError(
                f"rank {proc.rank} called split on communicator "
                f"{comm.name!r} it does not belong to"
            )
        now = self.engine.now
        self.record_enter(proc, "MPI_Comm_split")
        proc.blocked_on = "MPI_Comm_split"

        key = (req.comm_id, "split")
        pending = self._split_pending.setdefault(key, [])
        index_key = (req.comm_id, proc.rank, "split")
        index = self._coll_next.get(index_key, 0)
        self._coll_next[index_key] = index + 1
        while len(pending) <= index:
            pending.append({})
        instance = pending[index]
        instance[proc.rank] = (req.color, req.key, now)

        if len(instance) == comm.size:
            self._complete_split(comm, instance, index)

    def _complete_split(self, comm: CommunicatorData, instance: Dict, index: int) -> None:
        self.stats.collectives += 1
        # Exchange of (color, key) behaves like a small allgather.
        finish = coll.split_exit(
            max(t for (_c, _k, t) in instance.values()), comm.size, self._comm_cost(comm)
        )
        # Group by color; order members by (key, old comm rank).
        by_color: Dict[int, List[Tuple[int, int, int]]] = {}
        for global_rank, (color, key, _t) in instance.items():
            if color is None:
                continue
            by_color.setdefault(color, []).append(
                (key, comm.comm_rank(global_rank), global_rank)
            )
        new_comms: Dict[int, CommunicatorData] = {}
        for color in sorted(by_color):
            members = [g for (_k, _old, g) in sorted(by_color[color])]
            name = f"{comm.name}.split{index}.c{color}"
            counter = 0
            base = name
            while name in self._comms_by_name:
                counter += 1
                name = f"{base}#{counter}"
            new_comms[color] = self.new_communicator(name, members)

        leaving = []
        for global_rank, (color, _key, _t) in instance.items():
            proc = self._procs[global_rank]
            data = new_comms.get(color) if color is not None else None
            proc.pending = Communicator(data, global_rank) if data is not None else None
            leaving.append((proc, comm.id, comm.global_rank(0), 8, 8 * comm.size))
        self.engine.call_at(max(finish, self.engine.now), self._finish_collective, leaving)

    @staticmethod
    def _collective_result(instance: _CollectiveInstance, comm_rank: int) -> Any:
        """What the collective returns to *comm_rank*.  An n-to-n result (and
        an n-to-1 root's) is the instance's complete comm rank → contribution
        ``dict`` itself: one object shared by every member, read-only."""
        op = instance.op
        if op == coll.BARRIER:
            return None
        if op in coll.ONE_TO_N_OPS:
            return instance.data.get(instance.root)
        if op in coll.N_TO_1_OPS:
            return instance.data if comm_rank == instance.root else None
        if op in coll.PREFIX_OPS:
            # Inclusive prefix: contributions of comm ranks 0..self.
            return {r: d for r, d in instance.data.items() if r <= comm_rank}
        return instance.data
