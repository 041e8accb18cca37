"""The simulated MPI interface that applications see.

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

Naming follows mpi4py's lowercase conventions.  This module holds the
requests, messages, handles, communicators and the per-rank context, and
imports nothing of the engine (``repro check`` rule ARC528).  The
point-to-point protocol and message matching are
:mod:`repro.sim.p2p`; the world that owns the event engine, runs the
processes, sequences collectives and writes the trace is
:mod:`repro.sim.world`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Real
from operator import index
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MPIUsageError
from repro.ids import ANY_SOURCE, ANY_TAG, Location
from repro.sim import collectives as coll
from repro.sim.process import SimProcess
from repro.topology.metacomputer import ProcessSlot

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
    :class:`~repro.sim.world.World`, so a seed reproduces them.
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
        world: Any,  # the repro.sim.world.World running this rank
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

