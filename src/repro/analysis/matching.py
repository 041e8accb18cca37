"""Message matching and collective grouping for the replay.

Point-to-point matching follows the non-overtaking rule: the *k*-th receive
record for channel ``(sender, receiver, tag, communicator)`` matches the
*k*-th send record on that channel.  Traces record the actual source and
tag of every completed receive (wildcards are resolved at run time), so the
replay's matching is deterministic.

Collective grouping mirrors MPI ordering semantics: a rank's *n*-th
collective operation on a communicator belongs to that communicator's
*n*-th collective instance.

This is the reference's own view of the op tables: :func:`op_instances`
makes one :class:`MPIOpInstance` per row, holding Python scalars, and the
object-wise matcher and pattern classes read those.  The columnar engine
reads the tables directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.analysis.globalphase import (
    COLLECTIVE_MEMBER_BYTES,
    PAIR_METADATA_BYTES,
    MatchStats,
)
from repro.analysis.instances import OpTable, ProcessTimeline, record_rows
from repro.errors import AnalysisError
from repro.ids import Location


class SendRecord(NamedTuple):
    """A SEND event with synchronized stamp, in trace order."""

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


@dataclass(slots=True)
class MPIOpInstance:
    """One completed MPI call of one rank, with synchronized times.

    ``sends``/``recvs`` are immutable tuples: most ops carry no record and
    share the one empty ``()``.
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


def op_instances(ops: OpTable) -> Iterator[MPIOpInstance]:
    """One rank's ops as objects, in table order; an op's last COLLEXIT counts."""
    s, sends = record_rows(ops.sends, SendRecord._make)
    r, recvs = record_rows(ops.recvs, RecvRecord._make)
    c, colls = record_rows(ops.colls, CollRecord._make)
    columns = (ops.region.tolist(), ops.cpid.tolist(), ops.enter.tolist(), ops.exit.tolist())
    for i, (region, cpid, enter, exit) in enumerate(zip(*columns)):
        yield MPIOpInstance(
            ops.rank, region, ops.names[region], cpid, enter, exit,
            tuple(sends[s[i]:s[i + 1]]),
            tuple(recvs[r[i]:r[i + 1]]),
            colls[c[i + 1] - 1] if c[i + 1] > c[i] else None,
        )


class MatchedPair:
    """One send/receive pair with both sides' context.

    A plain slotted class rather than a dataclass: the replay creates one
    per matched message, and the quantities every downstream consumer needs
    — the grid predicate and the Late Sender / Late Receiver waiting times
    — are computed once at construction instead of being rederived by each
    of the five point-to-point patterns plus the grid breakdown.

    ``late_sender_wait`` is the interval between entering the receiving
    call and the sender entering the sending call, clipped to the receiving
    call (≥ 0); ``late_receiver_wait`` is the dual; ``crosses_metahosts``
    is true when the endpoints live on different machines.
    """

    __slots__ = (
        "sender_rank",
        "sender_location",
        "send_op",
        "send",
        "receiver_rank",
        "receiver_location",
        "recv_op",
        "recv",
        "crosses_metahosts",
        "late_sender_wait",
        "late_receiver_wait",
    )

    def __init__(
        self,
        sender_rank: int,
        sender_location: Location,
        send_op: MPIOpInstance,
        send: SendRecord,
        receiver_rank: int,
        receiver_location: Location,
        recv_op: MPIOpInstance,
        recv: RecvRecord,
    ) -> None:
        self.sender_rank = sender_rank
        self.sender_location = sender_location
        self.send_op = send_op
        self.send = send
        self.receiver_rank = receiver_rank
        self.receiver_location = receiver_location
        self.recv_op = recv_op
        self.recv = recv
        self.crosses_metahosts = sender_location.machine != receiver_location.machine
        send_enter = send_op.enter
        send_exit = send_op.exit
        recv_enter = recv_op.enter
        recv_exit = recv_op.exit
        wait = (send_enter if send_enter < recv_exit else recv_exit) - recv_enter
        self.late_sender_wait = wait if wait > 0.0 else 0.0
        wait = (recv_enter if recv_enter < send_exit else send_exit) - send_enter
        self.late_receiver_wait = wait if wait > 0.0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchedPair(sender_rank={self.sender_rank}, "
            f"receiver_rank={self.receiver_rank}, send={self.send!r}, "
            f"recv={self.recv!r})"
        )


@dataclass
class CollectiveInstance:
    """One collective operation instance across its communicator."""

    comm: int
    index: int
    region: int
    op_name: str
    root: int  # global rank
    #: rank → (op instance, coll record)
    members: Dict[int, Tuple[MPIOpInstance, CollRecord]] = field(default_factory=dict)
    locations: Dict[int, Location] = field(default_factory=dict)
    #: Global ranks in communicator-rank order (from the definitions
    #: document); None when the communicator is unknown to the archive.
    comm_order: Optional[List[int]] = None

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def last_enter(self) -> float:
        return max(op.enter for op, _ in self.members.values())

    @property
    def spans_metahosts(self) -> bool:
        """The grid predicate for collectives: communicator spans machines."""
        machines = {loc.machine for loc in self.locations.values()}
        return len(machines) > 1


class MessageMatcher:
    """Builds matched pairs and collective instances from all timelines.

    ``comm_ranks`` optionally maps communicator ids to their global ranks
    in communicator-rank order (from the archive's definitions document);
    collective instances then carry it as ``comm_order`` so order-sensitive
    patterns (Early Scan) can use true comm-rank order.  ``comm_lookup``
    is the lazy alternative: a callable resolving one communicator id on
    first use, so callers with large definitions documents don't build the
    whole table up front for the handful of communicators a trace touches.

    ``allow_unmatched`` turns the unmatched-receive hard error into a
    counted skip: degraded-mode replay analyzes a subset of ranks, so a
    surviving receiver may legitimately reference a sender whose trace was
    lost.  The skipped receives show up in ``stats.unmatched_recvs``.
    """

    def __init__(
        self,
        timelines: Dict[int, ProcessTimeline],
        comm_ranks: Optional[Dict[int, Tuple[int, ...]]] = None,
        comm_lookup: Optional[Callable[[int], Optional[Tuple[int, ...]]]] = None,
        allow_unmatched: bool = False,
    ) -> None:
        self.timelines = timelines
        self._ops = {rank: list(op_instances(tl.mpi_ops)) for rank, tl in timelines.items()}
        self.comm_ranks = comm_ranks or {}
        self._comm_lookup = comm_lookup
        self._comm_order_cache: Dict[int, Optional[Tuple[int, ...]]] = {}
        self.allow_unmatched = allow_unmatched
        self.stats = MatchStats()

    def _order_of(self, comm: int) -> Optional[Tuple[int, ...]]:
        """Comm-rank order of one communicator, resolved lazily and cached."""
        order = self.comm_ranks.get(comm)
        if order is not None or self._comm_lookup is None:
            return order
        if comm not in self._comm_order_cache:
            self._comm_order_cache[comm] = self._comm_lookup(comm)
        return self._comm_order_cache[comm]

    # -- point-to-point -------------------------------------------------------

    def matched_pairs(self) -> Iterator[MatchedPair]:
        """Yield every matched pair (receiver trace order per rank)."""
        queues: Dict[Tuple[int, int, int, int], Deque[Tuple[MPIOpInstance, SendRecord]]] = {}
        for rank in sorted(self.timelines):
            for op in self._ops[rank]:
                for send in op.sends:
                    key = (rank, send.dest, send.tag, send.comm)
                    queue = queues.get(key)
                    if queue is None:
                        queues[key] = queue = deque()
                    queue.append((op, send))

        timelines = self.timelines
        stats = self.stats
        matched = 0
        for rank in sorted(timelines):
            timeline = timelines[rank]
            location = timeline.location
            for op in self._ops[rank]:
                for recv in op.recvs:
                    source = recv.source
                    key = (source, rank, recv.tag, recv.comm)
                    queue = queues.get(key)
                    if not queue:
                        stats.unmatched_recvs += 1
                        if self.allow_unmatched:
                            continue
                        raise AnalysisError(
                            f"rank {rank}: RECV from {source} "
                            f"(tag {recv.tag}, comm {recv.comm}) has no matching SEND"
                        )
                    send_op, send = queue.popleft()
                    matched += 1
                    yield MatchedPair(
                        source,
                        timelines[source].location,
                        send_op,
                        send,
                        rank,
                        location,
                        op,
                        recv,
                    )
        stats.matched = matched
        stats.metadata_bytes += matched * PAIR_METADATA_BYTES
        stats.unmatched_sends = sum(len(q) for q in queues.values())

    # -- collectives -------------------------------------------------------------

    def collective_instances(self) -> List[CollectiveInstance]:
        """Group COLLEXIT records into per-communicator instances."""
        instances: Dict[Tuple[int, int], CollectiveInstance] = {}
        for rank in sorted(self.timelines):
            timeline = self.timelines[rank]
            counters: Dict[int, int] = {}
            for op in self._ops[rank]:
                coll = op.coll
                if coll is None:
                    continue
                index = counters.get(coll.comm, 0)
                counters[coll.comm] = index + 1
                key = (coll.comm, index)
                instance = instances.get(key)
                if instance is None:
                    order = self._order_of(coll.comm)
                    instance = CollectiveInstance(
                        comm=coll.comm,
                        index=index,
                        region=coll.region,
                        op_name=op.op_name,
                        root=coll.root,
                        comm_order=list(order) if order is not None else None,
                    )
                    instances[key] = instance
                elif instance.region != coll.region:
                    raise AnalysisError(
                        f"collective mismatch on comm {coll.comm} instance {index}: "
                        f"rank {rank} recorded region {coll.region}, others "
                        f"{instance.region}"
                    )
                instance.members[rank] = (op, coll)
                instance.locations[rank] = timeline.location
                self.stats.metadata_bytes += COLLECTIVE_MEMBER_BYTES
        result = [instances[key] for key in sorted(instances)]
        self.stats.collective_instances = len(result)
        return result
