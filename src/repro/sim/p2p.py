"""Point-to-point MPI of the simulated world: protocol, matching, handles.

:class:`PointToPoint` is the half of :class:`~repro.sim.world.World` that
moves messages: it puts a message on the wire (eager or rendezvous, one
jitter draw per delay, fault effects, FIFO clamp per channel), matches it
against posted receives (MPI semantics: per-communicator queues, FIFO,
``ANY_SOURCE``/``ANY_TAG`` wildcards, non-overtaking delivery) and settles
the request handles of the non-blocking calls.  It is a base class, not a
member, so every engine callback stays a bound method of the one world.

The world provides what this layer reads: ``engine``, ``params``,
``stats``, ``placement``, ``metacomputer``, ``fault_injector``, the jitter
stream ``_jitter``, the communicator table (``_comms``, ``comm_by_id``),
``record_enter`` and ``_finish_call``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from sys import intern
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MPIUsageError, SimulationError
from repro.ids import ANY_SOURCE, ANY_TAG, node_of
from repro.sim.mpi import (
    IrecvReq,
    IsendReq,
    Message,
    RecvReq,
    RequestHandle,
    SendrecvReq,
    SendReq,
    WaitallReq,
    WaitReq,
)
from repro.sim.process import SimProcess
from repro.sim.transfer import ChannelClock
from repro.topology.network import LatencyModel

# --------------------------------------------------------------------------
# Matching structures
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


class PointToPoint:
    """Point-to-point state and handlers, inherited by the world."""

    def __init__(self) -> None:
        #: Request handles are numbered per world, so a seed names them.
        self._handle_ids = count(1)
        # Matching state, keyed by (comm_id, dest_global).
        self._pending_recvs: Dict[Tuple[int, int], List[_PendingRecv]] = {}
        self._unexpected: Dict[Tuple[int, int], List[_InFlight]] = {}
        self._channel_clock = ChannelClock()
        # Pure functions of immutable run state (placement, link topology,
        # communicator membership), so memoizing them cannot change any
        # sampled value or trace byte.
        self._routes: Dict[Tuple[int, int], Tuple[LatencyModel, str]] = {}
        #: (comm id, source global, dest comm rank) -> what _inject needs.
        self._channels: Dict[Tuple[int, int, int], Tuple[Any, ...]] = {}

    def _record_recv(self, proc: SimProcess, message: Message) -> None:
        trace = proc.trace
        if trace is not None:
            buf, offset, rate = trace
            buf.recv(
                offset + rate * self.engine.now,
                message.source_global, message.tag, message.comm_id, message.size,
            )

    # -- injection -------------------------------------------------------------------

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
        message = Message(source, dest, tag, comm_id, size, data, src_global, dst_global)
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

    # -- the point-to-point calls ----------------------------------------------------

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
