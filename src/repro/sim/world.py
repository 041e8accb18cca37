"""The simulated MPI world: processes, event loop, collectives and trace emit.

:class:`World` owns the event engine, runs one :class:`~repro.sim.process.SimProcess`
per placement slot and dispatches each request it yields to a handler.  The
point-to-point handlers are inherited from :class:`~repro.sim.p2p.PointToPoint`;
the world itself keeps setup, the resume path, the trace emit, collective
sequencing and release, communicator splitting and fork-join regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocks.clock import ClockEnsemble
from repro.errors import DeadlockError, MPIUsageError, ReproError, SimulationError
from repro.ids import node_of
from repro.sim import collectives as coll
from repro.sim.engine import Engine
from repro.sim.mpi import (
    CollectiveReq,
    Communicator,
    CommunicatorData,
    ComputeReq,
    Context,
    IrecvReq,
    IsendReq,
    OmpParallelReq,
    RecvReq,
    SendrecvReq,
    SendReq,
    SplitReq,
    WaitallReq,
    WaitReq,
)
from repro.sim.p2p import PointToPoint
from repro.sim.process import AppGenerator, SimProcess
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Metacomputer, Placement
from repro.topology.network import ExponentialJitterStream
from repro.trace.buffer import TraceBuffer
from repro.trace.regions import RegionRegistry


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

    First use is in global event order, so a seed reproduces the ids.
    """

    def __init__(self, registry: Any) -> None:
        super().__init__()
        self._register = registry.register

    def __missing__(self, name: str) -> int:
        rid = self[name] = self._register(name)
        return rid


class World(PointToPoint):
    """Owns the engine, processes, communicators and the trace emit.

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
    clocks:
        Optional node clocks: the world then writes every trace record,
        stamped with its rank's node clock, into ``buffers`` (rank →
        :class:`~repro.trace.buffer.TraceBuffer`), interning region names
        in ``regions``; ``None`` disables tracing.
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
        clocks: Optional[ClockEnsemble] = None,
        max_events: int = 50_000_000,
        fault_injector: Any = None,
    ) -> None:
        if placement.metacomputer is not metacomputer:
            raise SimulationError("placement does not belong to this metacomputer")
        super().__init__()
        self.metacomputer = metacomputer
        self.placement = placement
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.clocks = clocks
        self.max_events = max_events
        self.fault_injector = fault_injector
        self.engine = Engine()
        self.stats = WorldStats()

        self.comm_world = CommunicatorData(0, "world", range(placement.size))
        self._comms: Dict[int, CommunicatorData] = {0: self.comm_world}
        self._comms_by_name: Dict[str, CommunicatorData] = {"world": self.comm_world}

        self._procs: Dict[int, SimProcess] = {}
        # Collective sequencing: (comm_id) -> list of instances; each rank
        # tracks which instance index it joins next.
        self._coll_instances: Dict[int, List[_CollectiveInstance]] = {}
        self._coll_next: Dict[Tuple, int] = {}
        self._split_pending: Dict[Tuple, List[Dict]] = {}

        self._jitter = ExponentialJitterStream(self.rng)
        # Hot-path caches of immutable run state (communicator membership,
        # first-use order of region names): they change no trace byte.
        self._comm_costs: Dict[int, Tuple[float, float]] = {}
        self.regions = RegionRegistry()
        self.buffers: Dict[int, TraceBuffer] = {}
        self._region_ids = _RegionIds(self.regions) if clocks is not None else {}
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

    def launch(self, app: Callable[[Context], AppGenerator], seed: int = 0) -> None:
        """Instantiate one process per placement slot running *app*."""
        if self._procs:
            raise SimulationError("world already launched")
        for slot in self.placement.slots:
            host = self.metacomputer.metahost(slot.location.machine)
            env = {
                "REPRO_METAHOST_ID": str(slot.location.machine),
                "REPRO_METAHOST_NAME": host.name,
            }
            ctx = Context(self, slot, env, np.random.default_rng((seed, slot.rank)))
            proc = ctx._proc = SimProcess(slot, app(ctx))
            if self.clocks is not None:
                # What a record needs, resolved once per rank: the buffer
                # and the node clock as ``offset + rate * true_time`` —
                # the arithmetic of ``LinearClock.local_time``, bit for bit.
                clock = self.clocks.clock(node_of(slot.location))
                buffer = self.buffers[slot.rank] = TraceBuffer(slot.rank)
                proc.trace = (buffer, clock.offset_s, 1.0 + clock.drift)
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
