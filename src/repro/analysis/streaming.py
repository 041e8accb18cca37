"""The replay analyzer: one driver, a single-pass bounded-memory core.

There are two replay engines.  The buffered
:class:`~repro.analysis.replay.ReplayAnalyzer` — kept as the independent
reference the tests and the benchmark compare against — materializes
every rank's MPI-op instances, then matches, then searches patterns: three
walks whose working set is O(trace).  This module is the other one, and
the only driver, matcher and pattern evaluator the package runs:
:class:`StreamingReplayAnalyzer` is the same code path at every ``jobs``
value.

The replay has two phases.  The **local phase** is a pure function of one
trace file: during admission every rank's blob becomes op tables — numpy
columns built by array passes, no object per event
(:mod:`repro.analysis.optable`).  ``jobs`` says only *where* it runs: in
this process, one rank's blob in memory at a time over one shared
call-path registry, or as :func:`~repro.analysis.parallel.analyze_shard`
tasks on a supervised pool, whose shard-local registries are absorbed in
ascending shard order before anything is fed.  The **pump** then keeps one
cursor per rank in a heap keyed by the next op's synchronized enter stamp,
takes the earliest rank's next :data:`_QUANTUM_OPS` completed ops,
materializes them from the columns as transient :class:`MPIOpInstance`
objects and hands them to an **incremental** matcher; matched pairs and
completed collective instances flow straight into the pattern search and
the severity accumulators.  An op object lives until its matching window
closes, so the objects alive at any moment are the *matching window* —
in-flight sends/receives and open collectives, at most one quantum per rank
wider than a strictly time-ordered pump's — never the trace.  What a
retained result keeps is the tables (``ProcessTimeline.mpi_ops`` is a lazy
sequence over them); a bounded one drops them.  The cyclic garbage
collector, which used to walk several hundred thousand retained op and
record objects on every generation-2 pass, finds almost nothing to walk.

The pump guarantees two orders and no third: each rank's ops arrive in
**trace order**, and each receiver's matched pairs are released in
**receive trace order**.  Ranks interleave only roughly by time (quantum
granularity), and nothing below depends on how: the replay needs local
order plus message matching, never a global event order.  The one
pump-order-dependent output is the ``SeverityTimeline``'s bins, plain
float sums already documented as last-ulp order-dependent diagnostics.

Bit-identity with the buffered analyzer (strict and degraded, every
``jobs`` value) rests on four mechanisms:

* the severity cube and grid breakdown are **exact and order-free**
  (Shewchuk expansions, :mod:`repro.analysis.severity`), so pattern hits
  may arrive in pump order instead of receiver-major order — and the
  structural MPI-time metrics, one exact sum per ``(rank, call path)``
  taken from the duration column, are installed into their cells at
  finalize;
* the only *stateful* pattern (Wrong Order, keyed per receiver and
  communicator) sees pairs through a per-receiver reorder buffer that
  releases them in receive trace order — exactly the buffered feed order
  per key;
* collective instances are emitted with members rebuilt in ascending rank
  order, reproducing the buffered causer tie-break, and flushed at
  end-of-stream sorted by ``(comm, index)``;
* call paths are numbered rank-major in first-encounter order before the
  pump starts, so the cube and the timeline are keyed globally from the
  first ``add``.

Clock-condition stamps are sorted at finalize; both engines sort
identically, so stamp lists stay comparable across paths.

A deadline cuts a pool run (the supervised pool kills in-flight workers
and the settled shards are salvaged) and the pump (polled after every
quantum), never the in-process local phase: an interrupted result's
timelines describe whole traces (and so does the TIME metric, which is
local), while every metric the pump feeds covers the consumed prefix and
``RankCompleteness`` says how many events that was.
"""

from __future__ import annotations

import warnings
from collections import deque
from heapq import heapify, heappop, heapreplace
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import (
    MPIOpInstance,
    ProcessTimeline,
    remap_timeline,
    total_time_of,
)
from repro.analysis.matching import (
    COLLECTIVE_MEMBER_BYTES,
    PAIR_METADATA_BYTES,
    CollectiveInstance,
    MatchedPair,
    MatchStats,
)
from repro.analysis.patterns import (
    COLLECTIVE,
    COMMUNICATION,
    IDLE_THREADS,
    MPI,
    P2P,
    SYNCHRONIZATION,
    TIME,
    default_collective_patterns,
    default_p2p_patterns,
)
from repro.analysis.patterns.base import classify_region
from repro.analysis.patterns.grid import (
    GridPairBreakdown,
    accumulate_collective,
    accumulate_p2p,
)
from repro.analysis.optable import OpTable
from repro.analysis.parallel import (
    PartialAnalysis,
    ShardTask,
    _admit_rank,
    analyze_shard,
    plan_shards,
)
from repro.analysis.replay import (
    AnalysisResult,
    RankCompleteness,
    ReplayTraffic,
)
from repro.analysis.severity import SeverityCube
from repro.analysis.severity_timeline import (
    SeverityTimeline,
    record_collective_hits,
    record_p2p_hits,
)
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import AnalysisError, TimeBudgetExceeded
from repro.ids import NodeId, node_of
from repro.resilience.deadline import Deadline
from repro.resilience.pool import ExecutionReport, PoolConfig, SupervisedPool
from repro.trace.archive import ArchiveReader, Definitions, TraceShard

#: A point-to-point channel: (sender rank, receiver rank, tag, communicator).
ChannelKey = Tuple[int, int, int, int]

#: Completed MPI ops per pump step: the scheduling quantum, and the
#: deadline's poll interval.  Large enough that heap traffic and the
#: per-quantum column slicing vanish next to matching; small enough that the
#: in-flight matching window — and the op objects alive at once — stay a
#: sliver of a short trace.
_QUANTUM_OPS = 32

#: Structural metrics an MPI op's duration is charged to, by region class.
_BASE_METRICS = {
    P2P: (MPI, COMMUNICATION, P2P),
    COLLECTIVE: (MPI, COMMUNICATION, COLLECTIVE),
    SYNCHRONIZATION: (MPI, SYNCHRONIZATION),
    None: (MPI,),
}


class _ReceiverReleases:
    """Per-receiver reorder buffer: pairs leave in receive trace order.

    Each receive record gets a sequence number when its op completes (the
    pump delivers a rank's ops in trace order, so assignment order *is*
    receive trace order).  A completed pair parks under its sequence until
    every earlier receive of that receiver is resolved — matched and
    released, or voided (unmatched in degraded mode).  The buffer holds at
    most the in-flight matching window.
    """

    __slots__ = ("assign", "release", "parked")

    def __init__(self) -> None:
        self.assign = 0
        self.release = 0
        #: seq → MatchedPair, or None for a voided (unmatched) receive.
        self.parked: Dict[int, Optional[MatchedPair]] = {}

    def next_seq(self) -> int:
        seq = self.assign
        self.assign += 1
        return seq

    def resolve(self, seq: int, pair: Optional[MatchedPair]) -> List[MatchedPair]:
        """Park one outcome; return every pair that becomes releasable."""
        self.parked[seq] = pair
        out: List[MatchedPair] = []
        while self.release in self.parked:
            released = self.parked.pop(self.release)
            self.release += 1
            if released is not None:
                out.append(released)
        return out


class _CollectiveGroup:
    """One in-flight collective instance, accumulating members as they exit."""

    __slots__ = ("region", "members", "locations", "order", "expected")

    def __init__(self, region: int, order, expected: Optional[int]) -> None:
        self.region = region
        self.members: Dict[int, tuple] = {}
        self.locations: Dict[int, object] = {}
        #: Full communicator rank order (None when unknown to the archive).
        self.order = order
        #: Analyzed member count that completes the instance (None: unknown
        #: communicator, only end-of-stream flush can close it).
        self.expected = expected


class StreamingReplayAnalyzer:
    """The replay analyzer: local phase, call-path numbering, one pump.

    Constructor contract mirrors :class:`~repro.analysis.replay.ReplayAnalyzer`
    (readers keyed by machine, optional scheme, degraded flag) plus:

    ``retain=False``
        bounded-memory mode — the op tables are dropped once the pump has
        consumed them, and ``timelines[rank].mpi_ops`` / ``omp_regions``
        come back empty.  Aggregates are unaffected.
    ``timeline``
        a :class:`~repro.analysis.severity_timeline.SeverityTimeline` to
        accumulate time-resolved severity into (None: skip).
    ``deadline``
        a :class:`~repro.resilience.deadline.Deadline`.  A pool run is cut
        by the :class:`~repro.resilience.pool.SupervisedPool` (in-flight
        workers killed, settled shards salvaged); the pump polls it after
        every quantum (:data:`_QUANTUM_OPS` completed ops).  Either way
        stragglers settle degraded-style and the result carries the
        severity accumulated so far with honest per-rank completeness and
        ``result.interrupted`` set — never a hang, never a crash.
    ``jobs``
        where the local phase runs, and nothing else: ``1`` in this
        process, one rank's blob in memory at a time; ``N >= 2`` as
        :func:`~repro.analysis.parallel.analyze_shard` tasks over at most
        *N* shards on a supervised pool.
    ``pool`` / ``pool_config``
        the pool for ``jobs >= 2``: an externally owned (usually
        persistent) one whose task function is ``analyze_shard`` and whose
        worker count and lifetime stay its owner's, or the configuration
        this run builds its own from.
    ``timeout`` / ``max_retries``
        per-run overrides of the pool's per-shard budget, either way.
    """

    def __init__(
        self,
        readers: Dict[int, ArchiveReader],
        scheme: Optional[SyncScheme] = None,
        degraded: bool = False,
        retain: bool = True,
        timeline: Optional[SeverityTimeline] = None,
        deadline: Optional[Deadline] = None,
        jobs: int = 1,
        pool: Optional[SupervisedPool] = None,
        pool_config: Optional[PoolConfig] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> None:
        if not readers:
            raise AnalysisError("no archive readers supplied")
        if jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {jobs}")
        self.readers = dict(readers)
        self.degraded = degraded
        if scheme is None:
            scheme = HierarchicalInterpolation(strict=not degraded)
        self.scheme = scheme
        self.retain = retain
        self.timeline = timeline
        self.deadline = deadline
        self.jobs = jobs
        self.pool = pool
        self.pool_config = pool_config or PoolConfig()
        self.timeout = timeout
        self.max_retries = max_retries

    # -- the pass --------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        first_reader = next(iter(self.readers.values()))
        definitions = first_reader.definitions()
        converters = self.scheme.convert_all(first_reader.sync_data()).converters
        degraded = self.degraded
        ranks = sorted(definitions.locations)

        # The local phase: admit each rank through its own metahost's reader
        # and build the admitted ranks' op tables.  It finishes before the
        # pump feeds the shared matcher, so a structurally inconsistent rank
        # is excluded (or, strict, raises) with nothing accumulated for it.
        # Either branch leaves the call paths numbered rank-major in first-
        # encounter order — the buffered analyzer's numbering, exactly.
        # *local* collects it for the whole world.
        local = PartialAnalysis(index=0, ranks=tuple(ranks))
        callpaths = local.callpaths
        timelines = local.timelines
        trace_bytes = local.trace_bytes
        completeness = local.completeness
        interrupted: Optional[str] = None
        execution = None
        if self.jobs == 1:
            # One registry shared by all ranks is that numbering as it stands:
            # the local phase interns nothing for a rank it rejects.  One
            # rank's blob is in memory at a time.
            for rank in ranks:
                local.admit(
                    rank,
                    definitions,
                    TraceShard.gather((rank,), definitions, self.readers),
                    converters,
                    degraded,
                )
        else:
            partials, execution, interrupted = self._run_shards(
                ranks, definitions, converters
            )
            # Shards are contiguous ascending rank slices, so absorbing each
            # shard's registry in shard order, before anything is fed, is
            # the same numbering.
            for partial in partials:
                for category, message in partial.warnings:
                    warnings.warn(message, category, stacklevel=2)
                remap = callpaths.absorb(partial.callpaths)
                for rank, timeline in sorted(partial.timelines.items()):
                    remap_timeline(timeline, remap)
                    timelines[rank] = timeline
                trace_bytes.update(sorted(partial.trace_bytes.items()))
                completeness.update(sorted(partial.completeness.items()))

        state = _StreamState(
            definitions=definitions,
            analyzed=set(timelines),
            degraded=degraded,
            timeline=self.timeline,
        )

        # The pump: a heap holding each admitted rank's next op index, keyed
        # by that op's synchronized enter stamp.  (stamp, rank) is unique —
        # one cursor per rank — so heapq never compares further.  The budget
        # is polled after every quantum, so one that is already spent when
        # the pump starts — the pool run above was cut, or the local phase
        # used it up — still costs one quantum.
        feeds = {rank: state.attach(timeline) for rank, timeline in timelines.items()}
        heap = [
            (
                float(timeline.mpi_ops.enter[0]) if len(timeline.mpi_ops)
                else timeline.first_time,
                rank,
                0,
            )
            for rank, timeline in timelines.items()
        ]
        heapify(heap)
        deadline = self.deadline
        pumped: Dict[int, int] = dict.fromkeys(timelines, 0)
        while heap:
            _, rank, lo = heap[0]
            ops = timelines[rank].mpi_ops
            hi = min(lo + _QUANTUM_OPS, len(ops))
            pumped[rank] = feeds[rank](lo, hi)
            if hi == len(ops):
                heappop(heap)
            else:
                heapreplace(heap, (float(ops.enter[hi]), rank, hi))
            if interrupted is None and deadline is not None:
                interrupted = deadline.reason()
            if interrupted is not None:
                break

        state.finish_stream(interrupted=interrupted is not None)

        if interrupted is not None:
            completeness = self._interrupted_completeness(
                interrupted, ranks, timelines, pumped, completeness
            )
        if not self.retain:
            for timeline in timelines.values():
                timeline.mpi_ops, timeline.omp_regions = [], []
        result = state.result(
            callpaths,
            timelines,
            trace_bytes,
            completeness,
            self.scheme.name,
            interrupted,
        )
        result.execution = execution
        return result

    def _run_shards(
        self,
        ranks: List[int],
        definitions: Definitions,
        converters: Dict[NodeId, Optional[LinearConverter]],
    ) -> Tuple[List[PartialAnalysis], ExecutionReport, Optional[str]]:
        """The local phase on the supervised pool, one task per shard.

        Returns the settled shards' partials in shard order, the pool's
        report, and why the run was cut short (None: it was not).
        """
        machine_of = {rank: definitions.machine_of(rank) for rank in ranks}
        tasks = [
            ShardTask(
                index=index,
                ranks=shard,
                degraded=self.degraded,
                definitions=definitions,
                converters={
                    node: converters.get(node)
                    for node in sorted(
                        {node_of(definitions.locations[rank]) for rank in shard}
                    )
                },
                # Each rank's blob comes through its own metahost's reader.
                traces=TraceShard.gather(shard, definitions, self.readers),
            )
            for index, shard in enumerate(plan_shards(ranks, machine_of, self.jobs))
        ]
        if not self.degraded:
            # Strict pre-check, rank-ascending in the parent: a broken
            # experiment fails with the very same error — same rank, same
            # message — as ``jobs=1``, before any worker is spawned.
            for task in tasks:
                for rank in task.ranks:
                    _admit_rank(
                        rank, definitions, task.traces, task.converters, False, {}
                    )
        # The supervised pool keeps the in-process semantics — results in
        # shard order, the lowest-ranked shard's exception wins — while
        # surviving worker crashes, hangs, and kills that would deadlock a
        # bare Pool.map forever.
        pool = self.pool
        if pool is None:
            pool = SupervisedPool(
                analyze_shard,
                self.pool_config.with_workers(min(self.jobs, len(tasks))),
            )
        try:
            partials, execution = pool.run(
                tasks,
                timeout_s=self.timeout,
                max_retries=self.max_retries,
                deadline=self.deadline,
            )
        except TimeBudgetExceeded as exc:
            if not exc.results:
                # Nothing settled before the budget ran out: there is no
                # partial result to salvage, so the budget error stands.
                raise
            # Shards that never settled look exactly like excluded ranks:
            # boundary receives void, collectives tolerate missing members.
            return [exc.results[i] for i in sorted(exc.results)], exc.report, exc.reason
        return partials, execution, None

    @staticmethod
    def _interrupted_completeness(
        reason: str,
        ranks: List[int],
        timelines: Dict[int, ProcessTimeline],
        pumped: Dict[int, int],
        completeness: Dict[int, RankCompleteness],
    ) -> Dict[int, RankCompleteness]:
        """Honest per-rank accounting for a run the budget cut short.

        Every analyzed rank reports the events the replay actually consumed
        and the fraction of its trace that represents (the local phase
        counted them, so nothing is decoded again after the budget is
        gone).  A rank with neither a timeline nor an exclusion record was
        never admitted: its shard had not settled when the pool run was
        cut.  The error string names the budget so the partial result can
        never be mistaken for a complete one.
        """
        out = dict(completeness)
        for rank in ranks:
            if rank in timelines:
                consumed = pumped[rank]
                total = timelines[rank].event_count
                out[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=consumed / total if total else 0.0,
                    events=consumed,
                    analyzed=True,
                    error=(
                        f"TimeBudgetExceeded: {reason} after {consumed} of "
                        f"{total} event(s)"
                    ),
                )
            elif rank not in completeness:
                out[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=0.0,
                    events=0,
                    analyzed=False,
                    error=f"TimeBudgetExceeded: {reason} before its shard finished",
                )
        return out


class _StreamState:
    """Everything the pump accumulates: matcher, patterns, severities.

    The tables it is fed carry global call-path ids, so the cube and the
    timeline are keyed globally from the first contribution.
    """

    def __init__(self, definitions, analyzed, degraded, timeline) -> None:
        if not analyzed:
            raise AnalysisError("no rank produced a usable trace")
        self.definitions = definitions
        self.analyzed = analyzed
        self.degraded = degraded
        self.timeline = timeline
        self.cube = SeverityCube()
        self.grid_pairs = GridPairBreakdown()
        self.checker = ClockConditionChecker()
        self.stats = MatchStats()
        self._p2p_patterns = default_p2p_patterns()
        self._contribution_fns = [p.contributions for p in self._p2p_patterns]
        self._coll_patterns = default_collective_patterns()
        #: rank → its op table, and how many of its ops were fed: the
        #: structural MPI-time metrics are summed per call path from the fed
        #: column slice at finalize, not op by op.
        self._ops: Dict[int, OpTable] = {}
        self._fed: Dict[int, int] = {}
        #: MPI region name → the structural metrics its duration is charged to.
        self._base_metrics: Dict[str, Tuple[str, ...]] = {}
        self._nodes: Dict[int, object] = {}
        #: channel → FIFO of (send op, send record) awaiting their receive.
        self._send_queues: Dict[ChannelKey, Deque[tuple]] = {}
        #: channel → FIFO of (recv op, recv record, seq, op idx, recv idx).
        self._pending_recvs: Dict[ChannelKey, Deque[tuple]] = {}
        self._releases: Dict[int, _ReceiverReleases] = {}
        #: (comm, index) → in-flight group; per-rank per-comm counters.
        self._groups: Dict[Tuple[int, int], _CollectiveGroup] = {}
        self._coll_counters: Dict[int, Dict[int, int]] = {}
        self._comm_order_cache: Dict[int, Optional[Tuple[int, ...]]] = {}

    # -- feeding ---------------------------------------------------------------

    def attach(self, process: ProcessTimeline) -> Callable[[int, int], int]:
        """Register one admitted rank's tables; returns its ``feed(lo, hi)``.

        ``feed`` materializes ops ``[lo, hi)`` from the columns — transient
        objects that live until their matching window closes — runs them
        and the fork-join records up to the same point in the trace through
        the matcher and the patterns, and returns the number of the rank's
        events consumed so far.  Calls must cover the ops in order.
        """
        rank = process.rank
        location = process.location
        ops = process.mpi_ops
        omps = process.omp_regions
        self._nodes[rank] = node_of(location)
        self._releases[rank] = _ReceiverReleases()
        self._coll_counters[rank] = {}
        self._ops[rank] = ops
        self._fed[rank] = 0
        omp_fed = 0

        def feed(lo: int, hi: int) -> int:
            nonlocal omp_fed
            op_idx = lo
            for op in ops.span(lo, hi):
                if self.timeline is not None:
                    self._timeline_base(op)
                for send in op.sends:
                    self._on_send(rank, op, send)
                for recv_idx, recv in enumerate(op.recvs):
                    self._on_recv(rank, op, recv, op_idx, recv_idx)
                if op.coll is not None:
                    self._on_coll(rank, location, op)
                op_idx += 1
            self._fed[rank] = hi
            consumed = (
                process.event_count if hi == len(ops) else int(ops.exit_event[hi - 1]) + 1
            )
            if omp_fed < len(omps):
                upto = int(np.searchsorted(omps.event, consumed))
                for record in omps.span(omp_fed, upto):
                    self._on_fork_join(rank, record)
                omp_fed = upto
            return consumed

        return feed

    def _on_fork_join(self, rank: int, record) -> None:
        idle = record.idle_thread_seconds
        if idle > 0.0:
            self.cube.add(IDLE_THREADS, record.cpid, rank, idle)
            if self.timeline is not None:
                self.timeline.add(
                    IDLE_THREADS, record.cpid, rank, record.enter, record.exit, idle
                )

    def _metrics_of(self, op_name: str) -> Tuple[str, ...]:
        metrics = self._base_metrics.get(op_name)
        if metrics is None:
            metrics = self._base_metrics[op_name] = _BASE_METRICS[classify_region(op_name)]
        return metrics

    def _timeline_base(self, op: MPIOpInstance) -> None:
        duration = op.exit - op.enter
        if duration > 0.0:
            for metric in self._metrics_of(op.op_name):
                self.timeline.add(metric, op.cpid, op.rank, op.enter, op.exit, duration)

    # -- point-to-point --------------------------------------------------------

    def _on_send(self, rank: int, op: MPIOpInstance, send) -> None:
        if self.degraded and send.dest not in self.analyzed:
            # Receiver excluded: the buffered analyzer leaves this send in
            # its queue and counts it at the end; count it now.
            self.stats.unmatched_sends += 1
            return
        key: ChannelKey = (rank, send.dest, send.tag, send.comm)
        pending = self._pending_recvs.get(key)
        if pending:
            recv_op, recv, seq, _op_idx, _recv_idx = pending.popleft()
            self._complete_pair(rank, op, send, send.dest, recv_op, recv, seq)
            return
        queue = self._send_queues.get(key)
        if queue is None:
            self._send_queues[key] = queue = deque()
        queue.append((op, send))

    def _on_recv(
        self, rank: int, op: MPIOpInstance, recv, op_idx: int, recv_idx: int
    ) -> None:
        releases = self._releases[rank]
        seq = releases.next_seq()
        if self.degraded and recv.source not in self.analyzed:
            # Sender excluded: unmatched by construction.  (In strict mode
            # an unknown source must instead reach the starved-receive
            # error at end of stream, as the buffered analyzer raises.)
            self.stats.unmatched_recvs += 1
            self._release(rank, releases.resolve(seq, None))
            return
        key: ChannelKey = (recv.source, rank, recv.tag, recv.comm)
        queue = self._send_queues.get(key)
        if queue:
            send_op, send = queue.popleft()
            self._complete_pair(recv.source, send_op, send, rank, op, recv, seq)
            return
        pending = self._pending_recvs.get(key)
        if pending is None:
            self._pending_recvs[key] = pending = deque()
        pending.append((op, recv, seq, op_idx, recv_idx))

    def _complete_pair(
        self, sender: int, send_op, send, receiver: int, recv_op, recv, seq: int
    ) -> None:
        self.stats.matched += 1
        pair = MatchedPair(
            sender,
            self.definitions.locations[sender],
            send_op,
            send,
            receiver,
            self.definitions.locations[receiver],
            recv_op,
            recv,
        )
        self._release(receiver, self._releases[receiver].resolve(seq, pair))

    def _release(self, receiver: int, pairs: List[MatchedPair]) -> None:
        """Run released pairs through the patterns, in receive trace order."""
        if not pairs:
            return
        nodes = self._nodes
        stamp_append = self.checker.stamps.append
        cube_add = self.cube.add
        for pair in pairs:
            accumulate_p2p(self.grid_pairs, pair)
            stamp_append(
                MessageStamp(
                    nodes[pair.sender_rank],
                    nodes[pair.receiver_rank],
                    pair.send.time,
                    pair.recv.time,
                )
            )
            for contributions in self._contribution_fns:
                hits = contributions(pair)
                if self.timeline is not None:
                    hits = list(hits)
                    record_p2p_hits(self.timeline, pair, hits)
                for hit in hits:
                    cube_add(hit.metric, hit.cpid, hit.rank, hit.value)

    # -- collectives -----------------------------------------------------------

    def _comm_order(self, comm: int) -> Optional[Tuple[int, ...]]:
        if comm not in self._comm_order_cache:
            entry = self.definitions.communicators.get(comm)
            self._comm_order_cache[comm] = entry[1] if entry is not None else None
        return self._comm_order_cache[comm]

    def _on_coll(self, rank: int, location, op: MPIOpInstance) -> None:
        coll = op.coll
        counters = self._coll_counters[rank]
        index = counters.get(coll.comm, 0)
        counters[coll.comm] = index + 1
        key = (coll.comm, index)
        group = self._groups.get(key)
        if group is None:
            order = self._comm_order(coll.comm)
            expected = (
                sum(1 for r in order if r in self.analyzed)
                if order is not None
                else None
            )
            group = _CollectiveGroup(coll.region, order, expected)
            self._groups[key] = group
        elif group.region != coll.region:
            raise AnalysisError(
                f"collective mismatch on comm {coll.comm} instance {index}: "
                f"rank {rank} recorded region {coll.region}, others "
                f"{group.region}"
            )
        group.members[rank] = (op, coll)
        group.locations[rank] = location
        self.stats.metadata_bytes += COLLECTIVE_MEMBER_BYTES
        if group.expected is not None and len(group.members) == group.expected:
            del self._groups[key]
            self._emit_collective(coll.comm, index, group)

    def _emit_collective(self, comm: int, index: int, group: _CollectiveGroup) -> None:
        # Members in ascending rank order: the serial grouping inserts
        # rank-major, and the grid causer tie-break scans insertion order.
        ranks = sorted(group.members)
        first_op, first_coll = group.members[ranks[0]]
        instance = CollectiveInstance(
            comm=comm,
            index=index,
            region=first_coll.region,
            op_name=first_op.op_name,
            root=first_coll.root,
            comm_order=list(group.order) if group.order is not None else None,
        )
        for rank in ranks:
            instance.members[rank] = group.members[rank]
            instance.locations[rank] = group.locations[rank]
        self.stats.collective_instances += 1
        accumulate_collective(self.grid_pairs, instance)
        cube_add = self.cube.add
        for pattern in self._coll_patterns:
            hits = pattern.contributions(instance)
            if self.timeline is not None:
                hits = list(hits)
                record_collective_hits(self.timeline, instance, hits)
            for hit in hits:
                cube_add(hit.metric, hit.cpid, hit.rank, hit.value)

    # -- end of stream ---------------------------------------------------------

    def finish_stream(self, interrupted: bool = False) -> None:
        """Flush stragglers, settle unmatched accounting, install base metrics.

        In strict mode an unmatched receive reproduces the buffered
        analyzer's error exactly: its first unmatched receive in
        receiver-major replay order, same message.  An *interrupted*
        stream (deadline expiry cut the pump mid-trace) settles
        degraded-style instead: a receive whose send never arrived is
        expected when the sender's trace was only half pumped, so it is
        voided and counted, never raised.
        """
        settle_unmatched = self.degraded or interrupted
        starved: List[Tuple[int, int, int, ChannelKey]] = []
        for key, pending in self._pending_recvs.items():
            if not pending:
                continue
            if not settle_unmatched:
                _op, _recv, _seq, op_idx, recv_idx = pending[0]
                starved.append((key[1], op_idx, recv_idx, key))
                continue
            releases = self._releases[key[1]]
            for _op, _recv, seq, _op_idx, _recv_idx in pending:
                self.stats.unmatched_recvs += 1
                self._release(key[1], releases.resolve(seq, None))
        if starved:
            _rank, _op_idx, _recv_idx, key = min(starved)
            raise AnalysisError(
                f"rank {key[1]}: RECV from {key[0]} "
                f"(tag {key[2]}, comm {key[3]}) has no matching SEND"
            )
        self.stats.unmatched_sends += sum(
            len(queue) for queue in self._send_queues.values()
        )
        self.stats.metadata_bytes += self.stats.matched * PAIR_METADATA_BYTES
        for key in sorted(self._groups):
            self._emit_collective(key[0], key[1], self._groups[key])
        self._groups.clear()
        add_expansion = self.cube.add_expansion
        for rank, ops in self._ops.items():
            for cpid, region, partials in ops.base_cells(self._fed[rank]):
                for metric in self._metrics_of(ops.names[region]):
                    add_expansion(metric, cpid, rank, partials)

    def result(
        self,
        callpaths: CallPathRegistry,
        timelines: Dict[int, ProcessTimeline],
        trace_bytes: Dict[int, int],
        completeness: Dict[int, RankCompleteness],
        scheme_name: str,
        interrupted: Optional[str] = None,
    ) -> AnalysisResult:
        """Assemble the result once the stream is finished."""
        # TIME from per-rank exclusive time.
        cube_add = self.cube.add
        for rank, process in timelines.items():
            for cpid, exclusive in process.exclusive_time.items():
                cube_add(TIME, cpid, rank, exclusive)

        # Both replay engines sort stamps identically at finalize, so stamp
        # lists compare equal across the buffered and streaming paths.
        self.checker.sort_stamps()

        definitions = self.definitions
        master_machine = definitions.machine_of(0)
        merged_copy_bytes = sum(
            size
            for rank, size in trace_bytes.items()
            if definitions.machine_of(rank) != master_machine
        )
        traffic = ReplayTraffic(
            replay_metadata_bytes=self.stats.metadata_bytes,
            merged_copy_bytes=merged_copy_bytes,
            trace_bytes_total=sum(trace_bytes.values()),
        )

        return AnalysisResult(
            cube=self.cube,
            callpaths=callpaths,
            definitions=definitions,
            violations=self.checker,
            traffic=traffic,
            scheme_name=scheme_name,
            total_time=total_time_of(timelines),
            timelines=timelines,
            grid_pairs=self.grid_pairs,
            # An interrupted result is degraded-style by construction:
            # starved receives were voided, not matched.
            degraded=self.degraded or interrupted is not None,
            completeness=completeness,
            severity_timeline=self.timeline,
            interrupted=interrupted,
        )
