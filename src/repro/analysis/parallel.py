"""Process-parallel sharded replay analysis.

The paper's analyzer is *parallel by construction*: every analysis process
reads only the traces local to its own metahost and the replay exchanges
per-event metadata, never whole trace files.  This module reproduces that
execution model with ``multiprocessing`` workers:

* the world is partitioned into contiguous **shards** of ranks, aligned to
  metahost boundaries where possible (:func:`plan_shards`);
* each worker receives a picklable :class:`ShardTask` — raw trace blobs,
  the definitions document, and the clock converters for its shard — and
  performs the *local* phase: streaming decode, call-path interning,
  timeline construction, and per-communicator matching of messages whose
  two endpoints both live in the shard;
* the worker returns a picklable :class:`PartialAnalysis`; sends and
  receives crossing a shard boundary come back as per-channel metadata
  streams (the paper's "only per-event metadata is exchanged");
* a deterministic merge (:func:`merge_partials`) resolves the boundary
  channels, renumbers shard-local call paths into one registry, and
  replays every severity contribution **in the serial analyzer's exact
  accumulation order**, so the merged :class:`AnalysisResult` is
  bit-for-bit identical to :class:`~repro.analysis.replay.ReplayAnalyzer`'s
  — including float summation order inside the severity cube.

``jobs=1`` callers never reach this module; ``analyze_run(..., jobs=N)``
dispatches here for ``N != 1``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace as _replace
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.analysis.instances import (
    ProcessTimeline,
    build_timeline,
    remap_timeline,
    total_time_of,
)
from repro.analysis.matching import (
    PAIR_METADATA_BYTES,
    MatchedPair,
    MessageMatcher,
)
from repro.analysis.patterns import default_collective_patterns, default_p2p_patterns
from repro.analysis.patterns.grid import (
    GridPairBreakdown,
    accumulate_collective,
    accumulate_p2p,
)
from repro.analysis.replay import (
    AnalysisResult,
    RankCompleteness,
    ReplayAnalyzer,
    ReplayTraffic,
)
from repro.analysis.severity import SeverityCube
from repro.analysis.severity_timeline import (
    SeverityTimeline,
    record_base_metrics,
    record_collective_hits,
    record_p2p_hits,
)
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import (
    AnalysisError,
    ArchiveError,
    PartialTraceWarning,
    TimeBudgetExceeded,
)
from repro.ids import NodeId, node_of
from repro.resilience.deadline import Deadline
from repro.resilience.pool import PoolConfig, SupervisedPool
from repro.trace.archive import (
    ArchiveReader,
    Definitions,
    TraceShard,
    salvage_checked,
    trace_filename,
)
from repro.trace.encoding import iter_events

#: A point-to-point channel: (sender rank, receiver rank, tag, communicator).
ChannelKey = Tuple[int, int, int, int]
#: Position of one SEND/RECV record: (index into mpi_ops, index within op).
RecordRef = Tuple[int, int]
#: One matched pair as positions into the merged timelines:
#: (receiver rank, recv op index, recv index, sender rank, send op index,
#: send index).  The first three fields are the serial yield-order key.
PairRef = Tuple[int, int, int, int, int, int]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` argument: None/1 → 1, 0 → all cores, N → N."""
    if jobs is None:
        return 1
    if jobs == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise AnalysisError(f"jobs must be >= 0 or None, got {jobs}")
    return jobs


def plan_shards(
    ranks: Sequence[int], machine_of: Dict[int, int], jobs: int
) -> List[Tuple[int, ...]]:
    """Partition *ranks* (ascending) into ≤ *jobs* contiguous shards.

    Shards are contiguous slices of the ascending rank list — the property
    the deterministic call-path merge relies on — with interior cuts
    snapped to metahost boundaries when one is nearby, so a shard usually
    only needs trace files from a single metahost (the paper's locality
    constraint).
    """
    ordered = sorted(ranks)
    n = len(ordered)
    if jobs < 1:
        raise AnalysisError(f"shard count must be >= 1, got {jobs}")
    jobs = min(jobs, n)
    if jobs <= 1:
        return [tuple(ordered)] if ordered else []
    boundaries = [
        i
        for i in range(1, n)
        if machine_of.get(ordered[i]) != machine_of.get(ordered[i - 1])
    ]
    tolerance = max(1, n // (2 * jobs))
    cuts = [0]
    for k in range(1, jobs):
        ideal = round(k * n / jobs)
        snapped = ideal
        best = tolerance + 1
        for b in boundaries:
            if abs(b - ideal) < best and b > cuts[-1]:
                snapped, best = b, abs(b - ideal)
        if snapped <= cuts[-1]:
            snapped = ideal
        if snapped <= cuts[-1] or snapped >= n:
            continue
        cuts.append(snapped)
    cuts.append(n)
    return [tuple(ordered[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]


@dataclass
class ShardTask:
    """Everything one worker needs, picklable under fork *and* spawn."""

    index: int
    ranks: Tuple[int, ...]
    degraded: bool
    definitions: Definitions
    #: node → affine clock converter (None only in degraded mode).
    converters: Dict[NodeId, Optional[LinearConverter]]
    traces: TraceShard


@dataclass
class PartialAnalysis:
    """One shard's local analysis: picklable, mergeable."""

    index: int
    ranks: Tuple[int, ...]
    callpaths: CallPathRegistry = field(default_factory=CallPathRegistry)
    #: rank → timeline with *shard-local* call-path ids.
    timelines: Dict[int, ProcessTimeline] = field(default_factory=dict)
    trace_bytes: Dict[int, int] = field(default_factory=dict)
    completeness: Dict[int, RankCompleteness] = field(default_factory=dict)
    #: Warnings raised in the worker, re-emitted by the parent in order.
    warnings: List[Tuple[Type[Warning], str]] = field(default_factory=list)
    #: Pairs whose endpoints both live in this shard.
    local_pairs: List[PairRef] = field(default_factory=list)
    #: Cross-shard SEND metadata, per channel, in sender trace order.
    boundary_sends: Dict[ChannelKey, List[RecordRef]] = field(default_factory=dict)
    #: Cross-shard RECV metadata, per channel, in receiver trace order.
    boundary_recvs: Dict[ChannelKey, List[RecordRef]] = field(default_factory=dict)
    #: Unmatched receives on shard-local channels (degraded mode only).
    unmatched_recvs: int = 0
    #: Sends left in shard-local channels after matching.
    unmatched_sends: int = 0


def _load_rank_degraded(
    task: ShardTask, rank: int, partial: PartialAnalysis
) -> Optional[Tuple[int, list]]:
    """Worker-side mirror of :meth:`ReplayAnalyzer._load_degraded`."""

    def exclude(reason: str, fraction: float = 0.0, events: int = 0) -> None:
        partial.completeness[rank] = RankCompleteness(
            rank=rank,
            complete=False,
            completeness=fraction,
            events=events,
            analyzed=False,
            error=reason,
        )
        warnings.warn(
            f"rank {rank} excluded from replay: {reason}", PartialTraceWarning,
            stacklevel=3,
        )

    reason = task.traces.missing.get(rank)
    if reason is not None:
        exclude(reason)
        return None
    blob = task.traces.blobs[rank]
    salvaged = salvage_checked(blob, task.traces.manifests.get(rank))
    if salvaged.rank is not None and salvaged.rank != rank:
        exclude(f"trace file claims rank {salvaged.rank}")
        return None
    if not salvaged.complete:
        exclude(
            salvaged.error,
            fraction=salvaged.completeness,
            events=len(salvaged.events),
        )
        return None
    if not salvaged.balanced:
        exclude(
            f"trace decodes but leaves {salvaged.open_regions} region(s) "
            "open (truncated at a record boundary?)",
            fraction=salvaged.completeness,
            events=len(salvaged.events),
        )
        return None
    partial.completeness[rank] = RankCompleteness(
        rank=rank,
        complete=True,
        completeness=1.0,
        events=len(salvaged.events),
        analyzed=True,
    )
    return len(blob), salvaged.events


def analyze_shard(task: ShardTask) -> PartialAnalysis:
    """The worker: local decode, timelines, and shard-local matching.

    Runs in a subprocess; every warning is captured and carried back in the
    :class:`PartialAnalysis` so the parent can re-emit it (subprocess
    warnings are invisible to the caller's ``warnings`` machinery).
    """
    partial = PartialAnalysis(index=task.index, ranks=task.ranks)
    definitions = task.definitions
    degraded = task.degraded
    callpaths = partial.callpaths
    timelines = partial.timelines

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for rank in task.ranks:
            location = definitions.locations[rank]
            if degraded:
                loaded = _load_rank_degraded(task, rank, partial)
                if loaded is None:
                    continue
                partial.trace_bytes[rank], events = loaded
            else:
                blob = task.traces.blobs[rank]
                file_rank, events = iter_events(blob)
                if file_rank != rank:
                    raise ArchiveError(
                        f"trace file {trace_filename(rank)} claims rank {file_rank}"
                    )
                partial.trace_bytes[rank] = len(blob)
            converter = task.converters.get(node_of(location))
            if converter is None:
                if not degraded:
                    raise AnalysisError(
                        f"no clock converter for node {node_of(location)}"
                    )
                warnings.warn(
                    f"rank {rank}: no clock converter for {node_of(location)}, "
                    "using local time unconverted",
                    PartialTraceWarning,
                    stacklevel=1,
                )
                converter = LinearConverter.identity()
            try:
                timelines[rank] = build_timeline(
                    rank, location, events, converter, callpaths, definitions.regions
                )
            except AnalysisError as exc:
                if not degraded:
                    raise
                partial.trace_bytes.pop(rank, None)
                prior = partial.completeness.get(rank)
                partial.completeness[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=prior.completeness if prior else 0.0,
                    events=prior.events if prior else 0,
                    analyzed=False,
                    error=str(exc),
                )
                warnings.warn(
                    f"rank {rank} excluded from replay: {exc}",
                    PartialTraceWarning,
                    stacklevel=1,
                )
        _match_local(task, partial)
    partial.warnings = [(w.category, str(w.message)) for w in caught]
    return partial


def _match_local(task: ShardTask, partial: PartialAnalysis) -> None:
    """Shard-local FIFO matching; cross-shard records become boundary streams."""
    in_shard = set(task.ranks)
    timelines = partial.timelines
    degraded = task.degraded
    queues: Dict[ChannelKey, List[RecordRef]] = {}
    heads: Dict[ChannelKey, int] = {}
    boundary_sends = partial.boundary_sends
    for rank in sorted(timelines):
        for op_idx, op in enumerate(timelines[rank].mpi_ops):
            for send_idx, send in enumerate(op.sends):
                key = (rank, send.dest, send.tag, send.comm)
                target = queues if send.dest in in_shard else boundary_sends
                target.setdefault(key, []).append((op_idx, send_idx))

    local_pairs = partial.local_pairs
    boundary_recvs = partial.boundary_recvs
    for rank in sorted(timelines):
        for op_idx, op in enumerate(timelines[rank].mpi_ops):
            for recv_idx, recv in enumerate(op.recvs):
                source = recv.source
                key = (source, rank, recv.tag, recv.comm)
                if source not in in_shard:
                    boundary_recvs.setdefault(key, []).append((op_idx, recv_idx))
                    continue
                queue = queues.get(key)
                head = heads.get(key, 0)
                if queue is None or head >= len(queue):
                    partial.unmatched_recvs += 1
                    if degraded:
                        continue
                    raise AnalysisError(
                        f"rank {rank}: RECV from {source} "
                        f"(tag {recv.tag}, comm {recv.comm}) has no matching SEND"
                    )
                heads[key] = head + 1
                s_op_idx, s_send_idx = queue[head]
                local_pairs.append(
                    (rank, op_idx, recv_idx, source, s_op_idx, s_send_idx)
                )
    partial.unmatched_sends = sum(
        len(queue) - heads.get(key, 0) for key, queue in queues.items()
    )


def _first_unmatched(
    recvs: List[RecordRef], matched: int, key: ChannelKey
) -> Tuple[int, int, int, ChannelKey]:
    """Sort key of the first unmatched receive on one boundary channel."""
    op_idx, recv_idx = recvs[matched]
    return (key[1], op_idx, recv_idx, key)


def merge_partials(
    partials: List[PartialAnalysis],
    definitions: Definitions,
    scheme_name: str,
    degraded: bool,
    timeline: Optional[SeverityTimeline] = None,
) -> AnalysisResult:
    """Deterministically combine shard results into one analysis.

    Reproduces the serial analyzer exactly: call paths are renumbered in
    first-encounter-by-rank order, boundary channels are FIFO-matched, and
    every severity contribution is applied in the serial iteration order
    (receiver rank, op, receive) so float accumulation — and therefore the
    rendered output — is bit-identical to ``jobs=1``.

    *timeline*, when given, additionally accumulates the time-resolved
    severity series here in the merge (the only place the full matched
    pairs and collective instances exist again); call-path ids are already
    global at this point, so no remap is needed.
    """
    partials = sorted(partials, key=lambda p: p.index)
    for partial in partials:
        for category, message in partial.warnings:
            warnings.warn(message, category, stacklevel=2)

    # Call-path renumbering.  Shards are contiguous ascending rank slices,
    # so interning each shard's paths in local-creation order reproduces the
    # serial registry's first-encounter order exactly.
    callpaths = CallPathRegistry()
    timelines: Dict[int, ProcessTimeline] = {}
    trace_bytes: Dict[int, int] = {}
    completeness: Dict[int, RankCompleteness] = {}
    for partial in partials:
        remap = {ROOT_PATH: ROOT_PATH}
        for path in partial.callpaths.all_paths():
            remap[path.cpid] = callpaths.intern(remap[path.parent], path.region)
        for rank in sorted(partial.timelines):
            shard_timeline = partial.timelines[rank]
            remap_timeline(shard_timeline, remap)
            timelines[rank] = shard_timeline
        trace_bytes.update(sorted(partial.trace_bytes.items()))
        completeness.update(sorted(partial.completeness.items()))

    if not timelines:
        raise AnalysisError("no rank produced a usable trace")

    cube = SeverityCube()
    ReplayAnalyzer._base_metrics(cube, timelines)
    if timeline is not None:
        record_base_metrics(timeline, timelines)

    # Boundary exchange: FIFO-match the cross-shard channels.
    boundary_sends: Dict[ChannelKey, List[RecordRef]] = {}
    boundary_recvs: Dict[ChannelKey, List[RecordRef]] = {}
    for partial in partials:
        boundary_sends.update(partial.boundary_sends)
        boundary_recvs.update(partial.boundary_recvs)
    pairs: List[PairRef] = []
    unmatched_recvs = sum(p.unmatched_recvs for p in partials)
    unmatched_sends = sum(p.unmatched_sends for p in partials)
    starved: List[Tuple[int, int, int, ChannelKey]] = []
    for key, recvs in boundary_recvs.items():
        sender, receiver = key[0], key[1]
        sends = boundary_sends.get(key, [])
        matched = min(len(sends), len(recvs))
        for (r_op, r_recv), (s_op, s_send) in zip(recvs, sends):
            pairs.append((receiver, r_op, r_recv, sender, s_op, s_send))
        if len(recvs) > matched:
            unmatched_recvs += len(recvs) - matched
            starved.append(_first_unmatched(recvs, matched, key))
    if starved and not degraded:
        # Serial raises at the first unmatched receive in replay order.
        _rank, _op, _recv, key = min(starved)
        raise AnalysisError(
            f"rank {key[1]}: RECV from {key[0]} "
            f"(tag {key[2]}, comm {key[3]}) has no matching SEND"
        )
    for key, sends in boundary_sends.items():
        consumed = min(len(sends), len(boundary_recvs.get(key, ())))
        unmatched_sends += len(sends) - consumed
    for partial in partials:
        pairs.extend(partial.local_pairs)
    pairs.sort()

    # Severity replay in exact serial order.
    checker = ClockConditionChecker()
    grid_pairs = GridPairBreakdown()
    p2p_patterns = default_p2p_patterns()
    nodes = {rank: node_of(tl.location) for rank, tl in timelines.items()}
    stamp_append = checker.stamps.append
    cube_add = cube.add
    contribution_fns = [p.contributions for p in p2p_patterns]
    for receiver, r_op_idx, recv_idx, sender, s_op_idx, send_idx in pairs:
        recv_op = timelines[receiver].mpi_ops[r_op_idx]
        send_op = timelines[sender].mpi_ops[s_op_idx]
        pair = MatchedPair(
            sender,
            timelines[sender].location,
            send_op,
            send_op.sends[send_idx],
            receiver,
            timelines[receiver].location,
            recv_op,
            recv_op.recvs[recv_idx],
        )
        accumulate_p2p(grid_pairs, pair)
        stamp_append(
            MessageStamp(
                nodes[pair.sender_rank],
                nodes[pair.receiver_rank],
                pair.send.time,
                pair.recv.time,
            )
        )
        for contributions in contribution_fns:
            hits = contributions(pair)
            if timeline is not None:
                record_p2p_hits(timeline, pair, hits)
            for hit in hits:
                cube_add(hit.metric, hit.cpid, hit.rank, hit.value)

    # Collectives span shards by nature; group them over the merged
    # timelines exactly as the serial matcher does.
    def comm_order(cid: int) -> Optional[Tuple[int, ...]]:
        entry = definitions.communicators.get(cid)
        return entry[1] if entry is not None else None

    matcher = MessageMatcher(
        timelines, comm_lookup=comm_order, allow_unmatched=degraded
    )
    coll_patterns = default_collective_patterns()
    for instance in matcher.collective_instances():
        accumulate_collective(grid_pairs, instance)
        for pattern in coll_patterns:
            hits = pattern.contributions(instance)
            if timeline is not None:
                record_collective_hits(timeline, instance, hits)
            for hit in hits:
                cube.add(hit.metric, hit.cpid, hit.rank, hit.value)
    matcher.stats.matched = len(pairs)
    matcher.stats.unmatched_recvs = unmatched_recvs
    matcher.stats.unmatched_sends = unmatched_sends
    matcher.stats.metadata_bytes += len(pairs) * PAIR_METADATA_BYTES

    # Every analyzer (buffered, streaming, parallel merge) sorts stamps
    # at finalize, so stamp lists compare equal across execution models.
    checker.sort_stamps()

    master_machine = definitions.machine_of(0)
    merged_copy_bytes = sum(
        size
        for rank, size in trace_bytes.items()
        if definitions.machine_of(rank) != master_machine
    )
    traffic = ReplayTraffic(
        replay_metadata_bytes=matcher.stats.metadata_bytes,
        merged_copy_bytes=merged_copy_bytes,
        trace_bytes_total=sum(trace_bytes.values()),
    )

    return AnalysisResult(
        cube=cube,
        callpaths=callpaths,
        definitions=definitions,
        violations=checker,
        traffic=traffic,
        scheme_name=scheme_name,
        total_time=total_time_of(timelines),
        timelines=timelines,
        grid_pairs=grid_pairs,
        degraded=degraded,
        completeness=completeness,
        severity_timeline=timeline,
    )


class ParallelReplayAnalyzer:
    """Drives one sharded analysis over per-metahost archive readers.

    Mirrors :class:`~repro.analysis.replay.ReplayAnalyzer`'s constructor
    contract (readers keyed by machine, optional scheme, degraded flag)
    plus ``jobs``; ``analyze()`` returns a result bit-identical to the
    serial analyzer's.
    """

    def __init__(
        self,
        readers: Dict[int, ArchiveReader],
        scheme: Optional[SyncScheme] = None,
        degraded: bool = False,
        jobs: int = 2,
        pool_config: Optional[PoolConfig] = None,
        pool: Optional[SupervisedPool] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        timeline: Optional[SeverityTimeline] = None,
        deadline: Optional[Deadline] = None,
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
        self.jobs = jobs
        # ``pool`` is an externally owned (usually persistent) worker pool
        # shared across many analyses — the serving-layer configuration.
        # Its task function must be :func:`analyze_shard`.  ``timeout`` and
        # ``max_retries`` then travel as per-run overrides; without a shared
        # pool they are folded into this analyzer's own pool config.
        self.pool = pool
        self.timeout = timeout
        self.max_retries = max_retries
        # End-to-end budget: per-shard pool budgets derive from what is
        # left of it, and an expiry mid-run merges the settled shards into
        # a degraded-style partial result instead of raising.
        self.deadline = deadline
        # Filled by the merge (where the matched pairs exist again).
        self.timeline = timeline
        config = pool_config or PoolConfig()
        if pool is None:
            if timeout is not None:
                config = _replace(config, timeout_s=float(timeout))
            if max_retries is not None:
                config = _replace(config, max_retries=int(max_retries))
        self.pool_config = config

    # -- task construction -----------------------------------------------------

    def _precheck(
        self,
        definitions: Definitions,
        converters: Dict[NodeId, Optional[LinearConverter]],
    ) -> None:
        """Strict-mode per-rank checks, in the serial analyzer's exact order.

        Runs in the parent so a broken experiment fails with the very same
        error — same rank, same message — as ``jobs=1``, before any worker
        is spawned.
        """
        for rank in sorted(definitions.locations):
            location = definitions.locations[rank]
            reader = self.readers.get(location.machine)
            if reader is None:
                raise AnalysisError(
                    f"no archive reader for machine {location.machine} "
                    f"(rank {rank} lives there)"
                )
            if not reader.has_trace(rank):
                raise AnalysisError(
                    f"rank {rank}'s trace is not visible on its own metahost "
                    f"({trace_filename(rank)} missing)"
                )
            if converters.get(node_of(location)) is None:
                raise AnalysisError(
                    f"no clock converter for node {node_of(location)}"
                )

    def _shard_task(
        self,
        index: int,
        ranks: Tuple[int, ...],
        definitions: Definitions,
        converters: Dict[NodeId, Optional[LinearConverter]],
    ) -> ShardTask:
        """Collect one shard's blobs through its ranks' own metahost readers."""
        shard = TraceShard(ranks=ranks)
        by_machine: Dict[int, List[int]] = {}
        for rank in ranks:
            by_machine.setdefault(definitions.machine_of(rank), []).append(rank)
        for machine in sorted(by_machine):
            machine_ranks = by_machine[machine]
            reader = self.readers.get(machine)
            if reader is None:
                for rank in machine_ranks:
                    shard.missing[rank] = "no archive reader for its metahost"
                continue
            snapshot = reader.shard_snapshot(machine_ranks)
            shard.blobs.update(snapshot.blobs)
            shard.missing.update(snapshot.missing)
            shard.manifests.update(snapshot.manifests)
        shard_converters = {
            node: converters.get(node)
            for node in sorted({node_of(definitions.locations[rank]) for rank in ranks})
        }
        return ShardTask(
            index=index,
            ranks=ranks,
            degraded=self.degraded,
            definitions=definitions,
            converters=shard_converters,
            traces=shard,
        )

    # -- execution -------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        first_reader = next(iter(self.readers.values()))
        definitions = first_reader.definitions()
        sync_data = first_reader.sync_data()
        synchronized = self.scheme.convert_all(sync_data)
        if not self.degraded:
            self._precheck(definitions, synchronized.converters)

        ranks = sorted(definitions.locations)
        machine_of = {rank: loc.machine for rank, loc in definitions.locations.items()}
        shards = plan_shards(ranks, machine_of, self.jobs)
        tasks = [
            self._shard_task(index, shard, definitions, synchronized.converters)
            for index, shard in enumerate(shards)
        ]

        interrupted: Optional[str] = None
        execution = None
        if len(tasks) <= 1:
            partials = []
            for task in tasks:
                if self.deadline is not None:
                    interrupted = self.deadline.reason()
                    if interrupted is not None:
                        break
                partials.append(analyze_shard(task))
        elif self.pool is not None:
            # A shared (warm, externally owned) pool: the owner controls
            # worker count and lifetime; this run only overrides budgets.
            try:
                partials, execution = self.pool.run(
                    tasks,
                    timeout_s=self.timeout,
                    max_retries=self.max_retries,
                    deadline=self.deadline,
                )
            except TimeBudgetExceeded as exc:
                interrupted = exc.reason
                partials = [exc.results[i] for i in sorted(exc.results)]
                execution = exc.report
        else:
            # The supervised pool keeps the serial analyzer's semantics —
            # results in shard order, the lowest-ranked shard's exception
            # wins — while surviving worker crashes, hangs, and kills that
            # would deadlock a bare Pool.map forever.
            pool = SupervisedPool(
                analyze_shard,
                self.pool_config.with_workers(min(self.jobs, len(tasks))),
            )
            try:
                partials, execution = pool.run(tasks, deadline=self.deadline)
            except TimeBudgetExceeded as exc:
                interrupted = exc.reason
                partials = [exc.results[i] for i in sorted(exc.results)]
                execution = exc.report

        if interrupted is not None and not partials:
            # Nothing settled before the budget ran out: there is no
            # partial result to salvage, so the budget error stands.
            raise TimeBudgetExceeded(interrupted, report=execution)

        # An interrupted merge is degraded-style by construction: shards
        # that never settled look exactly like excluded ranks (boundary
        # receives must void, collectives tolerate missing members).
        result = merge_partials(
            partials,
            definitions,
            self.scheme.name,
            self.degraded or interrupted is not None,
            timeline=self.timeline,
        )
        if interrupted is not None:
            settled = {rank for partial in partials for rank in partial.ranks}
            for rank in ranks:
                if rank not in settled:
                    result.completeness[rank] = RankCompleteness(
                        rank=rank,
                        complete=False,
                        completeness=0.0,
                        events=0,
                        analyzed=False,
                        error=(
                            f"TimeBudgetExceeded: {interrupted} before its "
                            "shard finished"
                        ),
                    )
            result.interrupted = interrupted
        result.execution = execution
        return result
