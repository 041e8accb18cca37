"""The replay analyzer: one driver — local phase, then columnar global phase.

There are two replay engines.  The buffered
:class:`~repro.analysis.replay.ReplayAnalyzer` — kept as the independent,
object-wise reference the tests and the benchmark compare against —
materializes every rank's MPI-op instances, then matches, then searches
patterns.  This module is the other one, and the only driver the package
runs: :func:`analyze` (re-exported as :func:`repro.analyze` and
:func:`repro.api.analyze`) builds :class:`StreamingReplayAnalyzer`, the
same code path at every ``jobs`` value, which makes no object per op,
record, pair or collective.  The reference imports this engine's result
types (:mod:`repro.analysis.result`); the engine never imports it.

The replay has three steps.

1. The **local phase** is a pure function of each trace file: every rank's
   blob is admitted and becomes op tables — numpy columns built by array
   passes (:mod:`repro.analysis.optable`) — in batches of contiguous ranks
   holding about :data:`~repro.analysis.parallel._BATCH_BYTES` of trace,
   one walk of the record grammar and one set of passes per batch
   (:meth:`~repro.analysis.parallel.PartialAnalysis.admit`).  ``jobs``
   says only *where* it runs: in this process over one shared call-path
   registry, or as :func:`~repro.analysis.parallel.analyze_shard` tasks on
   a supervised pool.
2. **Call-path numbering**: shard-local registries are absorbed in
   ascending shard order, so either way call paths are numbered rank-major
   in first-encounter order — the buffered analyzer's numbering — before
   anything is evaluated, and the cube and the timeline are keyed globally
   from the first contribution.
3. The **columnar global phase** (:mod:`repro.analysis.globalphase`) then
   evaluates everything over the admitted ranks' whole tables in array
   passes: FIFO matching as one sort, the pattern catalogue as ufuncs and
   ``reduceat`` passes over pair and member columns, severities as exact
   per-cell sums.  It runs once and is never cut.

What a retained result keeps is the tables (``ProcessTimeline.mpi_ops`` is
a lazy sequence over them); a bounded one drops them once the global phase
has read them.

The result is a function of the admitted ranks' tables, never of how they
were batched or sharded: the replay needs local order plus message matching,
not a global event order.  Bit-identity with the buffered analyzer (strict
and degraded, every ``jobs`` value, dict orders included) rests on:

* **exact order-free sums** — the severity cube and the grid breakdown
  hold Shewchuk expansions (:mod:`repro.analysis.severity`); a cell's hits
  are summed exactly in one pass, which is the value one ``add`` per hit
  reaches in any order;
* **pairs in receive order** — matched pairs are evaluated receiver-major
  in receive trace order, the buffered feed order, which is what the one
  stateful pattern (Wrong Order, keyed per receiver and communicator) and
  the first-encounter order of every cell depend on;
* **members in rank order** — collective instances are taken by
  ``(comm, index)`` with members in ascending rank order, reproducing the
  buffered causer tie-break and the lowest-rank member's say on region and
  root;
* **global call-path ids** — see step 2.

The clock-condition checker holds the matched messages as columns in one
canonical order, so its ``stamps`` compare equal across engines.  The
``SeverityTimeline``'s bins are plain float sums, documented as last-ulp
diagnostics.

A deadline stops the local phase between whole ranks, at every ``jobs``:
in this process it is polled after every batch, and a pool run is cut by
the supervised pool (in-flight workers killed, settled shards salvaged).
Every admitted rank is analyzed whole and the global phase runs once over
the admitted ranks, so a rank the budget left unadmitted is missing the
way an excluded one is.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

from repro.analysis.globalphase import global_phase
from repro.analysis.instances import ProcessTimeline, remap_timeline, total_time_of
from repro.analysis.parallel import (
    PartialAnalysis,
    ShardTask,
    _admit_rank,
    analyze_shard,
    plan_shards,
    resolve_jobs,
)
from repro.analysis.patterns.base import TIME
from repro.analysis.request import AnalysisRequest
from repro.analysis.result import AnalysisResult, RankCompleteness, ReplayTraffic
from repro.analysis.severity_timeline import SeverityTimeline
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import AnalysisError, TimeBudgetExceeded
from repro.ids import NodeId, node_of
from repro.resilience.deadline import Deadline
from repro.resilience.pool import ExecutionReport, PoolConfig, SupervisedPool
from repro.trace.archive import ArchiveReader, Definitions, TraceShard

class StreamingReplayAnalyzer:
    """The replay analyzer: local phase, call-path numbering, the columnar
    global phase over the admitted ranks.

    Constructor contract mirrors :class:`~repro.analysis.replay.ReplayAnalyzer`
    (readers keyed by machine, optional scheme, degraded flag) plus:

    ``retain=False``
        bounded-memory mode — the op tables are dropped once the global
        phase has read them, and ``timelines[rank].mpi_ops`` /
        ``omp_regions`` come back empty.  Aggregates are unaffected.
    ``timeline``
        a :class:`~repro.analysis.severity_timeline.SeverityTimeline` to
        accumulate time-resolved severity into (None: skip).
    ``deadline``
        a :class:`~repro.resilience.deadline.Deadline`.  It stops the local
        phase between whole ranks: in this process it is polled after every
        batch, and a pool run is cut by the
        :class:`~repro.resilience.pool.SupervisedPool` (in-flight workers
        killed, settled shards salvaged).  The global phase then runs once
        over the admitted ranks, never cut itself; the result settles
        degraded-style, with honest per-rank completeness and
        ``result.interrupted`` set — never a hang, never a crash.
    ``jobs``
        where the local phase runs, and nothing else: ``1`` in this
        process, batch after batch of ranks; ``N >= 2`` as
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
        # and build the admitted ranks' op tables.  It finishes before
        # anything is evaluated, so a structurally inconsistent rank is
        # excluded (or, strict, raises) with nothing accumulated for it.
        # Either branch leaves the call paths numbered rank-major in first-
        # encounter order — the buffered analyzer's numbering, exactly.
        # *local* collects it for the whole world.
        local = PartialAnalysis(index=0, ranks=tuple(ranks))
        callpaths = local.callpaths
        timelines = local.timelines
        trace_bytes = local.trace_bytes
        completeness = local.completeness
        execution = None
        if self.jobs == 1:
            # One registry shared by all ranks is that numbering as it stands:
            # the local phase interns nothing for a rank it rejects.
            interrupted = local.admit(
                definitions,
                TraceShard.gather(ranks, definitions, self.readers),
                converters,
                degraded,
                self.deadline,
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
            if interrupted is None and self.deadline is not None:
                # Polled as the last shard settles, as after the last batch.
                interrupted = self.deadline.reason()

        if not timelines:
            if interrupted is not None:
                raise TimeBudgetExceeded(interrupted)
            raise AnalysisError("no rank produced a usable trace")

        # The global phase reads every admitted rank whole.  An *interrupted*
        # run settles degraded-style: a receive whose send lies in a rank the
        # budget left unadmitted is counted, never raised.
        cube, grid_pairs, violations, stats = global_phase(
            definitions,
            timelines,
            allow_unmatched=degraded or interrupted is not None,
            timeline=self.timeline,
        )
        # TIME from per-rank exclusive time.
        for rank, process in timelines.items():
            for cpid, exclusive in process.exclusive_time.items():
                cube.add(TIME, cpid, rank, exclusive)

        if interrupted is not None:
            completeness = self._interrupted_completeness(
                interrupted, ranks, timelines, completeness
            )
        if not self.retain:
            for timeline in timelines.values():
                timeline.mpi_ops, timeline.omp_regions = [], []
        master_machine = definitions.machine_of(0)
        traffic = ReplayTraffic(
            replay_metadata_bytes=stats.metadata_bytes,
            merged_copy_bytes=sum(
                size
                for rank, size in trace_bytes.items()
                if definitions.machine_of(rank) != master_machine
            ),
            trace_bytes_total=sum(trace_bytes.values()),
        )
        return AnalysisResult(
            cube=cube,
            callpaths=callpaths,
            definitions=definitions,
            violations=violations,
            traffic=traffic,
            scheme_name=self.scheme.name,
            total_time=total_time_of(timelines),
            timelines=timelines,
            grid_pairs=grid_pairs,
            # An interrupted result is degraded-style by construction:
            # starved receives were counted, not matched.
            degraded=degraded or interrupted is not None,
            completeness=completeness,
            severity_timeline=self.timeline,
            interrupted=interrupted,
            execution=execution,
        )

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
        # One snapshot of the world, each rank's blob through its own
        # metahost's reader; its blob lengths are what the plan balances.
        world = TraceShard.gather(ranks, definitions, self.readers)
        sizes = {rank: len(world.blobs.get(rank, b"")) for rank in ranks}
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
                traces=world.select(shard),
            )
            for index, shard in enumerate(plan_shards(sizes, machine_of, self.jobs))
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
        completeness: Dict[int, RankCompleteness],
    ) -> Dict[int, RankCompleteness]:
        """Honest per-rank accounting for a run the budget cut short.

        An admitted rank was analyzed whole (its event count is the local
        phase's, so nothing is decoded again after the budget is gone), but
        against a world the budget may have left short of ranks, so it is
        not complete either.  A rank with neither a timeline nor an
        exclusion record was never admitted: its batch was not reached, or
        its shard had not settled.  The error string names the budget so
        the partial result can never be mistaken for a complete one.
        """
        out = dict(completeness)
        for rank in ranks:
            if rank in timelines:
                out[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=1.0,
                    events=timelines[rank].event_count,
                    analyzed=True,
                    error=f"TimeBudgetExceeded: {reason} after its local phase ran",
                )
            elif rank not in completeness:
                out[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=0.0,
                    events=0,
                    analyzed=False,
                    error=f"TimeBudgetExceeded: {reason} before its local phase ran",
                )
        return out


def analyze(
    run,
    request: Optional[AnalysisRequest] = None,
    *,
    scheme: Optional[SyncScheme] = None,
    pool: Optional[SupervisedPool] = None,
    deadline: Optional[Deadline] = None,
) -> AnalysisResult:
    """Replay-analyze a traced run's archive (a :class:`~repro.sim.runtime.RunResult`).

    *request* (an :class:`~repro.analysis.request.AnalysisRequest`)
    describes the analysis; its fields are spelled out here and nowhere
    else.  ``jobs`` says only where the local phase (trace blob → op
    tables, per rank) runs: ``None``/``1`` in this process, ``N >= 2``
    sharded across that many pool worker processes, ``0`` one per
    available core.  Every value of ``jobs`` produces a bit-identical
    :class:`~repro.analysis.result.AnalysisResult`.  ``request.timeline``
    additionally accumulates a time-resolved :class:`SeverityTimeline`
    (``result.severity_timeline``), and ``request.bounded`` drops the op
    tables once the global phase has read them, so the result holds
    nothing that grows with the trace.

    ``request.timeout`` (per-shard deadline, seconds) and
    ``request.max_retries`` (re-dispatches after a worker crash or hang)
    tune the supervised pool a ``jobs >= 2`` run uses; its result carries
    the pool's :class:`~repro.resilience.pool.ExecutionReport` in
    ``result.execution``.  ``pool`` lends the run an externally owned warm
    :class:`~repro.resilience.pool.SupervisedPool` (task function
    :func:`~repro.analysis.parallel.analyze_shard`) instead of spawning one
    — how the analysis service shares a single pool across every job it
    serves.

    ``request.deadline_s`` bounds the whole analysis end to end: on expiry
    the local phase admits no further rank and the analyzer returns a
    *partial* result — the admitted ranks analyzed whole, honest per-rank
    completeness, ``result.interrupted`` set — instead of hanging.  ``deadline`` lends an
    externally owned :class:`~repro.resilience.deadline.Deadline` instead
    (how the service makes a client ``DELETE`` reach the running analysis)
    and wins over ``request.deadline_s``, which starts a fresh clock at
    every call.  ``scheme`` picks the clock synchronization (default:
    hierarchical interpolation).
    """
    if request is None:
        request = AnalysisRequest()
    if deadline is None and request.deadline_s is not None:
        deadline = Deadline(request.deadline_s)
    readers = {machine: run.reader(machine) for machine in run.machines_used}
    timeline = (
        SeverityTimeline(window_s=request.window_s, stride_s=request.stride_s)
        if request.timeline
        else None
    )
    return StreamingReplayAnalyzer(
        readers,
        scheme=scheme,
        degraded=request.degraded,
        retain=not request.bounded,
        timeline=timeline,
        deadline=deadline,
        jobs=resolve_jobs(request.jobs),
        pool=pool,
        timeout=request.timeout,
        max_retries=request.max_retries,
    ).analyze()
