"""The replay analyzer: one driver — local phase, then columnar global phase.

There are two replay engines.  The buffered
:class:`~repro.analysis.replay.ReplayAnalyzer` — kept as the independent,
object-wise reference the tests and the benchmark compare against —
materializes every rank's MPI-op instances, then matches, then searches
patterns.  This module is the other one, and :func:`analyze` (re-exported
as :func:`repro.analyze` and :func:`repro.api.analyze`) is its one driver:
the same code path at every ``jobs`` value, which makes no object per op,
record, pair or collective.  :class:`StreamingReplayAnalyzer` is only the
end-to-end benchmark's adapter over that driver.  The reference imports
this engine's result types (:mod:`repro.analysis.result`); the engine
never imports it.

The replay has three steps.

1. The **local phase** is a pure function of each trace file: every rank's
   blob is admitted and becomes op tables — numpy columns built by array
   passes (:mod:`repro.analysis.optable`) — in batches of contiguous ranks
   holding about :data:`~repro.analysis.parallel._BATCH_BYTES` of trace,
   one walk of the record grammar and one set of passes per batch
   (:meth:`~repro.analysis.parallel.PartialAnalysis.admit`).  ``jobs``
   says only how many processes share it: the world is cut into ``jobs``
   contiguous shards, this process admits shard 0 into the world's
   call-path registry, and shards 1… run meanwhile as
   :func:`~repro.analysis.parallel.analyze_shard` tasks on ``jobs − 1``
   supervised pool workers (``jobs=1``: one shard, no pool).  A strict run
   raises ``jobs=1``'s error at every ``jobs``: a batch, and so a shard,
   raises its lowest rank's error, shard 0's propagates at once, and the
   pool re-raises the lowest of the others'.
2. **Call-path numbering**: the workers' shard-local registries are
   absorbed after shard 0's in ascending shard order, so call paths are
   numbered rank-major in first-encounter order — the buffered analyzer's
   numbering — before anything is evaluated, and the cube and the
   timeline are keyed globally from the first contribution.
3. The **columnar global phase** (:mod:`repro.analysis.globalphase`) then
   evaluates everything over the admitted ranks' whole tables in array
   passes: FIFO matching as one sort, the pattern catalogue as ufuncs and
   ``reduceat`` passes over pair and member columns, severities as exact
   per-cell sums.  It runs once and is never cut.

What a retained result keeps is the tables (``ProcessTimeline.mpi_ops`` /
``omp_regions``, numpy columns); a bounded one sets them to None once the
global phase has read them, so a consumer that needs them raises instead
of reading an empty run.

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
this process polls it after every batch of shard 0, and the supervised
pool cuts the other shards once shard 0 is done (in-flight workers
killed, settled shards salvaged).
Every admitted rank is analyzed whole and the global phase runs once over
the admitted ranks, so a rank the budget left unadmitted is missing the
way an excluded one is.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Dict, Optional

from repro.analysis.globalphase import global_phase
from repro.analysis.instances import remap_timeline, total_time_of
from repro.analysis.parallel import (
    PartialAnalysis,
    ShardTask,
    analyze_shard,
    plan_shards,
    resolve_jobs,
)
from repro.analysis.patterns.base import TIME
from repro.analysis.request import AnalysisRequest
from repro.analysis.result import AnalysisResult, RankCompleteness, ReplayTraffic
from repro.analysis.severity_timeline import SeverityTimeline
from repro.clocks.sync import HierarchicalInterpolation, SyncScheme
from repro.errors import AnalysisError, TimeBudgetExceeded
from repro.ids import node_of
from repro.resilience.deadline import Deadline
from repro.resilience.pool import PoolConfig, SupervisedPool
from repro.trace.archive import ArchiveReader, TraceShard


class StreamingReplayAnalyzer:
    """The end-to-end benchmark's adapter over the driver of :func:`analyze`.

    Its :meth:`analyze` replays the archive of *readers* (keyed by machine)
    in this process, as ``AnalysisRequest(degraded=degraded, bounded=not
    retain)`` describes.  It exists only for the two probes of
    ``benchmarks/e2e/pipeline.py`` that construct it, and goes when they
    call :func:`analyze` instead.
    """

    def __init__(
        self, readers: Dict[int, ArchiveReader], degraded: bool = False, retain: bool = True
    ) -> None:
        self.readers = readers
        self.degraded = degraded
        self.retain = retain

    def analyze(self) -> AnalysisResult:
        request = AnalysisRequest(degraded=self.degraded, bounded=not self.retain)
        return _replay(self.readers, request, None, None, None)


def _replay(
    readers: Dict[int, ArchiveReader],
    request: AnalysisRequest,
    scheme: Optional[SyncScheme],
    pool: Optional[SupervisedPool],
    deadline: Optional[Deadline],
) -> AnalysisResult:
    """The replay of *readers*' archive (keyed by machine): see :func:`analyze`."""
    if not readers:
        raise AnalysisError("no archive readers supplied")
    degraded = request.degraded
    jobs = resolve_jobs(request.jobs)
    if scheme is None:
        scheme = HierarchicalInterpolation(strict=not degraded)
    if deadline is None and request.deadline_s is not None:
        deadline = Deadline(request.deadline_s)
    timeline = (
        SeverityTimeline(window_s=request.window_s, stride_s=request.stride_s)
        if request.timeline
        else None
    )
    first_reader = next(iter(readers.values()))
    definitions = first_reader.definitions()
    converters = scheme.converters(first_reader.sync_data())
    ranks = sorted(definitions.locations)
    # One snapshot of the world, each rank's blob through its own metahost's
    # reader, cut into *jobs* contiguous shards of about equal blob bytes.
    world = TraceShard.gather(ranks, definitions, readers)
    sizes = {rank: len(world.blobs.get(rank, b"")) for rank in ranks}
    machine_of = {rank: definitions.machine_of(rank) for rank in ranks}
    shards = plan_shards(sizes, machine_of, jobs) or [()]

    # The local phase: admit each rank and build the admitted ranks' op
    # tables.  It finishes before anything is evaluated, so a structurally
    # inconsistent rank is excluded (or, strict, raises) with nothing
    # accumulated for it.  This process runs shard 0 into *local*, whose
    # registry is the world's: it interns nothing for a rank it rejects, so
    # it numbers call paths rank-major in first-encounter order — the
    # buffered analyzer's numbering, exactly.  Shards 1… run on the pool
    # meanwhile, and their registries are absorbed after it in shard order.
    local = PartialAnalysis(index=0, ranks=tuple(ranks))
    callpaths = local.callpaths
    timelines = local.timelines
    trace_bytes = local.trace_bytes
    completeness = local.completeness
    admit_first = partial(
        local.admit, definitions, world.select(shards[0]), converters, degraded, deadline
    )
    tasks = [
        ShardTask(
            index=index,
            ranks=shard,
            degraded=degraded,
            definitions=definitions,
            converters={
                node: converters.get(node)
                for node in sorted({node_of(definitions.locations[rank]) for rank in shard})
            },
            traces=world.select(shard),
        )
        for index, shard in enumerate(shards[1:], 1)
    ]
    execution = None
    if not tasks:
        interrupted = admit_first()
    else:
        if pool is None:
            pool = SupervisedPool(analyze_shard, PoolConfig(max_workers=len(tasks)))
        # The supervised pool keeps the in-process semantics — results in
        # shard order; each shard raises its lowest rank's error and the
        # lowest shard's error wins, which is ``jobs=1``'s error — while
        # surviving worker crashes, hangs, and kills that would deadlock a
        # bare Pool.map forever.  Shard 0's error propagates at once.
        try:
            (_, *partials), execution = pool.run(
                tasks,
                timeout_s=request.timeout,
                max_retries=request.max_retries,
                deadline=deadline,
                local=admit_first,
            )
            # Polled as the last shard settles, as after the last batch.
            interrupted = deadline.reason() if deadline is not None else None
        except TimeBudgetExceeded as exc:
            # The budget cut the run once shard 0 was admitted.  Shards
            # that never settled look exactly like excluded ranks: boundary
            # receives void, collectives tolerate missing members.
            partials = [exc.results[i] for i in sorted(exc.results) if i]
            execution, interrupted = exc.report, exc.reason
        for shard in partials:
            for category, message in shard.warnings:
                warnings.warn(message, category, stacklevel=2)
            remap = callpaths.absorb(shard.callpaths)
            for rank, process in sorted(shard.timelines.items()):
                remap_timeline(process, remap)
                timelines[rank] = process
            trace_bytes.update(sorted(shard.trace_bytes.items()))
            completeness.update(sorted(shard.completeness.items()))

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
        timeline=timeline,
    )
    # TIME from per-rank exclusive time.
    for rank, process in timelines.items():
        for cpid, exclusive in process.exclusive_time.items():
            cube.add(TIME, cpid, rank, exclusive)

    if interrupted is not None:
        # Honest per-rank accounting for a run the budget cut short.  An
        # admitted rank was analyzed whole (its event count is the local
        # phase's, so nothing is decoded again after the budget is gone),
        # but against a world the budget may have left short of ranks, so
        # it is not complete either.  A rank with neither a timeline nor an
        # exclusion record was never admitted: its batch was not reached,
        # or its shard had not settled.  The error names the budget so the
        # partial result can never be mistaken for a complete one.
        for rank in ranks:
            if rank in timelines:
                completeness[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=1.0,
                    events=timelines[rank].event_count,
                    analyzed=True,
                    error=f"TimeBudgetExceeded: {interrupted} after its local phase ran",
                )
            elif rank not in completeness:
                completeness[rank] = RankCompleteness(
                    rank=rank,
                    complete=False,
                    completeness=0.0,
                    events=0,
                    analyzed=False,
                    error=f"TimeBudgetExceeded: {interrupted} before its local phase ran",
                )
    if request.bounded:
        for process in timelines.values():
            process.mpi_ops = process.omp_regions = None
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
        scheme_name=scheme.name,
        total_time=total_time_of(timelines),
        timelines=timelines,
        grid_pairs=grid_pairs,
        # An interrupted result is degraded-style by construction:
        # starved receives were counted, not matched.
        degraded=degraded or interrupted is not None,
        completeness=completeness,
        severity_timeline=timeline,
        interrupted=interrupted,
        execution=execution,
    )


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
    describes the analysis; this driver spells its fields out and nothing
    else does.  ``jobs`` says only how many processes share the local
    phase (trace blob → op tables, per rank): ``None``/``1`` this one,
    ``N >= 2`` this one (shard 0) and ``N − 1`` pool worker processes,
    ``0`` one per available core.  Every value of ``jobs`` produces a
    bit-identical :class:`~repro.analysis.result.AnalysisResult`, and a
    strict run raises the same error at every value: the lowest failing
    rank's.  ``request.timeline`` additionally accumulates a time-resolved
    :class:`SeverityTimeline` (``result.severity_timeline``), and
    ``request.bounded`` drops the op tables once the global phase has read
    them, so the result holds nothing that grows with the trace.

    ``request.timeout`` (per-shard deadline, seconds) and
    ``request.max_retries`` (re-dispatches after a worker crash or hang)
    tune the supervised pool a ``jobs >= 2`` run uses; its result carries
    the pool's :class:`~repro.resilience.pool.ExecutionReport` in
    ``result.execution``, one task per shard, shard 0 (this process's:
    one attempt, never retried) first.  ``pool`` lends the run an
    externally owned warm :class:`~repro.resilience.pool.SupervisedPool`
    (task function :func:`~repro.analysis.parallel.analyze_shard`) instead
    of spawning one — how a run gets its own supervision settings (a chaos
    hook, fast heartbeats) or reuses warm workers across runs.

    ``request.deadline_s`` bounds the whole analysis end to end: on expiry
    the local phase admits no further rank and the analyzer returns a
    *partial* result — the admitted ranks analyzed whole, honest per-rank
    completeness, ``result.interrupted`` set — instead of hanging.  A
    budget already spent at the start costs the first batch of shard 0,
    as at ``jobs=1``, and dispatches no worker.  ``deadline`` lends an
    externally owned :class:`~repro.resilience.deadline.Deadline` instead
    (how the service makes a client ``DELETE`` reach the running analysis)
    and wins over ``request.deadline_s``, which starts a fresh clock at
    every call.  ``scheme`` picks the clock synchronization (default:
    hierarchical interpolation).
    """
    if request is None:
        request = AnalysisRequest()
    readers = {machine: run.reader(machine) for machine in run.machines_used}
    return _replay(readers, request, scheme, pool, deadline)
