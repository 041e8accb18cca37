"""Process-parallel sharded replay analysis.

The paper's analyzer is *parallel by construction*: every analysis process
reads only the traces local to its own metahost and the replay exchanges
per-event metadata, never whole trace files.  This module reproduces that
execution model with ``multiprocessing`` workers:

* the world is partitioned into contiguous **shards** of ranks, aligned to
  metahost boundaries where possible (:func:`plan_shards`);
* each worker receives a picklable :class:`ShardTask` — raw trace blobs,
  the definitions document, and the clock converters for its shard — and
  performs the *local* phase: admit each rank and build its op tables
  (:func:`repro.analysis.optable.build_rank_tables`) over a shard-local
  call-path registry;
* the worker returns a picklable :class:`PartialAnalysis` holding exactly
  that — timelines whose ops are numpy columns, call paths, completeness,
  captured warnings;
* the merge (:func:`merge_partials`) renumbers shard-local call paths into
  one registry and feeds every merged timeline's op table, rank by rank,
  through the streaming replay core
  (:mod:`repro.analysis.streaming`): the one matcher and pattern evaluator
  outside the buffered reference.  This module contains neither.

The merged :class:`AnalysisResult` is bit-for-bit identical to ``jobs=1``
because the serial pump and the merge are the *same* code fed in two
different rank interleavings, and nothing the core computes depends on the
interleaving: the severity cube and grid breakdown are exact and
order-free, stateful patterns see pairs in receive trace order per
receiver, and clock-condition stamps are sorted at finalize.

``jobs=1`` callers never reach this module; ``analyze_run(..., jobs=N)``
dispatches here for ``N != 1``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import ProcessTimeline, remap_timeline
from repro.analysis.optable import build_rank_tables
from repro.analysis.replay import AnalysisResult, RankCompleteness
from repro.analysis.severity_timeline import SeverityTimeline
from repro.analysis.streaming import _admit_rank, _StreamState
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import AnalysisError, TimeBudgetExceeded
from repro.ids import NodeId, node_of
from repro.resilience.deadline import Deadline
from repro.resilience.pool import PoolConfig, SupervisedPool
from repro.trace.archive import ArchiveReader, Definitions, TraceShard


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


def analyze_shard(task: ShardTask) -> PartialAnalysis:
    """The worker: admit each rank and build its op tables.

    Runs in a subprocess; every warning is captured and carried back in the
    :class:`PartialAnalysis` so the parent can re-emit it (subprocess
    warnings are invisible to the caller's ``warnings`` machinery).
    """
    partial = PartialAnalysis(index=task.index, ranks=task.ranks)
    definitions = task.definitions

    def build(rank: int, blob: bytes, converter: LinearConverter) -> ProcessTimeline:
        return build_rank_tables(
            rank,
            definitions.locations[rank],
            blob,
            converter,
            partial.callpaths,
            definitions.regions,
        )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for rank in task.ranks:
            admitted = _admit_rank(
                rank,
                definitions,
                task.traces,
                task.converters,
                task.degraded,
                partial.completeness,
                build,
            )
            if admitted is not None:
                blob, _converter, partial.timelines[rank] = admitted
                partial.trace_bytes[rank] = len(blob)
    partial.warnings = [(w.category, str(w.message)) for w in caught]
    return partial


def merge_partials(
    partials: List[PartialAnalysis],
    definitions: Definitions,
    scheme_name: str,
    degraded: bool,
    timeline: Optional[SeverityTimeline] = None,
) -> AnalysisResult:
    """Combine shard results into one analysis through the streaming core.

    Call paths are renumbered in first-encounter-by-rank order, then every
    merged timeline's op and fork-join tables are fed, whole rank after
    whole rank, through the same ``feed`` the serial pump drives quantum by
    quantum.  A whole-rank feed is one more pump order,
    and the core's output does not depend on pump order, so the result —
    and the rendered output — is bit-identical to ``jobs=1``.

    *timeline*, when given, is charged by the core exactly as in a serial
    run; call-path ids are already global at this point, so no remap is
    needed.
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
        remap = callpaths.absorb(partial.callpaths)
        for rank in sorted(partial.timelines):
            shard_timeline = partial.timelines[rank]
            remap_timeline(shard_timeline, remap)
            timelines[rank] = shard_timeline
        trace_bytes.update(sorted(partial.trace_bytes.items()))
        completeness.update(sorted(partial.completeness.items()))

    state = _StreamState(definitions, set(timelines), degraded, timeline)
    for process in timelines.values():
        state.attach(process)(0, len(process.mpi_ops))
    state.finish_stream()
    return state.result(
        state.cube, callpaths, timelines, trace_bytes, completeness, scheme_name
    )


class ParallelReplayAnalyzer:
    """Drives one sharded analysis over per-metahost archive readers.

    Same constructor contract as the serial analyzers (readers keyed by
    machine, optional scheme, degraded flag) plus ``jobs``; ``analyze()`` returns a result bit-identical to the
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
        # Its task function must be :func:`analyze_shard`.  Without one,
        # each run builds its own from ``pool_config``.  ``timeout`` and
        # ``max_retries`` travel as per-run overrides either way.
        self.pool = pool
        self.pool_config = pool_config or PoolConfig()
        self.timeout = timeout
        self.max_retries = max_retries
        # End-to-end budget: per-shard pool budgets derive from what is
        # left of it, and an expiry mid-run merges the settled shards into
        # a degraded-style partial result instead of raising.
        self.deadline = deadline
        # Charged by the streaming core during the merge.
        self.timeline = timeline

    # -- task construction -----------------------------------------------------

    def _shard_task(
        self,
        index: int,
        ranks: Tuple[int, ...],
        definitions: Definitions,
        converters: Dict[NodeId, Optional[LinearConverter]],
    ) -> ShardTask:
        """Collect one shard's blobs through its ranks' own metahost readers."""
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
            traces=TraceShard.gather(ranks, definitions, self.readers),
        )

    # -- execution -------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        first_reader = next(iter(self.readers.values()))
        definitions = first_reader.definitions()
        sync_data = first_reader.sync_data()
        synchronized = self.scheme.convert_all(sync_data)

        ranks = sorted(definitions.locations)
        machine_of = {rank: loc.machine for rank, loc in definitions.locations.items()}
        shards = plan_shards(ranks, machine_of, self.jobs)
        tasks = [
            self._shard_task(index, shard, definitions, synchronized.converters)
            for index, shard in enumerate(shards)
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
        else:
            # The supervised pool keeps the serial analyzer's semantics —
            # results in shard order, the lowest-ranked shard's exception
            # wins — while surviving worker crashes, hangs, and kills that
            # would deadlock a bare Pool.map forever.  A lent (warm,
            # externally owned) pool keeps its owner's worker count and
            # lifetime; this run only overrides budgets.
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
