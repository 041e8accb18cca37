"""The local phase, and what crosses the process boundary when ``jobs``
processes share it.

The paper's analyzer is *parallel by construction*: every analysis process
— the one that starts the analysis included — replays the traces local to
it, and the replay exchanges per-event metadata, never whole trace files.
The replay's **local phase** — admit a rank, build its op tables — is a
pure function of one trace file, so it is the part that can run anywhere:
``jobs`` processes share it, the analyzing process (shard 0) and
``jobs − 1`` pool workers (shards 1…).  This module holds what each of
them runs and what a worker needs, and nothing else:

* :func:`plan_shards` cuts the ascending rank list into contiguous
  **shards** of about equal trace *bytes* (ranks differ in trace size by
  orders of magnitude, and a shard's cost is what it decodes);
* a picklable :class:`ShardTask` carries one shard's raw trace blobs, the
  definitions document and the clock converters of its nodes;
* :func:`analyze_shard`, the :class:`~repro.resilience.pool.SupervisedPool`
  task function, runs :meth:`PartialAnalysis.admit` — the local phase, the
  same routine at every ``jobs`` value — over a shard-local call-path
  registry.  It takes the ranks in contiguous batches of about
  :data:`_BATCH_BYTES` of trace; per batch, one grammar walk
  (:func:`repro.trace.encoding.walk_records`), every rank's admission
  (:func:`_admit_rank`) over its part of that walk, then the admitted
  ranks' op tables by one set of array passes
  (:func:`repro.analysis.optable.build_tables`);
* the picklable :class:`PartialAnalysis` it returns holds exactly that —
  timelines whose ops are numpy columns, call paths, completeness, captured
  warnings.

There is no matcher, no pattern evaluator and no driver here.
:func:`repro.analysis.streaming.analyze` is the one driver: it runs
:meth:`PartialAnalysis.admit` over shard 0 itself while the pool runs
:func:`analyze_shard` over shards 1…, absorbs the workers' registries
after shard 0's in ascending shard order, and hands every table to the
global phase (``jobs=1`` is the case with no worker shard).  Nothing is
admitted twice: a strict shard raises its lowest rank's error, shard 0's
propagates at once, and the pool re-raises the lowest of the others' —
the error ``jobs=1`` raises.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple, Type

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import ProcessTimeline
from repro.analysis.optable import RankTrace, build_tables
from repro.analysis.result import RankCompleteness
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError, ArchiveError, PartialTraceWarning, ReproError
from repro.ids import NodeId, node_of
from repro.resilience.deadline import Deadline
from repro.trace.archive import (
    Definitions,
    TraceShard,
    salvage_checked,
    trace_filename,
)
from repro.trace.encoding import RecordScan, header_rank, walk_records

#: Trace bytes the local phase takes in one batch of contiguous ranks: its
#: array passes cost per batch, not per rank, and their transient arrays
#: grow with the batch.  Only how much work one step does depends on it —
#: results never do.
_BATCH_BYTES = 1 << 20


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
    sizes: Mapping[int, int], machine_of: Mapping[int, int], jobs: int
) -> List[Tuple[int, ...]]:
    """Cut the ranks of *sizes* (rank → trace bytes) into ≤ *jobs* shards.

    Shards are contiguous, non-empty slices of the ascending rank list —
    the property the rank-major call-path numbering relies on.  Cut *k*
    falls at the rank boundary whose cumulative bytes lie nearest
    ``k * total / jobs``, so no shard exceeds ``total / jobs`` by more than
    the largest trace; among equally near boundaries one between two
    metahosts wins.  (The paper's locality rule — a trace is read on its
    own metahost — is :meth:`TraceShard.gather`'s business, not the cut's.)
    """
    if jobs < 1:
        raise AnalysisError(f"shard count must be >= 1, got {jobs}")
    ordered = sorted(sizes)
    below = list(accumulate((sizes[rank] for rank in ordered), initial=0))
    cuts = [0]
    for k in range(1, jobs):
        candidates = range(cuts[-1] + 1, len(ordered))
        if not candidates:
            break
        # min() keeps the first of equals: the lowest such boundary.
        cuts.append(
            min(
                candidates,
                key=lambda i: (
                    abs(below[i] * jobs - k * below[-1]),
                    machine_of.get(ordered[i]) == machine_of.get(ordered[i - 1]),
                ),
            )
        )
    cuts.append(len(ordered))
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
    """One shard's local phase: picklable, absorbed in shard order."""

    index: int
    ranks: Tuple[int, ...]
    callpaths: CallPathRegistry = field(default_factory=CallPathRegistry)
    #: rank → timeline with *shard-local* call-path ids.
    timelines: Dict[int, ProcessTimeline] = field(default_factory=dict)
    trace_bytes: Dict[int, int] = field(default_factory=dict)
    completeness: Dict[int, RankCompleteness] = field(default_factory=dict)
    #: Warnings raised in the worker, re-emitted by the parent in order.
    warnings: List[Tuple[Type[Warning], str]] = field(default_factory=list)

    def admit(
        self,
        definitions: Definitions,
        traces: TraceShard,
        converters: Dict[NodeId, Optional[LinearConverter]],
        degraded: bool,
        deadline: Optional[Deadline] = None,
    ) -> Optional[str]:
        """The local phase of every rank of *traces*, batch after batch.

        An admitted rank gains a timeline (its call paths interned into
        ``callpaths``) and a ``trace_bytes`` entry; a rejected one raises
        (strict) or gains an exclusion record in ``completeness``.  Errors
        and warnings come in rank order, the lowest rank's error first.

        *deadline* is polled after every batch, and once it has ended no
        further batch is taken: a rank is analyzed whole or not looked at.
        Returns why admission stopped (None: it was never cut).
        """
        batch: List[int] = []
        held = 0
        for position, rank in enumerate(traces.ranks, 1):
            batch.append(rank)
            held += len(traces.blobs.get(rank, b""))
            if held >= _BATCH_BYTES or position == len(traces.ranks):
                self._admit_batch(batch, definitions, traces, converters, degraded)
                batch, held = [], 0
                reason = deadline.reason() if deadline is not None else None
                if reason is not None:
                    return reason
        return None

    def _admit_batch(
        self,
        ranks: List[int],
        definitions: Definitions,
        traces: TraceShard,
        converters: Dict[NodeId, Optional[LinearConverter]],
        degraded: bool,
    ) -> None:
        """One walk, every rank's admission, one build: see :meth:`admit`."""
        walked = [rank for rank in ranks if rank in traces.blobs]
        tables = [getattr(traces.manifests.get(rank), "blocks", None) for rank in walked]
        scans = dict(zip(walked, walk_records([traces.blobs[r] for r in walked], tables)))
        notes: Dict[int, List[str]] = {}
        failed: Dict[int, ReproError] = {}
        admitted: List[RankTrace] = []
        for rank in ranks:
            try:
                converter, notes[rank] = _admit_rank(
                    rank, definitions, traces, converters, degraded,
                    self.completeness, scans.get(rank),
                )
            except ReproError as exc:
                failed[rank] = exc  # strict: no later rank is looked at
                break
            if converter is not None:
                admitted.append(RankTrace(
                    rank, definitions.locations[rank], traces.blobs[rank], converter,
                    scans[rank],
                ))
        built = build_tables(admitted, self.callpaths, definitions.regions)
        for trace, timeline in zip(admitted, built):
            rank = trace.rank
            if isinstance(timeline, ProcessTimeline):
                self.timelines[rank] = timeline
                self.trace_bytes[rank] = len(trace.blob)
            elif degraded and isinstance(timeline, AnalysisError):
                # Damage that decodes as valid records but is structurally
                # inconsistent: the last exclusion reason.
                prior = self.completeness[rank]
                notes[rank].append(_exclude(
                    self.completeness, rank, str(timeline), prior.completeness, prior.events
                ))
            else:
                failed[rank] = timeline
        for rank in ranks:
            for message in notes.get(rank, ()):
                warnings.warn(message, PartialTraceWarning, stacklevel=3)
            if rank in failed:
                raise failed[rank]


def _exclude(
    completeness: Dict[int, RankCompleteness],
    rank: int,
    reason: str,
    fraction: float = 0.0,
    events: int = 0,
) -> str:
    """Record *rank*'s exclusion; returns the warning that reports it."""
    completeness[rank] = RankCompleteness(
        rank=rank,
        complete=False,
        completeness=fraction,
        events=events,
        analyzed=False,
        error=reason,
    )
    return f"rank {rank} excluded from replay: {reason}"


def _admit_rank(
    rank: int,
    definitions: Definitions,
    traces: TraceShard,
    converters: Dict[NodeId, Optional[LinearConverter]],
    degraded: bool,
    completeness: Dict[int, RankCompleteness],
    scan: Optional[RecordScan] = None,
) -> Tuple[Optional[LinearConverter], List[str]]:
    """Decide one rank's fate; every engine but the buffered reference asks here.

    The local phase admits a rank through this routine alone, in this
    process or in a shard worker, so check order, error text and warning
    text cannot drift between ``jobs`` values.
    *traces* is a snapshot covering *rank*: a rank with neither a blob nor a
    ``missing`` reason had no reader on its metahost.  Strict mode raises at
    the first defect.  Degraded mode records the rank in *completeness* and
    counts its records on *scan*, the grammar walk the local phase made of
    its blob, instead of decoding, so a damaged prefix costs no event
    objects.

    Returns the converter of an admitted rank (None: excluded) and the
    :class:`~repro.errors.PartialTraceWarning` texts its admission owes,
    for the caller to emit in rank order.
    """
    location = definitions.locations[rank]
    blob = traces.blobs.get(rank)
    if blob is None:
        reason = traces.missing.get(rank)
        if degraded:
            return None, [
                _exclude(completeness, rank, reason or "no archive reader for its metahost")
            ]
        if reason is None:
            raise AnalysisError(
                f"no archive reader for machine {location.machine} "
                f"(rank {rank} lives there)"
            )
        raise AnalysisError(
            f"rank {rank}'s trace is not visible on its own metahost "
            f"({trace_filename(rank)} missing)"
        )
    if degraded:
        scanned = salvage_checked(blob, traces.manifests.get(rank), count_only=True, scan=scan)
        reason = None
        if scanned.rank is not None and scanned.rank != rank:
            return None, [_exclude(completeness, rank, f"trace file claims rank {scanned.rank}")]
        if not scanned.complete:
            reason = scanned.error
        elif not scanned.balanced:
            reason = (
                f"trace decodes but leaves {scanned.open_regions} region(s) "
                "open (truncated at a record boundary?)"
            )
        if reason is not None:
            return None, [_exclude(
                completeness, rank, reason, scanned.completeness, scanned.event_count
            )]
        completeness[rank] = RankCompleteness(
            rank=rank,
            complete=True,
            completeness=1.0,
            events=scanned.event_count,
            analyzed=True,
        )
    else:
        file_rank = header_rank(blob)
        if file_rank != rank:
            raise ArchiveError(
                f"trace file {trace_filename(rank)} claims rank {file_rank}"
            )
    converter = converters.get(node_of(location))
    if converter is not None:
        return converter, []
    if not degraded:
        raise AnalysisError(f"no clock converter for node {node_of(location)}")
    return LinearConverter.identity(), [
        f"rank {rank}: no clock converter for {node_of(location)}, "
        "using local time unconverted"
    ]


def analyze_shard(task: ShardTask) -> PartialAnalysis:
    """The worker: the local phase of every rank of one shard.

    Runs in a subprocess; every warning is captured and carried back in the
    :class:`PartialAnalysis` so the parent can re-emit it (subprocess
    warnings are invisible to the caller's ``warnings`` machinery).
    """
    partial = PartialAnalysis(index=task.index, ranks=task.ranks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        partial.admit(task.definitions, task.traces, task.converters, task.degraded)
    partial.warnings = [(w.category, str(w.message)) for w in caught]
    return partial
