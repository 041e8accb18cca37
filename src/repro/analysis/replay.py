"""The parallel replay analyzer.

Mirrors SCALASCA's metacomputing-enabled analysis (paper Section 4):

* every rank's trace is read **through the mount namespace of its own
  metahost** — the analyzer never copies a trace file across machines;
* the replay exchanges only per-event metadata (matched-pair records and
  collective enter times), whose volume is tracked in
  :class:`ReplayTraffic` so it can be compared against the merged-trace
  baseline ("the amount of data transferred per process is significantly
  smaller than the entire trace file belonging to that process");
* while matching, the analyzer also "reports violations of the clock
  condition" — the Table 2 metric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import ProcessTimeline, build_timeline, total_time_of
from repro.analysis.matching import MessageMatcher
from repro.analysis.patterns import (
    COLLECTIVE,
    COMMUNICATION,
    EXECUTION,
    IDLE_THREADS,
    MPI,
    P2P,
    SYNCHRONIZATION,
    TIME,
    default_collective_patterns,
    default_p2p_patterns,
    metric_tree,
)
from repro.analysis.patterns.base import classify_region
from repro.analysis.patterns.grid import (
    GridPairBreakdown,
    accumulate_collective,
    accumulate_p2p,
)
from repro.analysis.request import AnalysisRequest
from repro.analysis.severity import SeverityCube
from repro.analysis.severity_timeline import SeverityTimeline
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import AnalysisError, PartialTraceWarning
from repro.ids import node_of
from repro.resilience.pool import ExecutionReport
from repro.trace.archive import (
    ArchiveReader,
    Definitions,
    salvage_checked,
    trace_filename,
)


@dataclass(frozen=True)
class RankCompleteness:
    """Per-rank account of how much of a trace the analysis could use."""

    rank: int
    complete: bool
    completeness: float  # fraction of the trace file's bytes that decoded
    events: int  # events decoded (salvaged prefix included)
    analyzed: bool  # included in matching/pattern search
    error: str = ""  # why the trace is incomplete ("" when complete)


@dataclass
class ReplayTraffic:
    """Bytes moved by the replay vs. a merged-trace analysis."""

    replay_metadata_bytes: int = 0
    merged_copy_bytes: int = 0
    trace_bytes_total: int = 0

    @property
    def saving_factor(self) -> float:
        """How many times more data a merged analysis would have moved."""
        if self.replay_metadata_bytes == 0:
            return float("inf") if self.merged_copy_bytes > 0 else 1.0
        return self.merged_copy_bytes / self.replay_metadata_bytes


@dataclass
class AnalysisResult:
    """Severity cube plus everything needed to interpret it."""

    cube: SeverityCube
    callpaths: CallPathRegistry
    definitions: Definitions
    violations: ClockConditionChecker
    traffic: ReplayTraffic
    scheme_name: str
    total_time: float
    timelines: Dict[int, ProcessTimeline] = field(default_factory=dict)
    #: Fine-grained grid classification (paper §6 future work): grid
    #: severities per (causing metahost, waiting metahost) combination.
    grid_pairs: GridPairBreakdown = field(default_factory=GridPairBreakdown)
    #: True when the analysis ran in degraded mode (damaged traces are
    #: salvaged/excluded instead of raising).
    degraded: bool = False
    #: Per-rank completeness record (degraded mode; empty otherwise).
    completeness: Dict[int, RankCompleteness] = field(default_factory=dict)
    #: Time-resolved severity (rolling-window series), populated when the
    #: request asked for a timeline.  Diagnostic floats — deliberately
    #: outside the equality contract: only the aggregate cube promises
    #: bit-identity across execution models.
    severity_timeline: Optional[SeverityTimeline] = field(
        default=None, compare=False
    )
    #: Supervised-pool account of a ``jobs >= 2`` run (None in-process).
    #: Deliberately outside the equality contract of the result: the same
    #: analysis recovered after a worker crash is the same analysis.
    execution: Optional[ExecutionReport] = field(default=None, compare=False)
    #: Why the analysis was cut short (deadline expiry / cancellation), or
    #: None for a run that completed.  An interrupted result is *partial*:
    #: severity accumulated up to the cut, per-rank ``completeness``
    #: reporting exactly how far each rank got.
    interrupted: Optional[str] = field(default=None, compare=False)

    # Lazily built query indexes.  The cube and call-path registry are
    # frozen once analyze() returns, so caching is safe; before these,
    # every metric_in_region/metric_under_region call re-walked every call
    # path (and rebuilt the per-callpath marginal) per query.
    _by_callpath_cache: Dict[str, Dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _leaf_index: Optional[Dict[int, List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _containment_index: Optional[Dict[int, List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _by_callpath(self, metric: str) -> Dict[int, float]:
        cached = self._by_callpath_cache.get(metric)
        if cached is None:
            cached = self.cube.by_callpath(metric)
            self._by_callpath_cache[metric] = cached
        return cached

    def _region_indexes(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """``(leaf index, containment index)``: region id → cpids.

        Built in one pass over the interned paths.  Parents are always
        interned before their children, so a path's region set is its
        parent's set plus its own leaf region.
        """
        if self._leaf_index is None or self._containment_index is None:
            leaf: Dict[int, List[int]] = {}
            containment: Dict[int, List[int]] = {}
            region_sets: Dict[int, frozenset] = {}
            for path in self.callpaths.all_paths():
                leaf.setdefault(path.region, []).append(path.cpid)
                parent_set = region_sets.get(path.parent, frozenset())
                regions = parent_set | {path.region}
                region_sets[path.cpid] = regions
                for rid in sorted(regions):
                    containment.setdefault(rid, []).append(path.cpid)
            self._leaf_index = leaf
            self._containment_index = containment
        return self._leaf_index, self._containment_index

    # -- metric access ----------------------------------------------------------

    def metric_total(self, metric: str) -> float:
        """Inclusive total of a metric over all call paths and ranks."""
        if metric == EXECUTION:
            # No measurement overhead is modeled, so Execution == Time.
            return self.cube.total(TIME)
        return self.cube.total(metric)

    def pct(self, metric: str) -> float:
        """Metric total as percent of total time (the Figure 6 numbers)."""
        total = self.metric_total(TIME)
        if total <= 0.0:
            return 0.0
        return 100.0 * self.metric_total(metric) / total

    def exclusive_total(self, metric: str) -> float:
        """Metric total minus its children's totals (browser display value).

        The Idle Threads child is measured in thread-seconds rather than
        process wall seconds, so it is never subtracted from its parent.
        """
        children = [
            m
            for m in metric_tree()
            if m.parent == metric and m.name != IDLE_THREADS
        ]
        value = self.metric_total(metric) - sum(
            self.metric_total(child.name) for child in children
        )
        return max(0.0, value)

    # -- distributions -------------------------------------------------------------

    def grid_pair_breakdown(self, metric: str) -> Dict[tuple, float]:
        """Grid severity per (causing, waiting) metahost name pair.

        Implements the paper's desired finer-grained classification of the
        grid patterns by metahost combination.
        """
        return self.grid_pairs.named(metric, self.definitions.machine_names)

    def machine_breakdown(self, metric: str) -> Dict[str, float]:
        """Metric total per metahost name (the right panel of Figure 6)."""
        out: Dict[str, float] = {}
        for rank, value in self.cube.by_rank(metric).items():
            machine = self.definitions.machine_of(rank)
            name = self.definitions.machine_names[machine]
            out[name] = out.get(name, 0.0) + value
        return out

    def rank_breakdown(self, metric: str) -> Dict[int, float]:
        return self.cube.by_rank(metric)

    def top_callpaths(
        self, metric: str, n: int = 5
    ) -> List[Tuple[str, float]]:
        """Largest call-path contributors, rendered as path strings."""
        return [
            (self.callpaths.render(cpid, self.definitions.regions), value)
            for cpid, value in self.cube.top_callpaths(metric, n)
        ]

    def callpath_value(self, metric: str, *names: str) -> float:
        """Metric value at the exact call path given by region names."""
        cpid = self.callpaths.find(self.definitions.regions, *names)
        if cpid is None:
            return 0.0
        return self._by_callpath(metric).get(cpid, 0.0)

    @property
    def analyzed_ranks(self) -> List[int]:
        """Ranks whose timelines entered the pattern search."""
        return sorted(self.timelines)

    @property
    def excluded_ranks(self) -> List[int]:
        """Ranks dropped by degraded mode (damaged or unreadable traces)."""
        return sorted(
            rank for rank, rec in self.completeness.items() if not rec.analyzed
        )

    def metric_in_region(self, metric: str, region_name: str) -> float:
        """Metric total over all call paths whose innermost frame is *region_name*."""
        regions = self.definitions.regions
        if region_name not in regions:
            return 0.0
        leaf_index, _ = self._region_indexes()
        by_callpath = self._by_callpath(metric)
        return sum(
            by_callpath.get(cpid, 0.0)
            for cpid in leaf_index.get(regions.id_of(region_name), ())
        )

    def metric_under_region(self, metric: str, region_name: str) -> float:
        """Metric total over call paths containing *region_name* anywhere."""
        regions = self.definitions.regions
        if region_name not in regions:
            return 0.0
        _, containment_index = self._region_indexes()
        by_callpath = self._by_callpath(metric)
        return sum(
            by_callpath.get(cpid, 0.0)
            for cpid in containment_index.get(regions.id_of(region_name), ())
        )


class ReplayAnalyzer:
    """Drives one analysis over a set of per-metahost archive readers.

    With ``degraded=True`` the analyzer survives damaged experiments: a
    truncated or corrupt trace is salvaged up to its first defect and the
    rank excluded, a missing trace or reader excludes the rank, missing
    sync measurements fall back through the non-strict scheme ladder, and
    receives whose sender was excluded are skipped.  Each exclusion emits a
    :class:`~repro.errors.PartialTraceWarning` and is recorded in
    ``AnalysisResult.completeness``; the pattern search then runs on the
    intersection of complete ranks.
    """

    def __init__(
        self,
        readers: Dict[int, ArchiveReader],
        scheme: Optional[SyncScheme] = None,
        degraded: bool = False,
    ) -> None:
        if not readers:
            raise AnalysisError("no archive readers supplied")
        self.readers = dict(readers)
        self.degraded = degraded
        if scheme is None:
            scheme = HierarchicalInterpolation(strict=not degraded)
        self.scheme = scheme

    def _load_degraded(
        self,
        rank: int,
        reader: Optional[ArchiveReader],
        completeness: Dict[int, RankCompleteness],
    ) -> Optional[Tuple[int, list]]:
        """Salvage one rank's trace; record and warn instead of raising.

        Returns ``(byte count, events)`` for a fully decoded trace, None
        for a rank that must be excluded from the analysis.
        """

        def exclude(reason: str, fraction: float = 0.0, events: int = 0) -> None:
            completeness[rank] = RankCompleteness(
                rank=rank,
                complete=False,
                completeness=fraction,
                events=events,
                analyzed=False,
                error=reason,
            )
            warnings.warn(
                f"rank {rank} excluded from replay: {reason}", PartialTraceWarning,
                stacklevel=4,
            )

        if reader is None:
            exclude("no archive reader for its metahost")
            return None
        if not reader.has_trace(rank):
            exclude(f"{trace_filename(rank)} missing from its metahost's archive")
            return None
        blob = reader.read_trace_blob(rank)
        salvaged = salvage_checked(blob, reader.manifest_entry(rank))
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
            # A cut landing exactly on a record boundary decodes cleanly;
            # the only evidence of damage is regions left open at the end.
            exclude(
                f"trace decodes but leaves {salvaged.open_regions} region(s) "
                "open (truncated at a record boundary?)",
                fraction=salvaged.completeness,
                events=len(salvaged.events),
            )
            return None
        completeness[rank] = RankCompleteness(
            rank=rank,
            complete=True,
            completeness=1.0,
            events=len(salvaged.events),
            analyzed=True,
        )
        return len(blob), salvaged.events

    def analyze(self) -> AnalysisResult:
        first_reader = next(iter(self.readers.values()))
        definitions = first_reader.definitions()
        sync_data = first_reader.sync_data()
        synchronized = self.scheme.convert_all(sync_data)
        degraded = self.degraded

        callpaths = CallPathRegistry()
        timelines: Dict[int, ProcessTimeline] = {}
        trace_bytes: Dict[int, int] = {}
        completeness: Dict[int, RankCompleteness] = {}
        for rank in sorted(definitions.locations):
            location = definitions.locations[rank]
            reader = self.readers.get(location.machine)
            if degraded:
                loaded = self._load_degraded(rank, reader, completeness)
                if loaded is None:
                    continue
                trace_bytes[rank], events = loaded
            else:
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
                # Stream the trace: one file read, no materialized event list.
                trace_bytes[rank], events = reader.stream_trace(rank)
            converter = synchronized.converters.get(node_of(location))
            if converter is None:
                if not degraded:
                    raise AnalysisError(
                        f"no clock converter for node {node_of(location)}"
                    )
                warnings.warn(
                    f"rank {rank}: no clock converter for {node_of(location)}, "
                    "using local time unconverted",
                    PartialTraceWarning,
                    stacklevel=2,
                )
                converter = LinearConverter.identity()
            try:
                timelines[rank] = build_timeline(
                    rank, location, events, converter, callpaths, definitions.regions
                )
            except AnalysisError as exc:
                if not degraded:
                    raise
                # Backstop for damage that decodes as valid records (e.g.
                # corruption stamping bytes that happen to parse) but is
                # structurally inconsistent.
                trace_bytes.pop(rank, None)
                prior = completeness.get(rank)
                completeness[rank] = RankCompleteness(
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
                    stacklevel=2,
                )

        if not timelines:
            raise AnalysisError("no rank produced a usable trace")

        cube = SeverityCube()
        self._base_metrics(cube, timelines)

        def comm_order(cid: int) -> Optional[Tuple[int, ...]]:
            entry = definitions.communicators.get(cid)
            return entry[1] if entry is not None else None

        matcher = MessageMatcher(
            timelines, comm_lookup=comm_order, allow_unmatched=degraded
        )
        checker = ClockConditionChecker()
        grid_pairs = GridPairBreakdown()
        p2p_patterns = default_p2p_patterns()
        # Hot loop over every matched pair: resolve each rank's node once,
        # bind per-pair callables out of the loop.
        nodes = {rank: node_of(tl.location) for rank, tl in timelines.items()}
        stamp_append = checker.stamps.append
        cube_add = cube.add
        contribution_fns = [p.contributions for p in p2p_patterns]
        for pair in matcher.matched_pairs():
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
                for hit in contributions(pair):
                    cube_add(hit.metric, hit.cpid, hit.rank, hit.value)

        coll_patterns = default_collective_patterns()
        for instance in matcher.collective_instances():
            accumulate_collective(grid_pairs, instance)
            for pattern in coll_patterns:
                for hit in pattern.contributions(instance):
                    cube.add(hit.metric, hit.cpid, hit.rank, hit.value)

        # Both engines sort stamps at finalize, so stamp lists compare
        # equal across them.
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
            scheme_name=self.scheme.name,
            total_time=total_time_of(timelines),
            timelines=timelines,
            grid_pairs=grid_pairs,
            degraded=degraded,
            completeness=completeness,
        )

    @staticmethod
    def _base_metrics(cube: SeverityCube, timelines: Dict[int, ProcessTimeline]) -> None:
        """Accumulate structural metrics (time, MPI, communication classes)."""
        cube_add = cube.add
        leaf_of: Dict[str, Optional[str]] = {}
        for rank, timeline in timelines.items():
            for cpid, exclusive in timeline.exclusive_time.items():
                cube_add(TIME, cpid, rank, exclusive)
            for op in timeline.mpi_ops:
                duration = op.exit - op.enter
                if duration <= 0.0:
                    continue
                cpid = op.cpid
                cube_add(MPI, cpid, rank, duration)
                name = op.op_name
                try:
                    leaf = leaf_of[name]
                except KeyError:
                    leaf = leaf_of[name] = classify_region(name)
                if leaf == P2P:
                    cube_add(COMMUNICATION, cpid, rank, duration)
                    cube_add(P2P, cpid, rank, duration)
                elif leaf == COLLECTIVE:
                    cube_add(COMMUNICATION, cpid, rank, duration)
                    cube_add(COLLECTIVE, cpid, rank, duration)
                elif leaf == SYNCHRONIZATION:
                    cube_add(SYNCHRONIZATION, cpid, rank, duration)
            for omp in timeline.omp_regions:
                cube_add(IDLE_THREADS, omp.cpid, rank, omp.idle_thread_seconds)


def analyze_run(
    run_result,
    scheme: Optional[SyncScheme] = None,
    request: Optional[AnalysisRequest] = None,
    *,
    pool=None,
    deadline=None,
) -> AnalysisResult:
    """Analyze a :class:`~repro.sim.runtime.RunResult` end to end.

    *request* (an :class:`~repro.analysis.request.AnalysisRequest`) selects
    everything about the analysis: ``jobs`` says where the replay's local
    phase runs (``None``/``1`` in this process, ``N >= 2`` sharded across
    *N* pool workers, ``0`` one per core), ``degraded`` survives damaged
    traces, ``timeline`` adds time-resolved severity series, ``bounded``
    drops the op tables once the global phase has read them.  One analyzer,
    :class:`~repro.analysis.streaming.StreamingReplayAnalyzer`, serves
    every combination, and every ``jobs`` value produces a bit-identical
    result.

    ``pool`` lends the analysis an externally owned
    :class:`~repro.resilience.pool.SupervisedPool` (task function
    :func:`~repro.analysis.parallel.analyze_shard`) instead of spawning a
    fresh one — long-lived owners such as the analysis service reuse one
    warm pool across many runs.

    ``deadline`` lends an externally owned
    :class:`~repro.resilience.deadline.Deadline` (the service does this so
    a client cancel reaches the running analysis); when None and the
    request carries ``deadline_s``, a fresh deadline starts here.
    """
    # Imported lazily: both modules import this one.
    from repro.analysis.parallel import resolve_jobs
    from repro.analysis.streaming import StreamingReplayAnalyzer
    from repro.resilience.deadline import Deadline

    if request is None:
        request = AnalysisRequest()
    if deadline is None and request.deadline_s is not None:
        deadline = Deadline(request.deadline_s)

    readers = {
        machine: run_result.reader(machine) for machine in run_result.machines_used
    }
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
