"""The buffered reference replay analyzer.

:class:`ReplayAnalyzer` builds each rank's operations as objects and
matches them object-wise; it is the oracle the tests and the benchmark
hold the columnar engine to.  The package's entry point,
:func:`repro.analysis.streaming.analyze`, does not use it.  Both engines
mirror SCALASCA's metacomputing-enabled analysis (paper Section 4) and
return the same :class:`~repro.analysis.result.AnalysisResult`:

* every rank's trace is read **through the mount namespace of its own
  metahost** — the analyzer never copies a trace file across machines;
* the replay exchanges only per-event metadata (matched-pair records and
  collective enter times), whose volume is tracked in
  :class:`~repro.analysis.result.ReplayTraffic`;
* while matching, the analyzer also "reports violations of the clock
  condition" — the Table 2 metric.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import ProcessTimeline, build_timeline, total_time_of
from repro.analysis.matching import MessageMatcher
from repro.analysis.patterns.base import (
    COLLECTIVE,
    COMMUNICATION,
    IDLE_THREADS,
    MPI,
    P2P,
    SYNCHRONIZATION,
    TIME,
    classify_region,
)
from repro.analysis.patterns.collective import default_collective_patterns
from repro.analysis.patterns.grid import accumulate_collective, accumulate_p2p
from repro.analysis.patterns.point2point import default_p2p_patterns
from repro.analysis.result import (
    AnalysisResult,
    GridPairBreakdown,
    RankCompleteness,
    ReplayTraffic,
)
from repro.analysis.severity import SeverityCube
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter, SyncScheme
from repro.errors import AnalysisError, PartialTraceWarning
from repro.ids import node_of
from repro.trace.archive import (
    ArchiveReader,
    salvage_checked,
    trace_filename,
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
        converters = self.scheme.converters(sync_data)
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
            converter = converters.get(node_of(location))
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
        stamps: List[MessageStamp] = []
        grid_pairs = GridPairBreakdown()
        p2p_patterns = default_p2p_patterns()
        # Hot loop over every matched pair: resolve each rank's node once,
        # bind per-pair callables out of the loop.
        nodes = {rank: node_of(tl.location) for rank, tl in timelines.items()}
        stamp_append = stamps.append
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

        # The checker keeps the canonical order, so stamps compare equal
        # across engines.
        checker = ClockConditionChecker.from_stamps(stamps)

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
        leaf_of: Dict[int, Optional[str]] = {}
        for rank, timeline in timelines.items():
            for cpid, exclusive in timeline.exclusive_time.items():
                cube_add(TIME, cpid, rank, exclusive)
            ops = timeline.mpi_ops
            columns = (ops.region.tolist(), ops.cpid.tolist(), ops.enter.tolist(), ops.exit.tolist())
            for region, cpid, enter, exit in zip(*columns):
                duration = exit - enter
                if duration <= 0.0:
                    continue
                cube_add(MPI, cpid, rank, duration)
                try:
                    leaf = leaf_of[region]
                except KeyError:
                    leaf = leaf_of[region] = classify_region(ops.names[region])
                if leaf == P2P:
                    cube_add(COMMUNICATION, cpid, rank, duration)
                    cube_add(P2P, cpid, rank, duration)
                elif leaf == COLLECTIVE:
                    cube_add(COMMUNICATION, cpid, rank, duration)
                    cube_add(COLLECTIVE, cpid, rank, duration)
                elif leaf == SYNCHRONIZATION:
                    cube_add(SYNCHRONIZATION, cpid, rank, duration)
            cpids, _, _, nthreads, busy_sum, busy_max = (
                column.tolist() for column in timeline.omp_regions.columns
            )
            for cpid, n, total, slowest in zip(cpids, nthreads, busy_sum, busy_max):
                # Thread-seconds idled waiting for the slowest team member.
                cube_add(IDLE_THREADS, cpid, rank, max(0.0, n * slowest - total))
