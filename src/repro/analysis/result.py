"""What a replay returns: :class:`AnalysisResult` and the records it carries.

The replay exchanges only per-event metadata (matched-pair records and
collective enter times), whose volume is tracked in :class:`ReplayTraffic`
so it can be compared against the merged-trace baseline ("the amount of
data transferred per process is significantly smaller than the entire
trace file belonging to that process", paper Section 4).
:class:`RankCompleteness` is the per-rank account of a degraded or
interrupted run, and :class:`GridPairBreakdown` the fine-grained grid
classification: the paper's future work (Section 6) — "the current grid
patterns only distinguish between internal and external communication
without differentiating between different combinations of metahosts.
Here, a more fine-grained classification would be desirable."  Every grid
wait state is additionally attributed to the ordered pair ``(causing
metahost, waiting metahost)``, so a report can say *who makes whom wait* —
e.g. that CAESAR's slower CPUs cause FH-BRS's Late Sender waiting in
Experiment 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Dict, List, Optional, Tuple

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import ProcessTimeline
from repro.analysis.patterns.base import EXECUTION, IDLE_THREADS, TIME, metric_tree
from repro.analysis.severity import Partials, SeverityCube, grow_expansion
from repro.analysis.severity_timeline import SeverityTimeline
from repro.clocks.condition import ClockConditionChecker
from repro.resilience.pool import ExecutionReport
from repro.trace.archive import Definitions

#: Ordered (causing machine, waiting machine) pair.
MachinePair = Tuple[int, int]


class GridPairBreakdown:
    """Accumulator: metric → (causer, waiter) machine pair → seconds.

    Accumulation is exact and order-free, like the severity cube: each
    cell keeps a Shewchuk expansion and ``data`` is the collapsed view, so
    any replay order over the same contributions yields equal ``data``.
    """

    def __init__(self) -> None:
        self._partials: Dict[str, Dict[MachinePair, Partials]] = {}
        self._snapshot: Optional[Dict[str, Dict[MachinePair, float]]] = None

    def add(self, metric: str, causer: int, waiter: int, value: float) -> None:
        if value <= 0.0:
            return
        by_pair = self._partials.setdefault(metric, {})
        key = (causer, waiter)
        partials = by_pair.get(key)
        if partials is None:
            by_pair[key] = [value]
        else:
            grow_expansion(partials, value)
        self._snapshot = None

    @property
    def data(self) -> Dict[str, Dict[MachinePair, float]]:
        """Collapsed view: ``metric → (causer, waiter) → exact seconds``."""
        if self._snapshot is None:
            self._snapshot = {
                metric: {key: fsum(p) for key, p in by_pair.items()}
                for metric, by_pair in self._partials.items()
            }
        return self._snapshot

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridPairBreakdown):
            return NotImplemented
        return self.data == other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridPairBreakdown(data={self.data!r})"

    def pairs(self, metric: str) -> Dict[MachinePair, float]:
        return dict(self.data.get(metric, {}))

    def total(self, metric: str) -> float:
        return sum(self.data.get(metric, {}).values())

    def named(self, metric: str, machine_names: List[str]) -> Dict[Tuple[str, str], float]:
        """Pairs rendered with metahost names."""

        def name(machine: int) -> str:
            if 0 <= machine < len(machine_names):
                return machine_names[machine]
            return f"machine{machine}"

        return {
            (name(causer), name(waiter)): value
            for (causer, waiter), value in self.data.get(metric, {}).items()
        }

    def top_pair(self, metric: str) -> Tuple[MachinePair, float]:
        by_pair = self.data.get(metric, {})
        if not by_pair:
            return ((-1, -1), 0.0)
        key = max(by_pair, key=by_pair.get)  # type: ignore[arg-type]
        return key, by_pair[key]


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
