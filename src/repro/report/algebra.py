"""Cross-experiment performance algebra (Song et al., ICPP 2004).

The paper concludes that "this type of comparative analysis could be
effectively supported by the algebra utilities developed by Song et al.,
which we plan to make available in a version compatible to the parallel
analyzer" — exactly the comparison performed in Section 5 between the
three-metahost and the one-metahost experiment.  This module provides that
compatibility layer: analysis results are *canonicalized* into a
structure-independent cell map keyed by ``(metric, call-path names, rank)``
so that experiments with different call-path numbering (or even different
call trees) can be subtracted, merged, and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReportError

if TYPE_CHECKING:
    from repro.analysis.result import AnalysisResult

#: Canonical cell key: (metric name, call-path region names, rank).
CellKey = Tuple[str, Tuple[str, ...], int]


@dataclass
class ExperimentData:
    """Structure-independent view of one (or a derived) experiment."""

    name: str
    cells: Dict[CellKey, float] = field(default_factory=dict)
    total_time: float = 0.0
    machine_names: List[str] = field(default_factory=list)
    machine_of_rank: Dict[int, int] = field(default_factory=dict)

    # -- aggregations -------------------------------------------------------

    def metric_total(self, metric: str) -> float:
        return sum(v for (m, _, _), v in self.cells.items() if m == metric)

    def pct(self, metric: str) -> float:
        if self.total_time <= 0.0:
            return 0.0
        return 100.0 * self.metric_total(metric) / self.total_time

    def by_path(self, metric: str) -> Dict[Tuple[str, ...], float]:
        out: Dict[Tuple[str, ...], float] = {}
        for (m, path, _), v in self.cells.items():
            if m == metric:
                out[path] = out.get(path, 0.0) + v
        return out

    def by_rank(self, metric: str) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for (m, _, rank), v in self.cells.items():
            if m == metric:
                out[rank] = out.get(rank, 0.0) + v
        return out

    def by_machine(self, metric: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for rank, value in self.by_rank(metric).items():
            machine = self.machine_of_rank.get(rank)
            name = (
                self.machine_names[machine]
                if machine is not None and machine < len(self.machine_names)
                else f"machine{machine}"
            )
            out[name] = out.get(name, 0.0) + value
        return out

    def metrics(self) -> List[str]:
        return sorted({m for (m, _, _) in self.cells})

    def value_in_region(self, metric: str, region: str) -> float:
        """Metric total over cells whose innermost frame is *region*."""
        return sum(
            v
            for (m, path, _), v in self.cells.items()
            if m == metric and path and path[-1] == region
        )


def canonicalize(result: AnalysisResult, name: str) -> ExperimentData:
    """Convert an :class:`AnalysisResult` into algebra-ready form."""
    data = ExperimentData(
        name=name,
        total_time=result.total_time,
        machine_names=list(result.definitions.machine_names),
        machine_of_rank={
            rank: loc.machine for rank, loc in result.definitions.locations.items()
        },
    )
    regions = result.definitions.regions
    for metric in result.cube.metrics():
        for cpid, rank, value in result.cube.cells(metric):
            path = tuple(
                regions.name_of(r) for r in result.callpaths.frames(cpid)
            )
            key = (metric, path, rank)
            data.cells[key] = data.cells.get(key, 0.0) + value
    return data


def _check_comparable(a: ExperimentData, b: ExperimentData) -> None:
    if not a.cells and not b.cells:
        raise ReportError("cannot combine two empty experiments")


def diff(a: ExperimentData, b: ExperimentData) -> ExperimentData:
    """Cell-wise ``a − b``; positive values mean *a* is more expensive.

    This is the algebra operation behind the paper's heterogeneous-vs-
    homogeneous comparison.  ``total_time`` is the difference of totals and
    can be negative.
    """
    _check_comparable(a, b)
    out = ExperimentData(
        name=f"({a.name} - {b.name})",
        total_time=a.total_time - b.total_time,
        machine_names=a.machine_names or b.machine_names,
        machine_of_rank={**b.machine_of_rank, **a.machine_of_rank},
    )
    for key in sorted(set(a.cells) | set(b.cells)):
        out.cells[key] = a.cells.get(key, 0.0) - b.cells.get(key, 0.0)
    return out


def merge(a: ExperimentData, b: ExperimentData) -> ExperimentData:
    """Cell-wise union/sum, the algebra's *merge* operation."""
    _check_comparable(a, b)
    out = ExperimentData(
        name=f"({a.name} + {b.name})",
        total_time=a.total_time + b.total_time,
        machine_names=a.machine_names or b.machine_names,
        machine_of_rank={**b.machine_of_rank, **a.machine_of_rank},
    )
    for key in sorted(set(a.cells) | set(b.cells)):
        out.cells[key] = a.cells.get(key, 0.0) + b.cells.get(key, 0.0)
    return out


def mean(experiments: Iterable[ExperimentData], name: Optional[str] = None) -> ExperimentData:
    """Cell-wise arithmetic mean over several experiments."""
    pool = list(experiments)
    if not pool:
        raise ReportError("mean of zero experiments")
    out = ExperimentData(
        name=name or f"mean({', '.join(e.name for e in pool)})",
        total_time=sum(e.total_time for e in pool) / len(pool),
        machine_names=pool[0].machine_names,
        machine_of_rank=dict(pool[0].machine_of_rank),
    )
    keys = set()
    for e in pool:
        keys |= set(e.cells)
    for key in sorted(keys):
        out.cells[key] = sum(e.cells.get(key, 0.0) for e in pool) / len(pool)
    return out


def render_comparison(
    a: ExperimentData,
    b: ExperimentData,
    metrics: Optional[List[str]] = None,
    top_paths: int = 3,
) -> str:
    """Side-by-side comparison table of two experiments plus their diff.

    The textual form of the paper's Section-5 methodology ("the value of
    our trace analysis is increased by the comparison with measurements on
    a homogeneous cluster").
    """
    delta = diff(a, b)
    pool = metrics if metrics is not None else sorted(
        set(a.metrics()) | set(b.metrics())
    )
    name_a = a.name[:16]
    name_b = b.name[:16]
    lines = [
        f"comparison: {a.name} vs {b.name}",
        "",
        f"{'metric':28s} {name_a:>16s} {name_b:>16s} {'delta [s]':>12s}",
        f"{'total time':28s} {a.total_time:16.3f} {b.total_time:16.3f} "
        f"{delta.total_time:+12.3f}",
    ]
    for metric in pool:
        va, vb = a.metric_total(metric), b.metric_total(metric)
        if va == 0.0 and vb == 0.0:
            continue
        lines.append(
            f"{metric:28s} {va:16.3f} {vb:16.3f} {va - vb:+12.3f}"
        )
    # Largest movers by call path (absolute delta across all metrics).
    movers: Dict[Tuple[str, Tuple[str, ...]], float] = {}
    for (metric, path, _rank), value in delta.cells.items():
        key = (metric, path)
        movers[key] = movers.get(key, 0.0) + value
    ranked = sorted(movers.items(), key=lambda kv: abs(kv[1]), reverse=True)
    if ranked:
        lines.append("")
        lines.append(f"largest movers (positive: {a.name} spends more):")
        for (metric, path), value in ranked[:top_paths]:
            lines.append(f"  {value:+10.3f} s  {metric}  @ {'/'.join(path)}")
    return "\n".join(lines)
