"""Trace statistics: the summaries graphical trace browsers provide.

The paper motivates automatic pattern search as going *beyond* "statistical
summaries" offered by browsers like VAMPIR and Paraver (Section 3) — but a
usable tool still needs those summaries.  This module computes them from
the analyzer's per-rank timelines:

* a **communication matrix** (bytes and message counts per sender/receiver
  pair, with an internal/external split),
* a **message-size histogram** (power-of-two bins),
* a **region profile** (visits, total/average time per source region),
* per-rank MPI-time fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.instances import ProcessTimeline, require_tables
from repro.errors import AnalysisError
from repro.trace.archive import Definitions


@dataclass
class CommMatrix:
    """Point-to-point traffic per (sender rank, receiver rank)."""

    bytes_sent: Dict[Tuple[int, int], int] = field(default_factory=dict)
    messages: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Totals split by whether the endpoints share a metahost.
    internal_bytes: int = 0
    external_bytes: int = 0

    def add(self, src: int, dst: int, size: int, crosses_metahosts: bool) -> None:
        key = (src, dst)
        self.bytes_sent[key] = self.bytes_sent.get(key, 0) + size
        self.messages[key] = self.messages.get(key, 0) + 1
        if crosses_metahosts:
            self.external_bytes += size
        else:
            self.internal_bytes += size

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    def heaviest_pairs(self, n: int = 5) -> List[Tuple[Tuple[int, int], int]]:
        ranked = sorted(self.bytes_sent.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:n]


@dataclass
class SizeHistogram:
    """Message sizes in power-of-two bins; bin k covers [2^k, 2^(k+1))."""

    bins: Dict[int, int] = field(default_factory=dict)

    def add(self, size: int) -> None:
        if size < 0:
            raise AnalysisError(f"negative message size {size}")
        bin_index = size.bit_length() - 1 if size > 0 else 0
        self.bins[bin_index] = self.bins.get(bin_index, 0) + 1

    @property
    def count(self) -> int:
        return sum(self.bins.values())

    def bin_label(self, bin_index: int) -> str:
        low = 0 if bin_index == 0 else 2**bin_index
        high = 2 ** (bin_index + 1) - 1
        return f"{low}..{high} B"

    def rows(self) -> List[Tuple[str, int]]:
        return [(self.bin_label(k), self.bins[k]) for k in sorted(self.bins)]


@dataclass
class RegionStats:
    name: str
    visits: int = 0
    exclusive_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.exclusive_s / self.visits if self.visits else 0.0


@dataclass
class TraceStatistics:
    """All summary statistics of one analyzed run."""

    comm: CommMatrix
    sizes: SizeHistogram
    regions: Dict[str, RegionStats]
    mpi_fraction_of_rank: Dict[int, float]

    def region_profile(self, top: int = 10) -> List[RegionStats]:
        """Regions ranked by exclusive time (the classic flat profile)."""
        ranked = sorted(
            self.regions.values(), key=lambda r: r.exclusive_s, reverse=True
        )
        return ranked[:top]


def compute_statistics(
    timelines: Dict[int, ProcessTimeline],
    definitions: Definitions,
    callpaths,
) -> TraceStatistics:
    """Derive all summaries from per-rank timelines.

    ``definitions`` are the run's (they place every rank, analyzed or not,
    on its metahost, and name the regions); ``callpaths`` is the
    :class:`~repro.analysis.callpath.CallPathRegistry` the timelines were
    built against (needed to map exclusive times back to region names).
    """
    require_tables(timelines, "trace statistics", AnalysisError)
    regions = definitions.regions
    comm = CommMatrix()
    sizes = SizeHistogram()
    region_stats: Dict[str, RegionStats] = {}
    mpi_fraction: Dict[int, float] = {}

    machine_of = {rank: location.machine for rank, location in definitions.locations.items()}

    for rank, timeline in timelines.items():
        ops = timeline.mpi_ops
        mpi_time = 0.0
        for enter, exit in zip(ops.enter.tolist(), ops.exit.tolist()):
            mpi_time += max(0.0, exit - enter)
        _, (_, dest, _, _, size) = ops.sends
        for dest, size in zip(dest.tolist(), size.tolist()):
            comm.add(rank, dest, size, machine_of.get(dest) != timeline.machine)
            sizes.add(size)
        total = timeline.total_time
        mpi_fraction[rank] = mpi_time / total if total > 0 else 0.0

        for cpid, exclusive in timeline.exclusive_time.items():
            name = regions.name_of(callpaths.path(cpid).region)
            stats = region_stats.get(name)
            if stats is None:
                stats = RegionStats(name=name)
                region_stats[name] = stats
            stats.exclusive_s += exclusive

    # Visit counts come straight from the timelines' per-call-path enter
    # counters, so recursion and repeated calls are counted exactly.
    for timeline in timelines.values():
        for cpid, count in timeline.visits.items():
            name = regions.name_of(callpaths.path(cpid).region)
            if name not in region_stats:
                region_stats[name] = RegionStats(name=name)
            region_stats[name].visits += count

    return TraceStatistics(
        comm=comm,
        sizes=sizes,
        regions=region_stats,
        mpi_fraction_of_rank=mpi_fraction,
    )


def statistics_of(result) -> TraceStatistics:
    """Convenience: statistics from an :class:`AnalysisResult`."""
    return compute_statistics(result.timelines, result.definitions, result.callpaths)


def render_statistics(stats: TraceStatistics, top: int = 8) -> str:
    """Human-readable summary block."""
    lines = ["trace statistics", "=" * 40]
    lines.append(
        f"messages: {stats.comm.total_messages}, "
        f"volume: {stats.comm.total_bytes / 1024:.1f} KiB "
        f"(internal {stats.comm.internal_bytes / 1024:.1f} / "
        f"external {stats.comm.external_bytes / 1024:.1f})"
    )
    lines.append("")
    lines.append("heaviest sender -> receiver pairs:")
    for (src, dst), volume in stats.comm.heaviest_pairs(top):
        lines.append(f"  {src:4d} -> {dst:4d}  {volume / 1024:10.1f} KiB")
    lines.append("")
    lines.append("message sizes:")
    for label, count in stats.sizes.rows():
        lines.append(f"  {label:>20s}  {count:8d}")
    lines.append("")
    lines.append(f"{'region':24s} {'visits':>8s} {'excl [ms]':>10s} {'mean [ms]':>10s}")
    for region in stats.region_profile(top):
        lines.append(
            f"{region.name:24s} {region.visits:8d} "
            f"{region.exclusive_s * 1e3:10.2f} {region.mean_s * 1e3:10.3f}"
        )
    return "\n".join(lines)
