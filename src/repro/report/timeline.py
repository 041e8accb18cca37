"""ASCII timeline rendering (a minimal VAMPIR-style time-line display).

The related work the paper builds on (VAMPIR, Paraver — Section 3) centers
on "a zoomable time-line display that allows the fine-grained investigation
of parallel performance behavior".  This module renders one: each rank is a
row; time is quantized into character cells; each cell shows the innermost
region active for the majority of the cell (user regions by initial, MPI
waits highlighted).  It operates on analyzer timelines, so the stamps are
already synchronized — rendering a raw (unsynchronized) trace would smear
the picture, which is in itself a useful demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.instances import ProcessTimeline, require_tables
from repro.analysis.patterns.base import COLLECTIVE, SYNCHRONIZATION, classify_region
from repro.errors import ReportError
from repro.trace.regions import RegionRegistry

#: Cell glyphs for MPI activity classes.
GLYPH_P2P = "m"
GLYPH_COLLECTIVE = "C"
GLYPH_SYNC = "B"
GLYPH_IDLE = "."

#: MPI region class → glyph; every other MPI call renders as p2p.
_MPI_GLYPHS = {COLLECTIVE: GLYPH_COLLECTIVE, SYNCHRONIZATION: GLYPH_SYNC}


@dataclass
class TimelineView:
    """One rendered timeline: rows of cells plus a legend."""

    start: float
    end: float
    columns: int
    rows: Dict[int, str]
    legend: Dict[str, str]

    def render(self) -> str:
        span_ms = (self.end - self.start) * 1e3
        lines = [
            f"timeline {self.start:.3f}s .. {self.end:.3f}s "
            f"({span_ms:.1f} ms, {self.columns} cells)"
        ]
        for rank in sorted(self.rows):
            lines.append(f"rank {rank:3d} |{self.rows[rank]}|")
        if self.legend:
            lines.append("legend: " + ", ".join(
                f"{glyph}={name}" for glyph, name in sorted(self.legend.items())
            ))
        lines.append(
            f"        ({GLYPH_P2P}=p2p MPI, {GLYPH_COLLECTIVE}=collective, "
            f"{GLYPH_SYNC}=barrier, {GLYPH_IDLE}=outside regions)"
        )
        return "\n".join(lines)


def _interval_cells(
    spans: List[Tuple[float, float, str]],
    start: float,
    cell: float,
    columns: int,
) -> str:
    """Majority glyph per cell from (begin, end, glyph) spans."""
    weights: List[Dict[str, float]] = [dict() for _ in range(columns)]
    for begin, end, glyph in spans:
        if end <= start:
            continue
        first = max(0, int((begin - start) / cell))
        last = min(columns - 1, int((end - start) / cell))
        for index in range(first, last + 1):
            cell_begin = start + index * cell
            cell_end = cell_begin + cell
            overlap = min(end, cell_end) - max(begin, cell_begin)
            if overlap > 0:
                weights[index][glyph] = weights[index].get(glyph, 0.0) + overlap
    out = []
    for cell_weights in weights:
        if not cell_weights:
            out.append(GLYPH_IDLE)
        else:
            out.append(max(cell_weights, key=cell_weights.get))  # type: ignore[arg-type]
    return "".join(out)


def render_timeline(
    timelines: Dict[int, ProcessTimeline],
    regions: RegionRegistry,
    callpaths,
    columns: int = 72,
    start: Optional[float] = None,
    end: Optional[float] = None,
    ranks: Optional[List[int]] = None,
) -> TimelineView:
    """Render the given ranks' activity between *start* and *end*.

    MPI calls render as class glyphs (p2p / collective / barrier); user
    regions render as their name's first letter, with a legend.  Requires
    timelines built by the analyzer (synchronized stamps).
    """
    if not timelines:
        raise ReportError("no timelines to render")
    if columns < 8:
        raise ReportError(f"need at least 8 columns, got {columns}")
    require_tables(timelines, "the timeline view", ReportError)
    pool = sorted(timelines) if ranks is None else list(ranks)
    if not pool:
        raise ReportError("no ranks to render")
    for rank in pool:
        if rank not in timelines:
            raise ReportError(f"no timeline for rank {rank}")
    t0 = min(timelines[r].first_time for r in pool) if start is None else start
    t1 = max(timelines[r].last_time for r in pool) if end is None else end
    if t1 <= t0:
        raise ReportError(f"empty time window [{t0}, {t1}]")
    cell = (t1 - t0) / columns
    mpi_glyph = {
        region: _MPI_GLYPHS.get(classify_region(name), GLYPH_P2P)
        for rank in pool for region, name in timelines[rank].mpi_ops.names.items()
    }

    legend: Dict[str, str] = {}
    rows: Dict[int, str] = {}
    for rank in pool:
        timeline = timelines[rank]
        ops = timeline.mpi_ops
        # MPI ops are explicit rows.
        spans: List[Tuple[float, float, str]] = [
            (enter, exit, mpi_glyph[region])
            for region, enter, exit in zip(
                ops.region.tolist(), ops.enter.tolist(), ops.exit.tolist()
            )
        ]
        # User regions: exact intervals would need the raw events, so the
        # gaps between MPI ops show the rank's dominant user region.
        user_name = _dominant_user_region(timeline, regions, callpaths)
        if user_name:
            glyph = user_name[0].lower()
            if glyph in (GLYPH_P2P, GLYPH_COLLECTIVE, GLYPH_SYNC, GLYPH_IDLE):
                glyph = glyph.upper() if glyph.upper() not in ("C", "B") else "u"
            legend.setdefault(glyph, user_name)
            cursor = timeline.first_time
            by_enter = np.argsort(ops.enter, kind="stable")
            for enter, exit in zip(ops.enter[by_enter].tolist(), ops.exit[by_enter].tolist()):
                if enter > cursor:
                    spans.append((cursor, enter, glyph))
                cursor = max(cursor, exit)
            if timeline.last_time > cursor:
                spans.append((cursor, timeline.last_time, glyph))
        rows[rank] = _interval_cells(spans, t0, cell, columns)
    return TimelineView(start=t0, end=t1, columns=columns, rows=rows, legend=legend)


def _dominant_user_region(
    timeline: ProcessTimeline, regions: RegionRegistry, callpaths
) -> Optional[str]:
    """Name of the user region with the most exclusive time on this rank."""
    best_name = None
    best_value = 0.0
    for cpid, value in timeline.exclusive_time.items():
        name = regions.name_of(callpaths.path(cpid).region)
        if classify_region(name) is None and value > best_value:
            best_name = name
            best_value = value
    return best_name


def render_result_timeline(result, **kwargs) -> str:
    """Convenience: timeline straight from an :class:`AnalysisResult`."""
    view = render_timeline(
        result.timelines, result.definitions.regions, result.callpaths, **kwargs
    )
    return view.render()


# -- time-resolved severity -----------------------------------------------------

#: Sparkline glyphs, blank to full block, indexed by eighths of the peak.
_SPARK = " ▁▂▃▄▅▆▇█"


def render_severity_timeline(timeline, metric: Optional[str] = None,
                             width: int = 60) -> str:
    """Text rendering of a :class:`~repro.analysis.severity_timeline.SeverityTimeline`.

    One row per metric: the rolling-window series as a sparkline scaled to
    its own peak, with the peak window called out — enough to spot *when*
    a transient episode (say, a WAN congestion burst) concentrates its
    severity.  ``metric`` restricts the rendering to one metric; the
    series is max-pooled down to ``width`` columns when longer.
    """
    header = (
        f"Time-resolved severity (window {timeline.window_s:g} s, "
        f"stride {timeline.stride_s:g} s)"
    )
    lines = [header, ""]
    names = [metric] if metric is not None else timeline.metrics()
    for name in names:
        series = timeline.series(name)
        if not series:
            lines.append(f"{name:24s} (no contributions)")
            continue
        peak_t, peak_v = timeline.peak_window(name)
        values = [value for _, value in series]
        if len(values) > width:
            # Max-pool: a narrow spike must survive downsampling.
            chunk = len(values) / width
            values = [
                max(values[int(i * chunk): max(int((i + 1) * chunk), int(i * chunk) + 1)])
                for i in range(width)
            ]
        scale = peak_v or 1.0
        bars = "".join(
            _SPARK[min(8, int(8 * value / scale + 0.5))] for value in values
        )
        t0 = series[0][0]
        t1 = series[-1][0]
        lines.append(
            f"{name:24s} peak {peak_v * 1e3:10.3f} ms in window at t={peak_t:.2f} s"
        )
        lines.append(f"  t={t0:8.2f}s |{bars}| t={t1:.2f}s")
    return "\n".join(lines)
