"""Time-resolved severity: rolling-window series over the run.

The severity cube aggregates wait-state cost over the whole run, which is
exactly what hides a transient WAN congestion episode — a few seconds of
Late Sender waiting disappears into a run-long total.  This module keeps
the *when*: every pattern hit (and every MPI base-class second) is spread
over the charged operation's ``[enter, exit]`` interval into fixed-stride
bins, and queries read the bins back as rolling-window series per
(metric, call path, rank).  The store is columns: a charge appends one
``(cpid, rank, bin, seconds)`` chunk per metric, and bins are summed on read.

Timelines are **diagnostic, not part of the bit-identity contract**: bins
are plain float sums (accumulation-order dependent in the last ulp), never
rendered into golden-compared report text, and excluded from
``AnalysisResult`` equality.  The exact order-free machinery stays in
:mod:`repro.analysis.severity` where bit-identity is promised.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

#: Bins a timeline may spread its rows over beyond each row's first, so a
#: tiny ``stride_s`` is refused, not allocated (the default stride spreads
#: the 128-rank benchmark archive's rows over about 6k).
_MAX_TERMS = 4_000_000

#: One metric's terms: cpid, rank and bin (int32), seconds (float64).
Cells = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_EMPTY: Cells = (*[np.empty(0, np.int32)] * 3, np.empty(0))


def _sum_by(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The distinct rows of the key columns (all but the last), first key
    major, with the last column summed over each in charge order."""
    *keys, seconds = columns
    order = np.lexsort(keys[::-1])
    new = np.arange(len(order)) == 0
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    group = np.empty(len(order), np.int64)
    group[order] = np.cumsum(new) - 1
    first = order[new]
    return (*(key[first] for key in keys), np.bincount(group, seconds, len(first)))


class SeverityTimeline:
    """Sparse binned severity: per metric, ``(cpid, rank, bin, seconds)`` columns.

    Bins are ``stride_s`` wide, anchored at synchronized (master) time 0;
    an interval contribution is distributed over the bins it overlaps in
    proportion to the overlap.  ``series`` sums each bin with its
    ``window_s / stride_s - 1`` predecessors, so a window's value is the
    severity charged to any instant inside it.
    """

    def __init__(self, window_s: float = 1.0, stride_s: float = 0.25) -> None:
        if not window_s > 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if not stride_s > 0:
            raise ValueError(f"stride_s must be positive, got {stride_s}")
        self.window_s = window_s
        self.stride_s = stride_s
        self._chunks: Dict[str, List[Cells]] = defaultdict(list)
        self._tables: Dict[str, Cells] = {}
        self._extra = 0

    @property
    def window_bins(self) -> int:
        """Number of strides a rolling window spans (≥ 1)."""
        return max(1, round(self.window_s / self.stride_s))

    def add(self, metric: str, cpid: int, rank: int, start: float, end: float,
            value: float) -> None:
        """:meth:`add_columns` with a batch of one."""
        self.add_columns((metric,), *(np.array([x]) for x in (cpid, rank, start, end, value)))

    def add_columns(self, metrics: Sequence[str], cpid: np.ndarray, rank: np.ndarray,
                    start: np.ndarray, end: np.ndarray, value: np.ndarray) -> None:
        """Row *i* charges ``value[i]`` seconds to ``[start[i], end[i]]`` (its
        single bin if ``end <= start``) at ``(cpid[i], rank[i])`` in every one
        of *metrics*, overlap-weighted.  A value not ``> 0`` (NaN too) charges
        nothing; a non-finite interval, bin indices past int32 and more than
        :data:`_MAX_TERMS` spread bins raise :class:`AnalysisError`."""
        kept = np.flatnonzero(value > 0.0)
        if not len(kept):
            return
        cpid, rank, start, end, value = (c[kept] for c in (cpid, rank, start, end, value))
        for i in np.flatnonzero(~(np.isfinite(start) & np.isfinite(end)))[:1]:
            raise AnalysisError(
                f"timeline charge of {'/'.join(metrics)} at cpid {cpid[i]}, rank "
                f"{rank[i]} has a non-finite interval [{start[i]}, {end[i]}]"
            )
        stride = self.stride_s
        with np.errstate(over="ignore", invalid="ignore"):  # past float range: refused
            lo = np.floor(start / stride)
            hi = np.where(end <= start, lo, np.floor(end / stride))
            extra = self._extra + float(np.sum(hi - lo))
        reach = max(-lo.min(), hi.max())
        if not (extra <= _MAX_TERMS and reach < 2**31 - 1):  # NaN fails too
            raise AnalysisError(
                f"timeline needs {extra:.0f} bins past its rows' first, up to index "
                f"{reach:.0f}, at stride_s={stride!r}; raise stride_s"
            )
        self._extra = int(extra)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        # A row inside one bin is that bin's term; only the others repeat.
        one, many = np.flatnonzero(lo == hi), np.flatnonzero(lo != hi)
        count = (hi - lo + 1)[many]
        row = np.repeat(many, count)
        b = lo[row] + np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        overlap = np.minimum(end[row], (b + 1) * stride) - np.maximum(start[row], b * stride)
        term, spread = value[row] * overlap / (end[row] - start[row]), overlap > 0.0
        rows = np.concatenate((one, row[spread]))
        chunk = (cpid[rows].astype(np.int32), rank[rows].astype(np.int32),
                 np.concatenate((lo[one], b[spread])).astype(np.int32),
                 np.concatenate((value[one], term[spread])))
        for metric in metrics:
            self._chunks[metric].append(chunk)
            self._tables.pop(metric, None)

    # -- queries ---------------------------------------------------------------

    def cells(self, metric: str) -> Cells:
        """The metric's bins as read-only columns ``(cpid, rank, bin,
        seconds)``, one row per charged ``(cpid, rank, bin)``, in that order."""
        if metric not in self._tables:
            chunks = self._chunks.get(metric, [_EMPTY])
            table = self._tables[metric] = _sum_by(*map(np.concatenate, zip(*chunks)))
            for column in table:
                column.flags.writeable = False
            if metric in self._chunks:
                self._chunks[metric] = [table]
        return self._tables[metric]

    def metrics(self) -> List[str]:
        return sorted(self._chunks)

    def bins(self, metric: str, cpid: Optional[int] = None,
             rank: Optional[int] = None) -> Dict[int, float]:
        """Aggregated per-stride bins of one metric, optionally filtered."""
        cpids, ranks, b, seconds = self.cells(metric)
        keep = np.ones(len(b), bool) & (cpid is None or cpids == cpid)
        keep &= rank is None or ranks == rank
        b, seconds = _sum_by(b[keep], seconds[keep])
        return dict(zip(b.tolist(), seconds.tolist()))

    def _windows(self, group: np.ndarray, b: np.ndarray, seconds: np.ndarray):
        """Each group's rolling-window series, from its first to its last bin,
        as ``(groups, bounds, times, totals)`` with group *g*'s entries at
        ``bounds[g]:bounds[g + 1]``.  Bin *i*'s entry is ``0.0 + bin[i - w + 1]
        + … + bin[i]``, added in that order."""
        if not len(b):
            return [], [0], np.empty(0), np.empty(0)
        group, b, seconds = _sum_by(group, b.astype(np.int64), seconds)
        w, new = self.window_bins, np.append(True, group[1:] != group[:-1])
        head, at = np.flatnonzero(new), np.cumsum(new) - 1
        lo = b[head]
        bounds = np.append(0, np.cumsum(b[np.append(head[1:], len(b)) - 1] - lo + 1))
        # Each group's bins densely after w - 1 zeros: no window leaves its group.
        dense = np.zeros(bounds[-1] + len(head) * (w - 1))
        dense[bounds[at] + (w - 1) * (at + 1) + b - lo[at]] = seconds
        seg = np.repeat(np.arange(len(head)), np.diff(bounds))
        step = np.arange(bounds[-1]) - bounds[seg]
        pos, total = bounds[seg] + (w - 1) * (seg + 1) + step, np.zeros(len(step))
        for back in range(w - 1, -1, -1):
            total += dense[pos - back]
        return group[head].tolist(), bounds.tolist(), (lo[seg] + step) * self.stride_s, total

    def series(self, metric: str, cpid: Optional[int] = None,
               rank: Optional[int] = None) -> List[Tuple[float, float]]:
        """Rolling-window series ``[(window start seconds, seconds), ...]``.

        One entry per stride from the first to the last populated bin;
        entry *i*'s value sums the window ending at that stride.
        """
        bins = self.bins(metric, cpid, rank)
        b, seconds = np.array(list(bins), np.int64), np.array(list(bins.values()))
        _, _, times, totals = self._windows(np.zeros(len(b), np.int32), b, seconds)
        return list(zip(times.tolist(), totals.tolist()))

    def peak_window(self, metric: str) -> Tuple[float, float]:
        """``(window start seconds, seconds)`` of the worst rolling window.

        This is the episode localizer: the window where the metric's
        severity concentrates (e.g. a transient WAN congestion burst).
        Returns ``(0.0, 0.0)`` when the metric has no contributions.
        """
        return max(self.series(metric), key=lambda entry: entry[1], default=(0.0, 0.0))

    def ranks(self, metric: str) -> List[int]:
        return np.unique(self.cells(metric)[1]).tolist()

    # -- service payload -------------------------------------------------------

    def to_payload(self, metric: Optional[str] = None) -> Dict[str, Any]:
        """JSON-safe form served by ``/jobs/<key>/severity/timeline``."""
        metrics: Dict[str, Any] = {}
        for name in [metric] if metric is not None else self.metrics():
            series = self.series(name)
            ranks, bounds, times, totals = self._windows(*self.cells(name)[1:])
            entries = np.column_stack((times, totals)).tolist()
            metrics[name] = {
                "series": [list(entry) for entry in series],
                "peak": list(max(series, key=lambda entry: entry[1], default=(0.0, 0.0))),
                "ranks": ranks,
                "by_rank": {str(r): entries[a:z] for r, a, z in zip(ranks, bounds, bounds[1:])},
            }
        return {"window_s": self.window_s, "stride_s": self.stride_s, "metrics": metrics}
