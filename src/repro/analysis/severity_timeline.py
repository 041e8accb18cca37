"""Time-resolved severity: rolling-window series over the run.

The severity cube aggregates wait-state cost over the whole run, which is
exactly what hides a transient WAN congestion episode — a few seconds of
Late Sender waiting disappears into a run-long total.  This module keeps
the *when*: every pattern hit (and every MPI base-class second) is spread
over the charged operation's ``[enter, exit]`` interval into fixed-stride
bins, and queries read the bins back as rolling-window series per
(metric, call path, rank).

Timelines are **diagnostic, not part of the bit-identity contract**: bins
are plain float sums (accumulation-order dependent in the last ulp), never
rendered into golden-compared report text, and excluded from
``AnalysisResult`` equality.  The exact order-free machinery stays in
:mod:`repro.analysis.severity` where bit-identity is promised.
"""

from __future__ import annotations

from math import floor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bin key: (call-path id, rank).
CellKey = Tuple[int, int]


class SeverityTimeline:
    """Sparse binned severity: ``metric → (cpid, rank) → bin index → seconds``.

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
        self._bins: Dict[str, Dict[CellKey, Dict[int, float]]] = {}

    @property
    def window_bins(self) -> int:
        """Number of strides a rolling window spans (≥ 1)."""
        return max(1, round(self.window_s / self.stride_s))

    def add(
        self,
        metric: str,
        cpid: int,
        rank: int,
        start: float,
        end: float,
        value: float,
    ) -> None:
        """Charge *value* seconds to ``[start, end]``, overlap-weighted.

        A degenerate interval (``end <= start``) charges its single bin.
        """
        if value <= 0.0:
            return
        stride = self.stride_s
        cell = self._bins.setdefault(metric, {}).setdefault((cpid, rank), {})
        lo = floor(start / stride)
        if end <= start:
            cell[lo] = cell.get(lo, 0.0) + value
            return
        hi = floor(end / stride)
        if hi == lo:
            cell[lo] = cell.get(lo, 0.0) + value
            return
        span = end - start
        for b in range(lo, hi + 1):
            overlap = min(end, (b + 1) * stride) - max(start, b * stride)
            if overlap > 0.0:
                cell[b] = cell.get(b, 0.0) + value * overlap / span

    def add_columns(
        self,
        metrics: Sequence[str],
        cpid: np.ndarray,
        rank: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        value: np.ndarray,
    ) -> None:
        """Column form of :meth:`add`: row *i* charges ``value[i]`` seconds to
        ``[start[i], end[i]]`` at ``(cpid[i], rank[i])``, in every one of
        *metrics* — the same bins and the same per-bin terms, computed by
        array passes; a cell's terms of one call are summed before they join
        the bin, so values agree with per-row ``add`` to the last ulps.
        """
        kept = np.flatnonzero(value > 0.0)
        if not len(kept):
            return
        cpid, rank, start, end, value = (
            column[kept] for column in (cpid, rank, start, end, value)
        )
        stride = self.stride_s
        lo = np.floor(start / stride).astype(np.int64)
        hi = np.where(end <= start, lo, np.floor(end / stride).astype(np.int64))
        # One term per (row, overlapped bin); a row inside one bin charges it whole.
        count = hi - lo + 1
        row = np.repeat(np.arange(len(lo)), count)
        b = lo[row] + np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        overlap = np.minimum(end[row], (b + 1) * stride) - np.maximum(start[row], b * stride)
        whole = (hi == lo)[row]
        span = np.where(whole, 1.0, end[row] - start[row])
        term = np.where(whole, value[row], value[row] * overlap / span)
        kept = np.flatnonzero(whole | (overlap > 0.0))
        row, b, term = row[kept], b[kept], term[kept]
        order = np.lexsort((b, rank[row], cpid[row]))
        keys = cpid[row][order], rank[row][order], b[order]
        new = np.ones(len(order), bool)
        new[1:] = (keys[0][1:] != keys[0][:-1]) | (keys[1][1:] != keys[1][:-1]) | (
            keys[2][1:] != keys[2][:-1]
        )
        first = np.flatnonzero(new)
        sums = np.add.reduceat(term[order], first).tolist()
        cells = list(zip(zip(keys[0][first].tolist(), keys[1][first].tolist()),
                         keys[2][first].tolist(), sums))
        for metric in metrics:
            by_cell = self._bins.setdefault(metric, {})
            for key, bin_index, total in cells:
                cell = by_cell.get(key)
                if cell is None:
                    cell = by_cell[key] = {}
                cell[bin_index] = cell.get(bin_index, 0.0) + total

    # -- queries ---------------------------------------------------------------

    def metrics(self) -> List[str]:
        return sorted(self._bins)

    def bins(
        self,
        metric: str,
        cpid: Optional[int] = None,
        rank: Optional[int] = None,
    ) -> Dict[int, float]:
        """Aggregated per-stride bins of one metric, optionally filtered."""
        out: Dict[int, float] = {}
        for (cell_cpid, cell_rank), cell in self._bins.get(metric, {}).items():
            if cpid is not None and cell_cpid != cpid:
                continue
            if rank is not None and cell_rank != rank:
                continue
            for b, value in cell.items():
                out[b] = out.get(b, 0.0) + value
        return out

    def series(
        self,
        metric: str,
        cpid: Optional[int] = None,
        rank: Optional[int] = None,
    ) -> List[Tuple[float, float]]:
        """Rolling-window series ``[(window start seconds, seconds), ...]``.

        One entry per stride from the first to the last populated bin;
        entry *i*'s value sums the window ending at that stride.
        """
        bins = self.bins(metric, cpid=cpid, rank=rank)
        if not bins:
            return []
        w = self.window_bins
        first, last = min(bins), max(bins)
        out: List[Tuple[float, float]] = []
        for i in range(first, last + 1):
            total = 0.0
            for j in range(i - w + 1, i + 1):
                total += bins.get(j, 0.0)
            out.append((i * self.stride_s, total))
        return out

    def peak_window(self, metric: str) -> Tuple[float, float]:
        """``(window start seconds, seconds)`` of the worst rolling window.

        This is the episode localizer: the window where the metric's
        severity concentrates (e.g. a transient WAN congestion burst).
        Returns ``(0.0, 0.0)`` when the metric has no contributions.
        """
        series = self.series(metric)
        if not series:
            return (0.0, 0.0)
        return max(series, key=lambda entry: entry[1])

    def ranks(self, metric: str) -> List[int]:
        return sorted({rank for _, rank in self._bins.get(metric, {})})

    # -- service payload -------------------------------------------------------

    def to_payload(self, metric: Optional[str] = None) -> Dict[str, Any]:
        """JSON-safe form served by ``/jobs/<key>/severity/timeline``."""
        names = [metric] if metric is not None else self.metrics()
        metrics: Dict[str, Any] = {}
        for name in names:
            series = self.series(name)
            if not series and metric is None:
                continue
            peak = self.peak_window(name)
            metrics[name] = {
                "series": [[t, v] for t, v in series],
                "peak": [peak[0], peak[1]],
                "ranks": self.ranks(name),
                "by_rank": {
                    str(r): [[t, v] for t, v in self.series(name, rank=r)]
                    for r in self.ranks(name)
                },
            }
        return {
            "window_s": self.window_s,
            "stride_s": self.stride_s,
            "metrics": metrics,
        }
