"""The severity cube: metric × call path × process.

Detected pattern instances are "classified by the type of behavior and
quantified by their significance" (paper Section 1) — each instance adds
its waiting time to the cell addressed by its pattern (metric), the call
path of the waiting MPI call, and the waiting process.  Aggregations over
any axis produce the three panels of the result browser.

Accumulation is **exact and order-free**: each cell keeps a Shewchuk
expansion (a short list of non-overlapping partial floats whose sum is the
cell's exact value), collapsed with :func:`math.fsum` on read.  The
collapsed value is the correctly rounded sum of the real numbers added, so
it depends only on the *multiset* of contributions — never on their order.
That property is what lets the columnar replay, which sums each cell's
hits in one pass, and the buffered two-pass reference feed the same cells
in different orders and still agree bit for bit.
"""

from __future__ import annotations

from itertools import chain
from math import fsum, isfinite
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

#: One cell's exact accumulator: non-overlapping partials (Shewchuk 1997).
Partials = List[float]


def grow_expansion(partials: Partials, value: float) -> None:
    """Add *value* into the expansion in place (error-free transformation).

    After the call ``sum(partials)`` is exactly ``old exact sum + value``
    as a real number; the list stays short (its length is bounded by the
    number of distinct float exponents in play, a few entries in practice).
    """
    i = 0
    x = value
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def exact_expansion(values: Sequence[float]) -> Partials:
    """The exact sum of *values* as an expansion, in a few C-speed passes.

    Equal in value to growing an empty expansion by each element, without
    the per-element Python call: :func:`math.fsum` rounds the exact sum
    correctly, so its successive residuals ``fsum(values - partials)`` are
    non-overlapping and hit zero once the sum is fully represented.
    """
    partials: Partials = []
    residual = fsum(values)
    while residual:
        partials.append(residual)
        if not isfinite(residual):
            break
        residual = fsum(chain(values, (-part for part in partials)))
    partials.reverse()
    return partials


class SeverityCube:
    """Sparse 3-D accumulator keyed ``metric → cpid → rank``.

    ``data`` is the collapsed (plain nested ``dict``) view; two cubes fed
    the same contributions in any order have equal ``data``.
    """

    def __init__(
        self, data: Optional[Dict[str, Dict[int, Dict[int, float]]]] = None
    ) -> None:
        self._partials: Dict[str, Dict[int, Dict[int, Partials]]] = {}
        self._snapshot: Optional[Dict[str, Dict[int, Dict[int, float]]]] = None
        if data:
            for metric, by_cp in data.items():
                for cpid, by_rank in by_cp.items():
                    for rank, value in by_rank.items():
                        self.add(metric, cpid, rank, value)

    def add(self, metric: str, cpid: int, rank: int, value: float) -> None:
        """Accumulate *value* seconds into one cell (negatives rejected)."""
        if value <= 0.0:
            if value == 0.0:
                return
            raise AnalysisError(
                f"negative severity {value} for {metric} at cpid={cpid} rank={rank}"
            )
        # Hot path (one call per pattern hit): try/except on the populated
        # case avoids setdefault's per-call default-dict allocations.
        try:
            by_rank = self._partials[metric][cpid]
        except KeyError:
            by_rank = self._partials.setdefault(metric, {}).setdefault(cpid, {})
        partials = by_rank.get(rank)
        if partials is None:
            by_rank[rank] = [value]
        else:
            grow_expansion(partials, value)
        self._snapshot = None

    def add_expansion(
        self, metric: str, cpid: int, rank: int, partials: Partials
    ) -> None:
        """Accumulate a whole expansion (kept by the caller) into one cell.

        The streaming replay sums each ``(rank, call path)``'s MPI durations
        once and installs a copy into every base metric of the op's class;
        the cell's exact sum is what per-op ``add`` calls would have reached.
        """
        by_rank = self._partials.setdefault(metric, {}).setdefault(cpid, {})
        existing = by_rank.get(rank)
        if existing is None:
            by_rank[rank] = list(partials)
        else:
            for part in partials:
                grow_expansion(existing, part)
        self._snapshot = None

    @property
    def data(self) -> Dict[str, Dict[int, Dict[int, float]]]:
        """Collapsed view: ``metric → cpid → rank → exact rounded seconds``."""
        if self._snapshot is None:
            self._snapshot = {
                metric: {
                    cpid: {rank: fsum(p) for rank, p in by_rank.items()}
                    for cpid, by_rank in by_cp.items()
                }
                for metric, by_cp in self._partials.items()
            }
        return self._snapshot

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeverityCube):
            return NotImplemented
        return self.data == other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeverityCube(data={self.data!r})"

    # -- aggregations -------------------------------------------------------

    def metrics(self) -> List[str]:
        return sorted(self._partials)

    def total(self, metric: str) -> float:
        """Sum over all call paths and ranks."""
        return sum(
            value
            for by_rank in self.data.get(metric, {}).values()
            for value in by_rank.values()
        )

    def by_callpath(self, metric: str) -> Dict[int, float]:
        return {
            cpid: sum(by_rank.values())
            for cpid, by_rank in self.data.get(metric, {}).items()
        }

    def by_rank(self, metric: str) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for by_rank in self.data.get(metric, {}).values():
            for rank, value in by_rank.items():
                out[rank] = out.get(rank, 0.0) + value
        return out

    def at(self, metric: str, cpid: int) -> Dict[int, float]:
        """Per-rank distribution of one (metric, call path) cell row."""
        return dict(self.data.get(metric, {}).get(cpid, {}))

    def value(self, metric: str, cpid: int, rank: int) -> float:
        return self.data.get(metric, {}).get(cpid, {}).get(rank, 0.0)

    def cells(self, metric: str) -> Iterable[Tuple[int, int, float]]:
        for cpid, by_rank in self.data.get(metric, {}).items():
            for rank, value in by_rank.items():
                yield (cpid, rank, value)

    def top_callpaths(self, metric: str, n: int = 5) -> List[Tuple[int, float]]:
        ranked = sorted(
            self.by_callpath(metric).items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:n]

    # -- algebra support ------------------------------------------------------

    def copy(self) -> "SeverityCube":
        return SeverityCube(data=self.data)

    def scale(self, factor: float) -> "SeverityCube":
        """New cube with every cell multiplied by *factor* (must be ≥ 0).

        Cells are collapsed before multiplying: only the rounded value is
        canonical, the partials are an internal representation.
        """
        if factor < 0:
            raise AnalysisError(f"scale factor must be non-negative, got {factor}")
        out = SeverityCube()
        for metric, by_cp in self.data.items():
            for cpid, by_rank in by_cp.items():
                for rank, value in by_rank.items():
                    out.add(metric, cpid, rank, value * factor)
        return out
