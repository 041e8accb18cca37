"""``--compare A.json B.json``: did B get worse than A, metric by metric?

Each side is one result document or several (``a1.json,a2.json,...`` —
runs of the same commit).  For every workload and end-to-end metric the
report gives both medians, the ratio B/A (A is the base), the metric's
bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound;
* ``same`` — within the bound, and so is the spread of both sides;
* ``unresolved`` — the spread of either side is wider than the bound, so
  the medians cannot settle it — unless every point of B lies on one side
  of every point of A.

With several runs a side's points are the runs' medians and its spread the
distance between their quartiles, over their median.  With one run the
points are that run's samples and the spread is the interquartile band of
*the median's* sampling distribution (order statistics at
``n/2 ± 0.6745·√n/2``) — not of the samples themselves, which for the
service are a population of different jobs, not repeats of one.

Per-layer values are listed underneath with their ratio; they have no
bound and get no verdict.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _at(ordered: Sequence[float], position: float) -> float:
    """Linear interpolation between order statistics (0-based position)."""
    position = min(max(position, 0.0), len(ordered) - 1.0)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _points_and_spread(rows: List[Dict[str, Any]]) -> Tuple[List[float], float, float]:
    """``(points, median, relative spread)`` of one side of one metric."""
    if len(rows) > 1:
        points = [row["value"] for row in rows]
        q1, median, q3 = statistics.quantiles(points, n=4)
    else:
        points = sorted(rows[0]["samples"])
        median = rows[0]["value"]
        half_band = 0.6745 * math.sqrt(len(points)) / 2
        middle = (len(points) - 1) / 2
        q1, q3 = _at(points, middle - half_band), _at(points, middle + half_band)
    return points, median, (q3 - q1) / median if median else 0.0


def verdict(
    old: List[Dict[str, Any]], new: List[Dict[str, Any]], better: str, bound: float
) -> Tuple[float, float, str]:
    """``(A median, B median, verdict)`` for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    points_a, median_a, spread_a = _points_and_spread(old)
    points_b, median_b, spread_b = _points_and_spread(new)
    worsening = sign * (median_b - median_a) / median_a
    if max(spread_a, spread_b) > bound:
        a = [sign * v for v in points_a]
        b = [sign * v for v in points_b]
        if min(b) > max(a):
            word = "worse"
        elif max(b) < min(a):
            word = "better"
        else:
            word = "unresolved"
    elif worsening > bound:
        word = "worse"
    elif worsening < -bound:
        word = "better"
    else:
        word = "same"
    return median_a, median_b, word


def _describe(label: str, docs: List[Dict[str, Any]]) -> str:
    first = docs[0]
    return (
        f"{label}: {len(docs)} run(s), seed {sorted({d['seed'] for d in docs})}, "
        f"{first['seconds']} s, {first['machine']['cpu_count']} cpu, "
        f"python {first['machine']['python']}"
    )


def _rows(docs: List[Dict[str, Any]], workload: str, group: str, metric: str) -> Optional[List[Any]]:
    rows = [doc["workloads"].get(workload, {}).get(group, {}).get(metric) for doc in docs]
    return None if any(row is None for row in rows) else rows


def format_comparison(
    spec: Dict[str, Any], old: List[Dict[str, Any]], new: List[Dict[str, Any]]
) -> str:
    lines: List[str] = [_describe("A", old), _describe("B", new)]
    for name in old[0]["workloads"]:
        if any(name not in doc["workloads"] for doc in new):
            lines += ["", f"== {name}: missing from B"]
            continue

        def total(docs: List[Dict[str, Any]], key: str) -> int:
            return sum(doc["workloads"][name][key] for doc in docs)

        lines += [
            "",
            f"== {name}: failed/attempted A {total(old, 'failed')}/{total(old, 'attempted')}, "
            f"B {total(new, 'failed')}/{total(new, 'attempted')}",
            f"   {'metric':<22}{'A median':>14}{'B median':>14}{'B/A':>9}{'bound':>8}  verdict",
        ]
        for metric in spec["end_to_end"]:
            rows_a = _rows(old, name, "end_to_end", metric["name"])
            rows_b = _rows(new, name, "end_to_end", metric["name"])
            if rows_a is None or rows_b is None:
                continue
            median_a, median_b, word = verdict(rows_a, rows_b, metric["better"], metric["bound"])
            lines.append(
                f"   {metric['name']:<22}{median_a:>14.6g}{median_b:>14.6g}"
                f"{median_b / median_a:>8.3f}x{metric['bound']:>8.2f}  {word}"
                f"  [{metric['unit']}, {metric['better']} is better]"
            )
        for metric in spec["per_layer"]:
            rows_a = _rows(old, name, "per_layer", metric["name"])
            rows_b = _rows(new, name, "per_layer", metric["name"])
            if rows_a is None or rows_b is None:
                continue
            value_a = statistics.median(row["value"] for row in rows_a)
            value_b = statistics.median(row["value"] for row in rows_b)
            ratio = f"{value_b / value_a:>8.3f}x" if value_a else "       - "
            lines.append(
                f"     {metric['name']:<36}{value_a:>14.6g}{value_b:>14.6g}{ratio}"
                f"  [{metric['unit']}]"
            )
    return "\n".join(lines)
