"""Text rendering of analysis results.

The graphical browser of the paper shows three linked panels (Figure 6):

* **left** — the metric (pattern) hierarchy; "the numbers left of the
  pattern names indicate the total execution time penalty in percent";
* **middle** — the distribution of the selected pattern across the call
  tree;
* **right** — the distribution of the selected pattern at the selected
  call path across the hierarchy of metahosts, nodes, and processes.

These functions produce the same information as indented text trees.
Values are shown exclusively (a node's own share, children subtracted) for
the metric panel — matching the browser — and inclusively elsewhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.patterns import metric_tree
from repro.analysis.result import AnalysisResult
from repro.errors import ReportError


def _severity_mark(pct: float) -> str:
    """Visual severity clue standing in for the browser's colored square."""
    if pct >= 10.0:
        return "###"
    if pct >= 1.0:
        return "##."
    if pct > 0.0:
        return "#.."
    return "..."


def render_metric_tree(result: AnalysisResult, min_pct: float = 0.0) -> str:
    """Left panel: the metric hierarchy with percent-of-total-time numbers."""
    total = result.metric_total("time")
    lines: List[str] = []
    metrics = metric_tree()
    children: Dict[Optional[str], List] = {}
    for metric in metrics:
        children.setdefault(metric.parent, []).append(metric)

    def emit(metric, depth: int) -> None:
        inclusive = result.metric_total(metric.name)
        exclusive = result.exclusive_total(metric.name)
        pct = 100.0 * inclusive / total if total > 0 else 0.0
        if pct < min_pct and depth > 0:
            return
        lines.append(
            f"{_severity_mark(pct)} {pct:6.2f}%  "
            f"{'  ' * depth}{metric.display}"
            f"  [incl {inclusive * 1e3:.3f} ms / excl {exclusive * 1e3:.3f} ms]"
        )
        for child in children.get(metric.name, []):
            emit(child, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


def render_call_tree(result: AnalysisResult, metric: str, min_pct: float = 0.0) -> str:
    """Middle panel: distribution of *metric* across the call tree."""
    by_callpath = result.cube.by_callpath(metric)
    total = result.metric_total(metric)
    if total <= 0.0:
        return f"(no severity recorded for metric {metric!r})"
    callpaths = result.callpaths
    regions = result.definitions.regions

    # Inclusive value per call path (own + descendants).
    inclusive: Dict[int, float] = {}

    def inclusive_value(cpid: int) -> float:
        if cpid in inclusive:
            return inclusive[cpid]
        value = by_callpath.get(cpid, 0.0) + sum(
            inclusive_value(child) for child in callpaths.children(cpid)
        )
        inclusive[cpid] = value
        return value

    lines: List[str] = [f"call tree for metric {metric!r}:"]

    def emit(cpid: int, depth: int) -> None:
        value = inclusive_value(cpid)
        pct = 100.0 * value / total
        if pct < min_pct:
            return
        name = regions.name_of(callpaths.path(cpid).region)
        own = by_callpath.get(cpid, 0.0)
        lines.append(
            f"{_severity_mark(pct)} {pct:6.2f}%  {'  ' * depth}{name}"
            f"  [incl {value * 1e3:.3f} ms / here {own * 1e3:.3f} ms]"
        )
        for child in sorted(
            callpaths.children(cpid), key=inclusive_value, reverse=True
        ):
            emit(child, depth + 1)

    for root in sorted(callpaths.roots(), key=inclusive_value, reverse=True):
        emit(root, 1)
    return "\n".join(lines)


def render_system_tree(
    result: AnalysisResult, metric: str, cpid: Optional[int] = None
) -> str:
    """Right panel: metric distribution across metahosts / nodes / processes.

    With *cpid* the distribution is restricted to one call path, matching
    the browser's linked-panel behavior.
    """
    if cpid is None:
        by_rank = result.cube.by_rank(metric)
    else:
        by_rank = result.cube.at(metric, cpid)
    total = sum(by_rank.values())
    definitions = result.definitions
    lines: List[str] = [
        f"system tree for metric {metric!r}"
        + (f" at call path {cpid}" if cpid is not None else "")
        + ":"
    ]
    if total <= 0.0:
        lines.append("(no severity recorded)")
        return "\n".join(lines)

    tree: Dict[int, Dict[int, Dict[int, float]]] = {}
    for rank, value in by_rank.items():
        loc = definitions.locations[rank]
        tree.setdefault(loc.machine, {}).setdefault(loc.node, {})[rank] = value

    for machine in sorted(tree):
        m_total = sum(v for node in tree[machine].values() for v in node.values())
        pct = 100.0 * m_total / total
        name = definitions.machine_names[machine]
        lines.append(
            f"{_severity_mark(pct)} {pct:6.2f}%  {name}  [{m_total * 1e3:.3f} ms]"
        )
        for node in sorted(tree[machine]):
            n_total = sum(tree[machine][node].values())
            n_pct = 100.0 * n_total / total
            lines.append(
                f"{_severity_mark(n_pct)} {n_pct:6.2f}%    node {node}"
                f"  [{n_total * 1e3:.3f} ms]"
            )
            for rank in sorted(tree[machine][node]):
                r_value = tree[machine][node][rank]
                r_pct = 100.0 * r_value / total
                lines.append(
                    f"{_severity_mark(r_pct)} {r_pct:6.2f}%      process {rank}"
                    f"  [{r_value * 1e3:.3f} ms]"
                )
    return "\n".join(lines)


def render_analysis(
    result: AnalysisResult,
    metric: Optional[str] = None,
    min_pct: float = 0.0,
) -> str:
    """Full three-panel report (the textual equivalent of Figure 6)."""
    if metric is not None:
        known = {m.name for m in metric_tree()}
        if metric not in known:
            raise ReportError(f"unknown metric {metric!r}")
    sections = [
        "=" * 72,
        f"analysis report (synchronization: {result.scheme_name})",
        f"total time: {result.total_time:.6f} s, "
        f"clock-condition violations: {result.violations.violations}",
        "=" * 72,
        render_metric_tree(result, min_pct=min_pct),
    ]
    if metric is not None:
        sections += [
            "-" * 72,
            render_call_tree(result, metric, min_pct=min_pct),
            "-" * 72,
            render_system_tree(result, metric),
        ]
    return "\n".join(sections)
