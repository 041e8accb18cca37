"""Drivers for the paper's figures.

* Figure 1 — clocks with initial offset and different constant drifts.
* Figure 3 — flat vs hierarchical synchronization accuracy (intra-metahost
  pairwise offset errors under both schemes).
* Figure 4 — the Late Sender and Wait at N×N pattern semantics on
  micro-workloads.
* Figures 6/7 — the MetaTrace analyses (three-metahost heterogeneous vs
  one-metahost homogeneous).

Figures 2 and 5 are topology schematics; their content is the structure of
:func:`repro.topology.presets.viola_testbed` and is rendered by the
corresponding benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.patterns import (
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    GRID_WAIT_AT_NXN,
    LATE_SENDER,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
)
# Analysis is consumed through the stable facade (safe: repro.api defers
# its own experiment imports until run_experiment() is called).
from repro.api import AnalysisRequest, AnalysisResult, analyze, verify_archives
from repro.apps.imbalance import make_imbalance_app, make_nxn_imbalance_app
from repro.apps.metatrace import make_metatrace_app
from repro.clocks.clock import LinearClock
from repro.clocks.sync import (
    FlatInterpolation,
    HierarchicalInterpolation,
    SyncScheme,
    true_master_time,
)
from repro.errors import ArchiveError, ExperimentError
from repro.experiments.configs import experiment1, experiment2
from repro.ids import NodeId
from repro.sim.runtime import MetaMPIRuntime, RunResult
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer


# -- Figure 1 -----------------------------------------------------------------


def run_figure1(
    duration_s: float = 100.0,
    samples: int = 11,
    clock_a: LinearClock = LinearClock(offset_s=2e-3, drift=4e-6),
    clock_b: LinearClock = LinearClock(offset_s=-1e-3, drift=-3e-6),
) -> List[Tuple[float, float, float, float]]:
    """Offset-vs-time series for two drifting clocks.

    Returns ``(true_time, local_a, local_b, offset_a_minus_b)`` rows; the
    offset changes linearly with time — the situation Figure 1 sketches and
    the reason a single offset measurement cannot synchronize a whole run.
    """
    rows = []
    for t in np.linspace(0.0, duration_s, samples):
        a = clock_a.local_time(float(t))
        b = clock_b.local_time(float(t))
        rows.append((float(t), a, b, a - b))
    return rows


# -- Figure 3 -----------------------------------------------------------------


@dataclass
class Figure3Outcome:
    """Intra-metahost pairwise synchronization errors per scheme."""

    pair_errors_us: Dict[str, List[float]]

    def max_abs_us(self, scheme: str) -> float:
        errors = self.pair_errors_us[scheme]
        return max(abs(e) for e in errors) if errors else 0.0


def run_figure3(run: RunResult, at_fraction: float = 0.5) -> Figure3Outcome:
    """Compare flat and hierarchical schemes against ground truth.

    For every pair of distinct nodes on the same (non-master) metahost,
    computes the error of the synchronized timestamp *difference* for two
    simultaneous events at mid-run — the quantity whose accuracy decides
    whether intra-metahost clock conditions hold.
    """
    if run.clocks is None:
        raise ExperimentError("run result carries no ground-truth clocks")
    master = run.placement.slot(0).node
    schemes: List[SyncScheme] = [FlatInterpolation(), HierarchicalInterpolation()]
    outcome = Figure3Outcome(pair_errors_us={s.name: [] for s in schemes})
    t = run.stats.finish_time * at_fraction

    nodes_by_machine: Dict[int, List[NodeId]] = {}
    for node in run.sync_data.records:
        nodes_by_machine.setdefault(node.machine, []).append(node)

    for scheme in schemes:
        synchronized = scheme.convert_all(run.sync_data)
        for machine, nodes in sorted(nodes_by_machine.items()):
            for i, node_a in enumerate(sorted(nodes)):
                for node_b in sorted(nodes)[i + 1 :]:
                    local_a = run.clocks.clock(node_a).local_time(t)
                    local_b = run.clocks.clock(node_b).local_time(t)
                    est = synchronized.to_master(node_a, local_a) - synchronized.to_master(
                        node_b, local_b
                    )
                    truth = true_master_time(
                        run.clocks, master, node_a, local_a
                    ) - true_master_time(run.clocks, master, node_b, local_b)
                    outcome.pair_errors_us[scheme.name].append((est - truth) * 1e6)
    return outcome


def raise_on_damage(label: str, *verifications) -> None:
    """Strict archive verification: raise on the first damaged verdict."""
    for verification in verifications:
        if not verification.ok:
            raise ArchiveError(
                f"{label} archive verification failed:\n{verification.text()}"
            )


# -- Figure 4 -----------------------------------------------------------------


def run_figure4(
    seed: int = 3,
    request: Optional[AnalysisRequest] = None,
    pool=None,
    deadline=None,
) -> Dict[str, AnalysisResult]:
    """Pattern-semantics micro-experiments.

    ``late_sender``: a two-phase ring where rank 1 computes much longer, so
    its successor waits in the receive.  ``wait_at_nxn``: unequal compute
    before an allreduce.  Both run on a two-metahost machine so the grid
    variants fire as well.
    """
    metacomputer = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    placement = Placement.block(metacomputer, 4)

    work = {0: 0.01, 1: 0.05, 2: 0.01, 3: 0.01}
    runtime = MetaMPIRuntime(metacomputer, placement, seed=seed)
    ls_run = runtime.run(make_imbalance_app(work, iterations=4))

    runtime2 = MetaMPIRuntime(metacomputer, placement, seed=seed + 1)
    nxn_run = runtime2.run(make_nxn_imbalance_app(work, iterations=4))

    request = request or AnalysisRequest()
    if request.verify_archive:
        raise_on_damage("figure4", verify_archives(ls_run), verify_archives(nxn_run))
    return {
        "late_sender": analyze(ls_run, request, pool=pool, deadline=deadline),
        "wait_at_nxn": analyze(nxn_run, request, pool=pool, deadline=deadline),
    }


# -- Figures 6 and 7 (MetaTrace) -------------------------------------------------


@dataclass
class MetaTraceOutcome:
    """Key quantities of one MetaTrace analysis (Figure 6 or 7)."""

    run: RunResult
    result: AnalysisResult
    label: str

    @property
    def grid_late_sender_pct(self) -> float:
        return self.result.pct(GRID_LATE_SENDER)

    @property
    def grid_wait_at_barrier_pct(self) -> float:
        return self.result.pct(GRID_WAIT_AT_BARRIER)

    @property
    def wait_at_barrier_pct(self) -> float:
        return self.result.pct(WAIT_AT_BARRIER)

    @property
    def late_sender_pct(self) -> float:
        return self.result.pct(LATE_SENDER)

    @property
    def grid_wait_at_nxn_pct(self) -> float:
        return self.result.pct(GRID_WAIT_AT_NXN)

    @property
    def wait_at_nxn_pct(self) -> float:
        return self.result.pct(WAIT_AT_NXN)

    def late_sender_in(self, region: str) -> float:
        """Late Sender seconds whose waiting call sits under *region*."""
        return self.result.metric_under_region(LATE_SENDER, region)

    def wait_at_barrier_in(self, region: str) -> float:
        return self.result.metric_under_region(WAIT_AT_BARRIER, region)

    def summary(self) -> Dict[str, float]:
        return {
            "total_time_s": self.result.total_time,
            "late_sender_pct": self.late_sender_pct,
            "grid_late_sender_pct": self.grid_late_sender_pct,
            "wait_at_barrier_pct": self.wait_at_barrier_pct,
            "grid_wait_at_barrier_pct": self.grid_wait_at_barrier_pct,
            "wait_at_nxn_pct": self.wait_at_nxn_pct,
            "grid_wait_at_nxn_pct": self.grid_wait_at_nxn_pct,
        }


#: Experiment name → the ``figure=`` of :func:`run_metatrace_experiment`.
METATRACE_FIGURES: Dict[str, int] = {"figure6": 1, "figure7": 2}


def run_metatrace_experiment(
    *,
    figure: Optional[int] = None,
    seed: int = 11,
    coupling_intervals: Optional[int] = None,
    request: Optional[AnalysisRequest] = None,
    pool=None,
    deadline=None,
) -> MetaTraceOutcome:
    """Run and analyze MetaTrace Experiment 1 (Figure 6) or 2 (Figure 7).

    ``figure=`` selects the experiment (1 → the three-metahost analysis of
    Figure 6, 2 → the one-metahost analysis of Figure 7); every argument is
    keyword-only.  ``request=`` describes the analysis (jobs, degraded,
    timeline, archive verification) as in :func:`repro.api.analyze`.
    """
    if figure is None:
        raise ExperimentError("run_metatrace_experiment requires figure=1 or figure=2")
    if figure == 1:
        metacomputer, placement, config = experiment1()
        label = "Experiment 1 (three metahosts)"
    elif figure == 2:
        metacomputer, placement, config = experiment2()
        label = "Experiment 2 (one metahost)"
    else:
        raise ExperimentError(f"no experiment {figure}; Table 3 defines 1 and 2")
    if coupling_intervals is not None:
        from dataclasses import replace

        config = replace(config, coupling_intervals=coupling_intervals)
    runtime = MetaMPIRuntime(
        metacomputer, placement, seed=seed, subcomms=config.subcomms()
    )
    run = runtime.run(make_metatrace_app(config))
    request = request or AnalysisRequest()
    if request.verify_archive:
        raise_on_damage(f"figure{5 + figure}", verify_archives(run))
    result = analyze(run, request, pool=pool, deadline=deadline)
    return MetaTraceOutcome(run=run, result=result, label=label)


def metatrace_report_text(outcome: MetaTraceOutcome) -> str:
    """The canonical rendered report of one MetaTrace analysis.

    ``repro.api.run_experiment("figure6"/"figure7")`` and the analysis
    service both emit exactly this text, so a served job's report can be
    compared byte-for-byte against a direct run.
    """
    from repro.report.render import render_analysis

    header = [
        outcome.label,
        f"grid late sender:     {outcome.grid_late_sender_pct:6.2f} % of time",
        f"grid wait at barrier: {outcome.grid_wait_at_barrier_pct:6.2f} % of time",
        f"grid late-sender by metahost pair (causer -> waiter): "
        f"{ {f'{c}->{w}': round(v, 2) for (c, w), v in outcome.result.grid_pair_breakdown(GRID_LATE_SENDER).items()} }",
        f"grid barrier-wait by metahost pair: "
        f"{ {f'{c}->{w}': round(v, 2) for (c, w), v in outcome.result.grid_pair_breakdown(GRID_WAIT_AT_BARRIER).items()} }",
        "",
    ]
    return "\n".join(header) + render_analysis(
        outcome.result, metric=LATE_SENDER, min_pct=0.5
    )
