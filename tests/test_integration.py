"""Cross-module integration scenarios.

Each test exercises the full tool pipeline (simulate → trace → archive →
synchronize → replay → report) end to end, including the comparative
workflow of the paper's Section 5.
"""

import pytest

from repro.analysis.patterns import (
    GRID_WAIT_AT_BARRIER,
    LATE_SENDER,
    TIME,
    WAIT_AT_BARRIER,
)
from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app, make_imbalance_app
from repro.clocks.sync import SCHEMES
from repro.fs.filesystem import shared_namespace
from repro.report.algebra import canonicalize, diff
from repro.report.render import render_analysis
from repro.report.serialize import experiment_from_dict, experiment_to_dict
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer, viola_testbed

from tests.conftest import run_app


class TestFullPipeline:
    def test_viola_run_to_report(self):
        """A small heterogeneous run produces a coherent rendered report."""
        mc = viola_testbed()
        placement = Placement.from_counts(mc, [("FZJ-XD1", 2, 2), ("CAESAR", 2, 2)])
        work = {r: 0.02 for r in range(8)}
        run = run_app(mc, placement, _placement_app(work), seed=4)
        result = analyze(run)
        text = render_analysis(result, metric=WAIT_AT_BARRIER)
        assert "Wait at Barrier" in text
        assert "FZJ-XD1" in text or "CAESAR" in text

    def test_analysis_reads_only_local_archives(self):
        """Every rank's trace is consumed via its own metahost's mounts."""
        mc = uniform_metacomputer(metahost_count=3, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, 6)
        run = MetaMPIRuntime(mc, placement, seed=0).run(
            make_imbalance_app({r: 0.01 for r in range(6)})
        )
        assert run.archive_outcome.partial_archive_count == 3
        # Cross-check: no archive holds a foreign trace.
        for machine in run.machines_used:
            reader = run.reader(machine)
            own_ranks = set(placement.ranks_on_machine(machine))
            assert set(reader.available_ranks()) == own_ranks
        result = analyze(run)
        assert result.metric_total(TIME) > 0

    def test_same_workload_shared_vs_private_fs_same_analysis(self):
        """Archive layout must not change analysis results."""
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, 4)
        work = {0: 0.05, 1: 0.01, 2: 0.01, 3: 0.01}
        app = make_barrier_imbalance_app(work)
        private = MetaMPIRuntime(mc, placement, seed=1).run(app)
        shared = MetaMPIRuntime(
            mc,
            placement,
            seed=1,
            namespaces=shared_namespace(mc.machine_names()),
        ).run(app)
        a = analyze(private)
        b = analyze(shared)
        assert a.cube.data == b.cube.data

    def test_scheme_choice_changes_violations_not_structure(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, 4)
        run = MetaMPIRuntime(mc, placement, seed=6, clock_drift_scale=5e-6).run(
            make_imbalance_app({r: 0.02 for r in range(4)}, iterations=30)
        )
        results = {s.name: analyze(run, scheme=s) for s in SCHEMES}
        # Structure (matched messages, total severity of TIME) identical…
        messages = {r.violations.total for r in results.values()}
        assert len(messages) == 1
        # …while violation counts may differ by scheme quality.
        assert (
            results["two-hierarchical-offsets"].violations.violations
            <= results["single-flat-offset"].violations.violations
        )


class TestComparativeWorkflow:
    """The Section-5 methodology: compare heterogeneous vs homogeneous."""

    def test_diff_localizes_the_improvement(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, 4)
        hetero_work = {0: 0.1, 1: 0.1, 2: 0.01, 3: 0.01}
        homog_work = {r: 0.05 for r in range(4)}
        hetero = analyze(
            MetaMPIRuntime(mc, placement, seed=2).run(
                make_barrier_imbalance_app(hetero_work)
            )
        )
        homog = analyze(
            MetaMPIRuntime(mc, placement, seed=2).run(
                make_barrier_imbalance_app(homog_work)
            )
        )
        delta = diff(canonicalize(hetero, "hetero"), canonicalize(homog, "homog"))
        assert delta.metric_total(WAIT_AT_BARRIER) > 0.1
        assert delta.value_in_region(WAIT_AT_BARRIER, "MPI_Barrier") > 0.1

    def test_grid_severity_only_in_spanning_runs(self):
        # One CPU per node: 4 ranks span both metahosts in block placement.
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        work = {0: 0.1, 1: 0.1, 2: 0.01, 3: 0.01}
        spanning = analyze(
            run_app(mc, 4, make_barrier_imbalance_app(work), seed=3)
        )
        # Same workload confined to one metahost.
        placement = Placement.from_counts(mc, [("metahost0", 2, 1)])
        confined_run = MetaMPIRuntime(mc, placement, seed=3).run(
            make_barrier_imbalance_app(work)
        )
        confined = analyze(confined_run)
        assert spanning.metric_total(GRID_WAIT_AT_BARRIER) > 0.0
        assert confined.metric_total(GRID_WAIT_AT_BARRIER) == 0.0

    def test_round_trip_through_json_preserves_comparison(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        work = {0: 0.05, 1: 0.01, 2: 0.01, 3: 0.01}
        result = analyze(run_app(mc, 4, make_barrier_imbalance_app(work)))
        data = canonicalize(result, "x")
        restored = experiment_from_dict(experiment_to_dict(data))
        assert restored.metric_total(LATE_SENDER) == pytest.approx(
            data.metric_total(LATE_SENDER)
        )


def _placement_app(work):
    def app_factory(w):
        return make_barrier_imbalance_app(w)

    return app_factory(work)


def run_app(mc, placement_or_n, app, seed=0):
    if isinstance(placement_or_n, int):
        placement = Placement.block(mc, placement_or_n)
    else:
        placement = placement_or_n
    return MetaMPIRuntime(mc, placement, seed=seed).run(app)
