"""Tests for hardware-synchronized metahosts (has_global_clock)."""

import pytest

from repro.api import analyze
from repro.apps.imbalance import make_imbalance_app
from repro.clocks.sync import HierarchicalInterpolation
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.machine import CpuSpec, homogeneous_metahost
from repro.topology.metacomputer import Metacomputer, Placement
from repro.topology.network import LinkClass, LinkSpec


def _machine(global_clock_on_second: bool) -> Metacomputer:
    ordinary = homogeneous_metahost(
        "ordinary", node_count=2, cpus_per_node=1,
        cpu=CpuSpec("c", 2.0),
        internal_latency_s=2e-5, internal_latency_jitter_s=8e-7,
    )
    synced = homogeneous_metahost(
        "synced", node_count=2, cpus_per_node=1,
        cpu=CpuSpec("c", 2.0),
        internal_latency_s=2e-5, internal_latency_jitter_s=8e-7,
        has_global_clock=global_clock_on_second,
    )
    link = LinkSpec(
        latency_s=1e-3, jitter_s=4e-6, bandwidth_bps=1.25e9,
        link_class=LinkClass.EXTERNAL, name="x",
    )
    return Metacomputer([ordinary, synced], external_links={(0, 1): link})


@pytest.fixture(scope="module")
def run():
    mc = _machine(global_clock_on_second=True)
    placement = Placement.block(mc, 4)
    runtime = MetaMPIRuntime(mc, placement, seed=13)
    return runtime.run(
        make_imbalance_app({r: 0.02 for r in range(4)}, iterations=5)
    )


class TestGlobalClockMetahost:
    def test_nodes_share_one_clock(self, run):
        clocks = run.clocks
        nodes = [n for n in clocks.nodes() if n.machine == 1]
        assert len(nodes) == 2
        assert clocks.clock(nodes[0]) is clocks.clock(nodes[1])

    def test_ordinary_metahost_nodes_differ(self, run):
        clocks = run.clocks
        nodes = [n for n in clocks.nodes() if n.machine == 0]
        assert clocks.clock(nodes[0]) is not clocks.clock(nodes[1])

    def test_sync_data_skips_slave_measurements(self, run):
        """Paper: 'In the case that a metahost already provides a global
        clock, this second step is omitted.'"""
        assert 1 in run.sync_data.global_clock_machines
        for node, record in run.sync_data.records.items():
            if node.machine == 1 and node != run.sync_data.local_masters[1]:
                assert record.local_start is None
                assert record.local_end is None

    def test_hierarchical_scheme_still_analyzes_cleanly(self, run):
        result = analyze(run, scheme=HierarchicalInterpolation())
        assert result.violations.violations == 0

    def test_synced_slaves_use_local_master_converter(self, run):
        scheme = HierarchicalInterpolation()
        converters = scheme.converters(run.sync_data)
        nodes = sorted(n for n in run.sync_data.records if n.machine == 1)
        assert converters[nodes[0]].convert(1.0) == pytest.approx(
            converters[nodes[1]].convert(1.0)
        )
