"""Edge-case tests for the world, runtime, and metric hierarchy."""

import numpy as np
import pytest

from repro.analysis.patterns import METRICS, metric_by_name, metric_tree
from repro.errors import (
    ArchiveCreationAborted,
    MPIUsageError,
    PatternError,
    SimulationError,
)
from repro.fs.filesystem import private_namespaces
from repro.sim.runtime import MetaMPIRuntime
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster


@pytest.fixture
def mc():
    return single_cluster(node_count=2, cpus_per_node=2)


def _noop(ctx):
    yield ctx.compute(0.001)


class TestWorldLifecycle:
    def test_double_launch_rejected(self, mc):
        world = World(mc, Placement.block(mc, 2), rng=np.random.default_rng(0))
        world.launch(_noop, seed=0)
        with pytest.raises(SimulationError, match="already launched"):
            world.launch(_noop, seed=0)

    def test_run_without_launch_rejected(self, mc):
        world = World(mc, Placement.block(mc, 2), rng=np.random.default_rng(0))
        with pytest.raises(SimulationError, match="nothing launched"):
            world.run()

    def test_max_events_backstop(self, mc):
        def spinner(ctx):
            while True:
                yield ctx.compute(0.0)

        world = World(
            mc, Placement.block(mc, 1), rng=np.random.default_rng(0), max_events=500
        )
        world.launch(spinner, seed=0)
        with pytest.raises(SimulationError, match="livelock"):
            world.run()

    def test_unknown_comm_id(self, mc):
        world = World(mc, Placement.block(mc, 2), rng=np.random.default_rng(0))
        with pytest.raises(MPIUsageError):
            world.comm_by_id(42)
        with pytest.raises(MPIUsageError):
            world.communicator("nope")

    def test_single_rank_collectives(self, mc):
        """Collectives on a one-member communicator complete immediately."""

        def app(ctx):
            yield ctx.comm.barrier()
            value = yield ctx.comm.allreduce(8, data="only")
            assert value == {0: "only"}
            got = yield ctx.comm.bcast(8, root=0, data="b")
            assert got == "b"

        world = World(mc, Placement.block(mc, 1), rng=np.random.default_rng(0))
        world.launch(app, seed=0)
        stats = world.run()
        assert stats.collectives == 3

    def test_mismatched_placement_rejected(self, mc):
        other = single_cluster(name="other", node_count=2, cpus_per_node=2)
        placement = Placement.block(other, 2)
        with pytest.raises(SimulationError):
            World(mc, placement, rng=np.random.default_rng(0))


class TestRuntimeEdges:
    def test_existing_archive_dir_aborts(self, mc):
        placement = Placement.block(mc, 2)
        namespaces = private_namespaces(mc.machine_names())
        namespaces[0].create_dir("/work/epik_experiment")
        runtime = MetaMPIRuntime(mc, placement, seed=0, namespaces=namespaces)
        with pytest.raises(ArchiveCreationAborted):
            runtime.run(_noop)

    def test_custom_archive_path(self, mc):
        placement = Placement.block(mc, 2)
        runtime = MetaMPIRuntime(
            mc, placement, seed=0, archive_path="/work/my_experiment"
        )
        run = runtime.run(_noop)
        assert run.reader(0).available_ranks() == [0, 1]

    def test_zero_event_app_still_archives(self, mc):
        def silent(ctx):
            return
            yield  # pragma: no cover

        placement = Placement.block(mc, 2)
        run = MetaMPIRuntime(mc, placement, seed=0).run(silent)
        assert run.reader(0).read_trace(0) == []


class TestMetricHierarchyStructure:
    def test_unique_names_and_displays(self):
        names = [m.name for m in METRICS]
        assert len(names) == len(set(names))
        displays = [m.display for m in METRICS]
        assert len(displays) == len(set(displays))

    def test_parents_exist_and_precede(self):
        seen = set()
        for metric in metric_tree():
            if metric.parent is not None:
                assert metric.parent in seen, metric.name
            seen.add(metric.name)

    def test_single_root(self):
        roots = [m for m in METRICS if m.parent is None]
        assert [m.name for m in roots] == ["time"]

    def test_lookup(self):
        assert metric_by_name("late-sender").display == "Late Sender"
        with pytest.raises(PatternError):
            metric_by_name("nope")

    def test_every_metric_has_description(self):
        assert all(m.description for m in METRICS)
