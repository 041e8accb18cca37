"""Tests for MPI_Comm_split."""

import pytest

from repro.errors import MPIUsageError
from repro.topology.presets import single_cluster
from tests.conftest import run_app
from tests.test_sim_mpi_p2p import run_world


@pytest.fixture
def mc():
    return single_cluster(node_count=4, cpus_per_node=2)


class TestSplit:
    def test_partitions_by_color(self, mc):
        seen = {}

        def app(ctx):
            sub = yield ctx.comm.split(color=ctx.rank % 2, key=0)
            seen[ctx.rank] = (sub.rank, sub.size, sub.name)
            yield sub.barrier()

        run_world(mc, 4, app)
        # Even ranks 0,2 → one comm; odd ranks 1,3 → another.
        assert seen[0][:2] == (0, 2)
        assert seen[2][:2] == (1, 2)
        assert seen[1][:2] == (0, 2)
        assert seen[3][:2] == (1, 2)
        assert seen[0][2] != seen[1][2]  # distinct communicators

    def test_key_orders_members(self, mc):
        seen = {}

        def app(ctx):
            # Reverse ordering: higher old rank gets lower key.
            sub = yield ctx.comm.split(color=0, key=ctx.size - ctx.rank)
            seen[ctx.rank] = sub.rank

        run_world(mc, 3, app)
        assert seen == {0: 2, 1: 1, 2: 0}

    def test_undefined_color_gets_none(self, mc):
        seen = {}

        def app(ctx):
            sub = yield ctx.comm.split(color=None if ctx.rank == 0 else 7)
            seen[ctx.rank] = sub
            if sub is not None:
                yield sub.barrier()

        run_world(mc, 3, app)
        assert seen[0] is None
        assert seen[1] is not None and seen[1].size == 2

    def test_split_communicator_usable_for_p2p(self, mc):
        got = {}

        def app(ctx):
            sub = yield ctx.comm.split(color=ctx.rank // 2, key=0)
            if sub.rank == 0:
                yield sub.send(1, 64, tag=5, data=f"grp{ctx.rank // 2}")
            else:
                msg = yield sub.recv(0, 5)
                got[ctx.rank] = msg.data

        run_world(mc, 4, app)
        assert got == {1: "grp0", 3: "grp1"}

    def test_split_synchronizes_like_collective(self, mc):
        after = {}

        def app(ctx):
            yield ctx.compute(0.1 * ctx.rank)
            sub = yield ctx.comm.split(color=0)
            after[ctx.rank] = ctx.now
            yield sub.barrier()

        run_world(mc, 3, app)
        # Nobody finishes the split before the last caller entered (0.2 s).
        assert all(t >= 0.2 for t in after.values())

    def test_repeated_splits_get_fresh_names(self, mc):
        names = []

        def app(ctx):
            for _ in range(2):
                sub = yield ctx.comm.split(color=0)
                if ctx.rank == 0:
                    names.append(sub.name)

        run_world(mc, 2, app)
        assert len(set(names)) == 2

    def test_split_on_foreign_comm_rejected(self, mc):
        import numpy as np

        from repro.sim.mpi import World
        from repro.topology.metacomputer import Placement

        world = World(mc, Placement.block(mc, 3), rng=np.random.default_rng(0))
        world.new_communicator("pair", [1, 2])

        def app(ctx):
            sub = ctx.get_comm("pair")
            if ctx.rank == 0:
                # Rank 0 is not a member; forging a request must fail.
                from repro.sim.mpi import SplitReq

                yield SplitReq(world.communicator("pair").id, 0, 0)
            elif sub is not None:
                yield sub.split(color=0)

        world.launch(app, seed=0)
        with pytest.raises(MPIUsageError):
            world.run()

    def test_split_is_traced(self, mc):
        def app(ctx):
            sub = yield ctx.comm.split(color=0)
            yield sub.barrier()

        run = run_app(mc, 2, app)
        assert "MPI_Comm_split" in run.definitions.regions.names()


class TestSplitArchival:
    def test_split_comms_recorded_in_definitions(self, mc):
        def app(ctx):
            sub = yield ctx.comm.split(color=ctx.rank % 2)
            yield sub.barrier()

        run = run_app(mc, 4, app)
        names = {name for name, _ranks in run.definitions.communicators.values()}
        assert any("split" in name for name in names)
        # Both color groups archived with their members.
        split_comms = [
            ranks
            for name, ranks in run.definitions.communicators.values()
            if "split" in name
        ]
        assert sorted(map(tuple, split_comms)) == [(0, 2), (1, 3)]

    def test_split_trace_predictable(self, mc):
        """A trace containing a split can still be skeletonized."""
        from repro.api import analyze
        from repro.predict import predict_run, skeleton_from_run
        from repro.topology.metacomputer import Placement

        def app(ctx):
            with ctx.region("main"):
                yield ctx.compute(0.02 * (1 + ctx.rank))
                sub = yield ctx.comm.split(color=ctx.rank % 2)
                yield sub.allreduce(64)

        run = run_app(mc, 4, app, seed=6)
        direct = analyze(run)
        predicted = predict_run(
            skeleton_from_run(run, direct), mc, Placement.block(mc, 4), seed=7
        )
        # The split replays as a barrier; the subcomm allreduce replays
        # exactly (its communicator is archived).
        assert predicted.result.metric_total("wait-at-nxn") > 0.0
