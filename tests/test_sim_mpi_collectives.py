"""Tests for collective operations through the world."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIUsageError
from repro.sim.mpi import CollectiveReq
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster
from tests.test_sim_mpi_p2p import run_world


@pytest.fixture
def mc():
    return single_cluster(node_count=4, cpus_per_node=2)


class TestBarrier:
    def test_barrier_synchronizes(self, mc):
        after = {}

        def app(ctx):
            yield ctx.compute(0.1 * ctx.rank)
            yield ctx.comm.barrier()
            after[ctx.rank] = ctx.now

        run_world(mc, 4, app)
        # Nobody leaves before the slowest rank entered (t = 0.3).
        assert all(t >= 0.3 for t in after.values())
        assert max(after.values()) - min(after.values()) < 1e-6

    def test_multiple_barriers_ordered(self, mc):
        def app(ctx):
            for _ in range(5):
                yield ctx.comm.barrier()

        _, stats = run_world(mc, 4, app)
        assert stats.collectives == 5


class TestDataMovement:
    def test_bcast_delivers_root_data(self, mc):
        got = {}

        def app(ctx):
            value = yield ctx.comm.bcast(64, root=2, data="payload" if ctx.rank == 2 else None)
            got[ctx.rank] = value

        run_world(mc, 4, app)
        assert all(v == "payload" for v in got.values())

    def test_allreduce_returns_all_contributions(self, mc):
        got = {}

        def app(ctx):
            contributions = yield ctx.comm.allreduce(8, data=ctx.rank * 10)
            got[ctx.rank] = contributions

        run_world(mc, 3, app)
        for rank in range(3):
            assert got[rank] == {0: 0, 1: 10, 2: 20}

    def test_reduce_only_root_sees_data(self, mc):
        got = {}

        def app(ctx):
            result = yield ctx.comm.reduce(8, root=1, data=ctx.rank)
            got[ctx.rank] = result

        run_world(mc, 3, app)
        assert got[1] == {0: 0, 1: 1, 2: 2}
        assert got[0] is None and got[2] is None

    def test_gather_scatter_alltoall_complete(self, mc):
        def app(ctx):
            yield ctx.comm.gather(128, root=0, data=ctx.rank)
            yield ctx.comm.scatter(128, root=0, data="chunks" if ctx.rank == 0 else None)
            yield ctx.comm.allgather(64, data=ctx.rank)
            yield ctx.comm.alltoall(64, data=ctx.rank)

        _, stats = run_world(mc, 4, app)
        assert stats.collectives == 4


class TestSubcommunicators:
    def _world(self, mc, app, subcomm_ranks):
        placement = Placement.block(mc, 4)
        world = World(mc, placement, rng=np.random.default_rng(0))
        world.new_communicator("sub", subcomm_ranks)
        world.launch(app, seed=0)
        world.run()
        return world

    def test_subcomm_collective_only_involves_members(self, mc):
        after = {}

        def app(ctx):
            sub = ctx.get_comm("sub")
            if sub is not None:
                yield ctx.compute(0.1 * sub.rank)
                yield sub.barrier()
                after[ctx.rank] = ctx.now
            else:
                yield ctx.compute(0.01)

        self._world(mc, app, [1, 3])
        assert set(after) == {1, 3}

    def test_subcomm_rank_translation(self, mc):
        seen = {}

        def app(ctx):
            sub = ctx.get_comm("sub")
            if sub is None:
                return
            seen[ctx.rank] = (sub.rank, sub.size)
            if sub.rank == 0:
                yield sub.send(1, 64, data="within-sub")
            else:
                msg = yield sub.recv(0)
                seen["msg_source_global"] = msg.source_global

        self._world(mc, app, [2, 3])
        assert seen[2] == (0, 2)
        assert seen[3] == (1, 2)
        assert seen["msg_source_global"] == 2

    def test_nonmember_cannot_use_subcomm(self, mc):
        def app(ctx):
            comm = ctx.get_comm("sub")
            if ctx.rank == 0:
                assert comm is None
            yield ctx.comm.barrier()

        self._world(mc, app, [1, 2])

    def test_duplicate_comm_name_rejected(self, mc):
        placement = Placement.block(mc, 2)
        world = World(mc, placement, rng=np.random.default_rng(0))
        world.new_communicator("x", [0])
        with pytest.raises(MPIUsageError):
            world.new_communicator("x", [1])


class TestCollectiveErrors:
    def test_operation_mismatch_detected(self, mc):
        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.barrier()
            else:
                yield ctx.comm.allreduce(8)

        with pytest.raises((MPIUsageError, DeadlockError)):
            run_world(mc, 2, app)

    def test_root_mismatch_detected(self, mc):
        def app(ctx):
            yield ctx.comm.bcast(8, root=ctx.rank)

        with pytest.raises(MPIUsageError):
            run_world(mc, 2, app)

    def test_partial_collective_deadlocks(self, mc):
        def app(ctx):
            if ctx.rank != 0:
                yield ctx.comm.barrier()

        with pytest.raises(DeadlockError):
            run_world(mc, 3, app)

    @pytest.mark.parametrize(
        "op, root",
        [
            ("MPI_Reduce", -1),
            ("MPI_Reduce", 3),  # == size
            ("MPI_Bcast", 5),
            ("MPI_Magic", 0),
        ],
        ids=["root-1", "root=size", "root>size", "unknown-op"],
    )
    def test_bad_request_refused_at_entry(self, mc, op, root):
        """A hand-built request bypasses the builders' checks; the first
        member to enter with it is refused, before anyone is released."""

        def app(ctx):
            yield ctx.compute(0.001 * ctx.rank)
            yield CollectiveReq(ctx.comm.id, op, 8, root)

        with pytest.raises(MPIUsageError, match="^rank 0 called"):
            run_world(mc, 3, app)
