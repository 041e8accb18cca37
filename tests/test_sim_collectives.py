"""Tests for the collective cost model (synchronization semantics)."""

import pytest

from repro.errors import MPIUsageError
from repro.sim import collectives as coll
from repro.sim.mpi import CommunicatorData
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer

PARAMS = SimParams()


@pytest.fixture
def single():
    return single_cluster(node_count=4, cpus_per_node=2)


@pytest.fixture
def multi():
    return uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)


def _exits(op, enters, mc, n, root=0, size=0, released_at=None):
    """Comm rank -> exit time, fed to ``exits_on_entry`` one entry at a time
    in time order, as the world does.  Every member's exit is computed once,
    and all are known once the last member has entered.  *released_at*, if
    given, collects comm rank -> the comm rank whose entry released it."""
    placement = Placement.block(mc, n)
    cost = coll.comm_alpha_beta(mc, [placement.location(r) for r in range(n)], PARAMS)
    entered, exits = {}, {}
    for rank in sorted(enters, key=lambda r: (enters[r], r)):
        entered[rank] = enters[rank]
        for member, exit_time in coll.exits_on_entry(
            op, root, size, entered, set(exits), rank, size, n, cost
        ):
            assert member not in exits
            exits[member] = exit_time
            if released_at is not None:
                released_at[member] = rank
    assert sorted(exits) == sorted(enters)
    return exits


class TestBarrier:
    def test_nobody_leaves_before_last_entry(self, single):
        enters = {0: 0.0, 1: 5.0, 2: 1.0, 3: 2.0}
        exits = _exits(coll.BARRIER, enters, single, 4)
        assert all(t >= 5.0 for t in exits.values())

    def test_everyone_leaves_together(self, single):
        enters = {0: 0.0, 1: 5.0, 2: 1.0, 3: 2.0}
        released_at = {}
        exits = _exits(coll.BARRIER, enters, single, 4, released_at=released_at)
        assert len(set(exits.values())) == 1
        assert set(released_at.values()) == {1}  # all by the last entry


class TestNxN:
    @pytest.mark.parametrize("op", [coll.ALLREDUCE, coll.ALLGATHER, coll.ALLTOALL])
    def test_inherent_synchronization(self, single, op):
        enters = {0: 0.0, 1: 3.0, 2: 0.5, 3: 0.5}
        exits = _exits(op, enters, single, 4, size=1024)
        assert all(t >= 3.0 for t in exits.values())

    def test_alltoall_costs_more_than_allreduce(self, single):
        enters = {r: 0.0 for r in range(4)}
        a2a = _exits(coll.ALLTOALL, enters, single, 4, size=10**6)
        ar = _exits(coll.ALLREDUCE, enters, single, 4, size=10**6)
        assert a2a[0] > ar[0]

    def test_external_links_dominate_cost(self, single, multi):
        local = _exits(
            coll.ALLREDUCE, {r: 0.0 for r in range(4)}, single, 4, size=1024
        )
        spanning = _exits(
            coll.ALLREDUCE, {r: 0.0 for r in range(8)}, multi, 8, size=1024
        )
        # The multi-metahost communicator pays external latency per stage.
        assert max(spanning.values()) > max(local.values())


class TestRooted:
    def test_bcast_nonroot_waits_for_root(self, single):
        enters = {0: 10.0, 1: 0.0, 2: 0.0, 3: 0.0}
        released_at = {}
        exits = _exits(coll.BCAST, enters, single, 4, root=0, size=64, released_at=released_at)
        assert all(exits[r] > 10.0 for r in (1, 2, 3))
        assert released_at == {0: 0, 1: 0, 2: 0, 3: 0}  # by the root's entry

    def test_bcast_early_root_leaves_quickly(self, single):
        enters = {0: 0.0, 1: 50.0, 2: 50.0, 3: 50.0}
        released_at = {}
        exits = _exits(coll.BCAST, enters, single, 4, root=0, size=64, released_at=released_at)
        assert exits[0] < 1.0  # root does not wait for receivers
        assert released_at == {0: 0, 1: 1, 2: 2, 3: 3}  # each on its own entry

    def test_reduce_root_waits_for_last(self, single):
        enters = {0: 0.0, 1: 7.0, 2: 0.0, 3: 0.0}
        released_at = {}
        exits = _exits(coll.REDUCE, enters, single, 4, root=0, size=64, released_at=released_at)
        assert exits[0] > 7.0
        assert exits[2] < 1.0  # early contributor leaves after injecting
        assert released_at == {0: 1, 1: 1, 2: 2, 3: 3}


class TestInvariantsAndBytes:
    def test_exit_never_before_entry(self, multi):
        enters = {r: float(r) for r in range(8)}
        for op in coll.ALL_COLLECTIVES:
            exits = _exits(op, enters, multi, 8, root=3, size=4096)
            for r, enter in enters.items():
                assert exits[r] >= enter

    def test_empty_communicator_rejected(self):
        with pytest.raises(MPIUsageError):
            CommunicatorData(0, "empty", [])

    def test_bytes_moved_barrier(self):
        assert coll.bytes_moved(coll.BARRIER, 100, 4, 0, 0) == (0, 0)

    def test_bytes_moved_allreduce(self):
        sent, recvd = coll.bytes_moved(coll.ALLREDUCE, 100, 4, 1, 0)
        assert sent == 100 and recvd == 300

    def test_bytes_moved_bcast(self):
        assert coll.bytes_moved(coll.BCAST, 100, 4, 0, 0) == (300, 0)
        assert coll.bytes_moved(coll.BCAST, 100, 4, 2, 0) == (0, 100)

    def test_bytes_moved_gather(self):
        assert coll.bytes_moved(coll.GATHER, 100, 4, 0, 0) == (0, 300)
        assert coll.bytes_moved(coll.GATHER, 100, 4, 3, 0) == (100, 0)
