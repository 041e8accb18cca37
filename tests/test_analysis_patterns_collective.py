"""Tests for collective wait-state patterns (synthetic instances)."""

import pytest

from repro.analysis.matching import CollectiveInstance, CollRecord, MPIOpInstance
from repro.analysis.patterns.collective import (
    BarrierCompletionPattern,
    EarlyReducePattern,
    GridWaitAtBarrierPattern,
    GridWaitAtNxNPattern,
    LateBroadcastPattern,
    WaitAtBarrierPattern,
    WaitAtNxNPattern,
    default_collective_patterns,
)
from repro.ids import Location


def _instance(op_name, enters, exits=None, root=0, machines=None):
    """Build a collective instance from per-rank enter (and exit) times."""
    instance = CollectiveInstance(
        comm=0, index=0, region=5, op_name=op_name, root=root
    )
    for rank, enter in enters.items():
        exit_t = (exits or {}).get(rank, max(enters.values()) + 0.01)
        op = MPIOpInstance(
            rank=rank, region=5, op_name=op_name, cpid=100 + rank,
            enter=enter, exit=exit_t,
        )
        record = CollRecord(exit_t, 5, 0, root, 0, 0)
        instance.members[rank] = (op, record)
        machine = 0 if machines is None else machines[rank]
        instance.locations[rank] = Location(machine, 0, rank)
    return instance


class TestWaitAtNxN:
    def test_each_rank_waits_for_last(self):
        instance = _instance("MPI_Allreduce", {0: 0.0, 1: 2.0, 2: 1.0})
        hits = {h.rank: h.value for h in WaitAtNxNPattern().contributions(instance)}
        assert hits[0] == pytest.approx(2.0)
        assert hits[2] == pytest.approx(1.0)
        assert 1 not in hits  # the last arriver does not wait

    def test_ignores_other_ops(self):
        instance = _instance("MPI_Barrier", {0: 0.0, 1: 2.0})
        assert WaitAtNxNPattern().contributions(instance) == []

    def test_grid_variant_needs_spanning_comm(self):
        same = _instance("MPI_Allreduce", {0: 0.0, 1: 2.0})
        cross = _instance("MPI_Allreduce", {0: 0.0, 1: 2.0}, machines={0: 0, 1: 1})
        assert GridWaitAtNxNPattern().contributions(same) == []
        assert GridWaitAtNxNPattern().contributions(cross)

    def test_wait_clipped_by_own_exit(self):
        # A rank that exits before the last enter (inconsistent stamps)
        # cannot be charged more than its own duration.
        instance = _instance(
            "MPI_Allreduce", {0: 0.0, 1: 5.0}, exits={0: 1.0, 1: 5.1}
        )
        hits = {h.rank: h.value for h in WaitAtNxNPattern().contributions(instance)}
        assert hits[0] == pytest.approx(1.0)


class TestWaitAtBarrier:
    def test_barrier_waits(self):
        instance = _instance("MPI_Barrier", {0: 0.0, 1: 3.0, 2: 2.5})
        hits = {h.rank: h.value for h in WaitAtBarrierPattern().contributions(instance)}
        assert hits[0] == pytest.approx(3.0)
        assert hits[2] == pytest.approx(0.5)

    def test_grid_variant(self):
        cross = _instance("MPI_Barrier", {0: 0.0, 1: 3.0}, machines={0: 0, 1: 1})
        hits = GridWaitAtBarrierPattern().contributions(cross)
        assert hits and hits[0].value == pytest.approx(3.0)

    def test_severity_located_at_waiting_callpath(self):
        instance = _instance("MPI_Barrier", {0: 0.0, 1: 3.0})
        hits = WaitAtBarrierPattern().contributions(instance)
        assert hits[0].cpid == 100  # rank 0's barrier call path


class TestBarrierCompletion:
    def test_completion_after_last_arrival(self):
        instance = _instance(
            "MPI_Barrier", {0: 0.0, 1: 2.0}, exits={0: 2.5, 1: 2.5}
        )
        hits = {h.rank: h.value for h in BarrierCompletionPattern().contributions(instance)}
        assert hits[0] == pytest.approx(0.5)
        assert hits[1] == pytest.approx(0.5)


class TestRootedPatterns:
    def test_early_reduce_charges_root(self):
        instance = _instance(
            "MPI_Reduce", {0: 0.0, 1: 4.0, 2: 1.0}, root=0
        )
        hits = EarlyReducePattern().contributions(instance)
        assert len(hits) == 1
        assert hits[0].rank == 0
        assert hits[0].value == pytest.approx(4.0)

    def test_early_reduce_late_root_no_wait(self):
        instance = _instance("MPI_Reduce", {0: 9.0, 1: 0.0, 2: 1.0}, root=0)
        assert EarlyReducePattern().contributions(instance) == []

    def test_late_broadcast_charges_nonroots(self):
        instance = _instance("MPI_Bcast", {0: 5.0, 1: 0.0, 2: 2.0}, root=0)
        hits = {h.rank: h.value for h in LateBroadcastPattern().contributions(instance)}
        assert hits[1] == pytest.approx(5.0)
        assert hits[2] == pytest.approx(3.0)
        assert 0 not in hits

    def test_late_broadcast_early_root_no_wait(self):
        instance = _instance("MPI_Bcast", {0: 0.0, 1: 1.0}, root=0)
        assert LateBroadcastPattern().contributions(instance) == []

    def test_scatter_and_gather_covered(self):
        scatter = _instance("MPI_Scatter", {0: 5.0, 1: 0.0}, root=0)
        assert LateBroadcastPattern().contributions(scatter)
        gather = _instance("MPI_Gather", {0: 0.0, 1: 5.0}, root=0)
        assert EarlyReducePattern().contributions(gather)


class TestCatalogue:
    def test_default_catalogue_names_unique(self):
        names = [p.name for p in default_collective_patterns()]
        assert len(names) == len(set(names))


class TestNxNCompletion:
    def test_partitions_duration_with_wait(self):
        from repro.analysis.patterns.collective import NxNCompletionPattern

        instance = _instance(
            "MPI_Allreduce", {0: 0.0, 1: 2.0}, exits={0: 2.5, 1: 2.5}
        )
        waits = {h.rank: h.value for h in WaitAtNxNPattern().contributions(instance)}
        completions = {
            h.rank: h.value for h in NxNCompletionPattern().contributions(instance)
        }
        # For rank 0: 2.0 s waiting + 0.5 s completion = full 2.5 s duration.
        assert waits[0] + completions[0] == pytest.approx(2.5)
        assert completions[1] == pytest.approx(0.5)

    def test_ignores_barriers(self):
        from repro.analysis.patterns.collective import NxNCompletionPattern

        instance = _instance("MPI_Barrier", {0: 0.0, 1: 2.0})
        assert NxNCompletionPattern().contributions(instance) == []
