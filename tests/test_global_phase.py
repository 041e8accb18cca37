"""The columnar global phase against the object-wise oracle, cuts included.

``repro.analysis.globalphase`` evaluates matching, patterns and severities
by array passes over op tables; ``repro.analysis.matching`` and
``repro.analysis.patterns`` define the same things one object at a time.
These tests hold the two definitions together:

* a hypothesis property over drawn runs *and drawn cuts* (a deadline that
  fires after a drawn number of polls, at a drawn batch size): the
  analyzer's result equals the object-wise evaluation of the admitted
  ranks' whole timelines;
* hand-made worlds the simulated applications never produce;
* the two order bugs the arrival-ordered matcher had (the strict
  collective-mismatch error, the grid breakdown's key order).
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.parallel as parallel_module
from repro.analysis.callpath import CallPathRegistry
from repro.analysis.globalphase import global_phase
from repro.analysis.matching import MessageMatcher
from repro.analysis.optable import RankTrace, build_tables
from repro.analysis.patterns import (
    EARLY_REDUCE,
    EARLY_SCAN,
    LATE_BROADCAST,
    LATE_SENDER,
    LATE_SENDER_WRONG_ORDER,
    TIME,
    WAIT_AT_BARRIER,
)
from repro.analysis.patterns.collective import default_collective_patterns
from repro.analysis.patterns.grid import accumulate_collective, accumulate_p2p
from repro.analysis.patterns.point2point import default_p2p_patterns
from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.request import AnalysisRequest
from repro.analysis.result import GridPairBreakdown
from repro.analysis.severity import SeverityCube
from repro.api import analyze
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError
from repro.ids import Location, node_of
from repro.resilience import Deadline
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer
from repro.trace.archive import ArchiveWriter, Definitions
from repro.trace.encoding import encode_events
from repro.trace.events import (
    CollExitEvent,
    EnterEvent,
    EventKind,
    ExitEvent,
    RecvEvent,
    SendEvent,
)
from repro.trace.regions import RegionRegistry

from tests.test_property_pipeline import NPROCS, _schedule_app, rounds
from tests.test_resilience_pool import _small_run

# -- the oracle ----------------------------------------------------------------


def _oracle(definitions, timelines):
    """What the object-wise matcher and pattern classes make of every
    timeline, computed the way ``ReplayAnalyzer.analyze`` does: ``(cube,
    grid breakdown, sorted stamps, match stats)``."""
    world = dict(sorted(timelines.items()))
    cube = SeverityCube()
    ReplayAnalyzer._base_metrics(cube, world)

    def comm_order(comm):
        entry = definitions.communicators.get(comm)
        return entry[1] if entry is not None else None

    matcher = MessageMatcher(world, comm_lookup=comm_order, allow_unmatched=True)
    stamps = []
    grid_pairs = GridPairBreakdown()
    patterns = default_p2p_patterns()
    for pair in matcher.matched_pairs():
        accumulate_p2p(grid_pairs, pair)
        stamps.append(
            MessageStamp(
                node_of(pair.sender_location),
                node_of(pair.receiver_location),
                pair.send.time,
                pair.recv.time,
            )
        )
        for pattern in patterns:
            for hit in pattern.contributions(pair):
                cube.add(hit.metric, hit.cpid, hit.rank, hit.value)
    patterns = default_collective_patterns()
    for instance in matcher.collective_instances():
        accumulate_collective(grid_pairs, instance)
        for pattern in patterns:
            for hit in pattern.contributions(instance):
                cube.add(hit.metric, hit.cpid, hit.rank, hit.value)
    return cube, grid_pairs, ClockConditionChecker.from_stamps(stamps).stamps, matcher.stats


def _ordered(grid_pairs):
    """The breakdown with its (printed) key order made comparable."""
    return {metric: list(cells.items()) for metric, cells in grid_pairs.data.items()}


def _nested_order(data):
    return {
        metric: [(cpid, list(by_rank)) for cpid, by_rank in by_cp.items()]
        for metric, by_cp in data.items()
    }


def _assert_phase_equals_oracle(definitions, timelines):
    """``global_phase`` over *timelines* equals the oracle; returns the
    phase's ``(cube, stats)``."""
    cube, grid_pairs, violations, stats = global_phase(
        definitions, timelines, allow_unmatched=True
    )
    ref_cube, ref_grid, ref_stamps, ref_stats = _oracle(definitions, timelines)
    # The oracle's cube also holds TIME, which is not the global phase's.
    reference = {m: cells for m, cells in ref_cube.data.items() if m != TIME}
    assert cube.data == reference
    assert _nested_order(cube.data) == _nested_order(reference)
    assert _ordered(grid_pairs) == _ordered(ref_grid)
    assert violations.stamps == ref_stamps
    assert stats == ref_stats
    return cube, stats


# -- the property: drawn runs, drawn cuts --------------------------------------


class _AfterPolls(Deadline):
    """A budget that ends after a fixed number of polls: a reproducible cut."""

    def __init__(self, polls):
        super().__init__(None)
        self.polls = polls

    def reason(self):
        if self.polls <= 0:
            return "poll budget spent"
        self.polls -= 1
        return None


class TestCutsAgainstOracle:
    @given(
        schedule=rounds,
        seed=st.integers(min_value=0, max_value=2**16),
        polls=st.integers(min_value=0, max_value=NPROCS),
        batch=st.sampled_from((1, 300, 2000, 1 << 20)),
    )
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_interrupted_result_is_the_oracle_over_the_prefix(
        self, schedule, seed, polls, batch
    ):
        """A budget that ends after *polls* polls stops the local phase after
        that many batches: the admitted ranks are a prefix of the rank
        order, each analyzed whole, and the result is the oracle over their
        whole timelines."""
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        run = MetaMPIRuntime(mc, Placement.block(mc, NPROCS), seed=seed).run(
            _schedule_app(schedule)
        )
        with mock.patch.object(parallel_module, "_BATCH_BYTES", batch):
            result = analyze(run, deadline=_AfterPolls(polls))
        timelines = result.timelines
        assert list(timelines) == list(range(len(timelines)))
        if result.interrupted is None:
            assert len(timelines) == NPROCS and not result.completeness
        for rank, entry in result.completeness.items():
            assert entry.analyzed == (rank in timelines) and not entry.complete
            if entry.analyzed:
                assert entry.events == timelines[rank].event_count
        cube, grid_pairs, stamps, stats = _oracle(result.definitions, timelines)
        assert result.cube == cube
        assert _ordered(result.grid_pairs) == _ordered(grid_pairs)
        assert result.violations.stamps == stamps
        assert result.traffic.replay_metadata_bytes == stats.metadata_bytes
        # Matched / unmatched counts are not part of a result: ask the phase.
        _, phase_stats = _assert_phase_equals_oracle(result.definitions, timelines)
        assert phase_stats.matched == result.violations.total
        if result.interrupted is None:
            assert phase_stats.unmatched_sends == phase_stats.unmatched_recvs == 0


# -- hand-made worlds ----------------------------------------------------------


class _World:
    """Per-rank op lists → op tables, without a simulator.

    An op is ``(region name, enter, exit, records...)``; a record is an
    event made with :func:`send`, :func:`recv` or :func:`coll` whose stamp
    lies inside the op.
    """

    def __init__(self, machines, communicators=None):
        #: rank → machine; every rank sits on its own node.
        self.machines = machines
        self.regions = RegionRegistry()
        self.definitions = Definitions(
            machine_names=[f"m{i}" for i in range(max(machines.values()) + 1)],
            locations={
                rank: Location(machine, rank, rank) for rank, machine in machines.items()
            },
            regions=self.regions,
            communicators=communicators or {},
        )
        self.callpaths = CallPathRegistry()
        self.timelines = {}

    def rank(self, rank, *ops):
        main = self.regions.register("main")
        events = [EnterEvent(0.0, main)]
        for name, enter, exit, *records in ops:
            region = self.regions.register(name)
            events.append(EnterEvent(enter, region))
            events.extend(
                record._replace(region=region)
                if isinstance(record, CollExitEvent) and record.region < 0
                else record
                for record in records
            )
            events.append(ExitEvent(exit, region))
        events.append(ExitEvent(100.0, main))
        (self.timelines[rank],) = build_tables(
            [RankTrace(
                rank,
                self.definitions.locations[rank],
                encode_events(rank, events),
                LinearConverter.identity(),
            )],
            self.callpaths,
            self.regions,
        )
        return self


def send(time, dest, tag=0, comm=0):
    return SendEvent(time, dest, tag, comm, 8)


def recv(time, source, tag=0, comm=0):
    return RecvEvent(time, source, tag, comm, 8)


def coll(time, comm=0, root=0, region=-1):
    """A COLLEXIT record; its region defaults to the enclosing op's."""
    return CollExitEvent(time, region, comm, root, 8, 8)


class TestHandMadeWorlds:
    def test_self_send(self):
        world = _World({0: 0, 1: 1})
        world.rank(
            0,
            ("MPI_Isend", 1.0, 1.1, send(1.05, 0)),
            ("MPI_Recv", 2.0, 2.5, recv(2.4, 0)),
        ).rank(1)
        _, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert (stats.matched, stats.unmatched_sends, stats.unmatched_recvs) == (1, 0, 0)

    def test_tags_and_communicators_interleave_on_one_rank_pair(self):
        """Four channels between ranks 0 and 1, received in an order that
        crosses them: each channel is FIFO on its own."""
        world = _World({0: 0, 1: 1}, {0: ("world", (0, 1)), 1: ("sub", (0, 1))})
        world.rank(
            0,
            ("MPI_Send", 3.0, 3.1, send(3.05, 1, tag=1, comm=0)),
            ("MPI_Send", 3.2, 3.3, send(3.25, 1, tag=2, comm=0)),
            ("MPI_Send", 3.4, 3.5, send(3.45, 1, tag=1, comm=1)),
            ("MPI_Send", 3.6, 3.7, send(3.65, 1, tag=1, comm=0)),
            ("MPI_Send", 3.8, 3.9, send(3.85, 1, tag=2, comm=1)),
        ).rank(
            1,
            ("MPI_Recv", 1.0, 4.0, recv(3.95, 0, tag=2, comm=1)),
            ("MPI_Recv", 4.1, 4.2, recv(4.15, 0, tag=1, comm=0)),
            ("MPI_Recv", 4.3, 4.4, recv(4.35, 0, tag=1, comm=1)),
            ("MPI_Recv", 4.5, 4.6, recv(4.55, 0, tag=1, comm=0)),
            ("MPI_Recv", 4.7, 4.8, recv(4.75, 0, tag=2, comm=0)),
        )
        cube, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert stats.matched == 5
        # The first receive waited for the last send (Late Sender).  On
        # communicator 1 the tag-1 message was sent before the tag-2 message
        # retrieved ahead of it, but nobody waited for it: no Wrong Order.
        assert cube.total(LATE_SENDER) == pytest.approx(2.8)
        assert LATE_SENDER_WRONG_ORDER not in cube.metrics()

    def test_more_receives_than_sends(self):
        world = _World({0: 0, 1: 0})
        world.rank(0, ("MPI_Send", 1.0, 1.1, send(1.05, 1))).rank(
            1,
            ("MPI_Recv", 1.0, 1.2, recv(1.15, 0)),
            ("MPI_Recv", 1.3, 1.4, recv(1.35, 0)),
            ("MPI_Recv", 1.5, 1.6, recv(1.55, 0, tag=9)),
        )
        _, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert (stats.matched, stats.unmatched_sends, stats.unmatched_recvs) == (1, 0, 2)
        with pytest.raises(AnalysisError) as columnar:
            global_phase(world.definitions, world.timelines, allow_unmatched=False)
        with pytest.raises(AnalysisError) as objectwise:
            list(MessageMatcher(world.timelines).matched_pairs())
        assert str(columnar.value) == str(objectwise.value) == (
            "rank 1: RECV from 0 (tag 0, comm 0) has no matching SEND"
        )

    def test_traffic_with_an_excluded_rank(self):
        """Rank 2 was excluded: sends to it and receives from it settle as
        unmatched, and its collective membership is simply missing."""
        world = _World({0: 0, 1: 1, 2: 1}, {0: ("world", (0, 1, 2))})
        world.rank(
            0,
            ("MPI_Send", 1.0, 1.1, send(1.05, 2)),
            ("MPI_Send", 1.2, 1.3, send(1.25, 1)),
            ("MPI_Barrier", 2.0, 2.6, coll(2.6)),
        ).rank(
            1,
            ("MPI_Recv", 1.0, 1.4, recv(1.35, 2)),
            ("MPI_Recv", 1.5, 1.6, recv(1.55, 0)),
            ("MPI_Barrier", 2.5, 2.6, coll(2.6)),
        )
        cube, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert (stats.matched, stats.unmatched_sends, stats.unmatched_recvs) == (1, 1, 1)
        assert stats.collective_instances == 1
        assert cube.total(WAIT_AT_BARRIER) == pytest.approx(0.5)

    def test_absent_root_emits_no_rooted_wait(self):
        world = _World({0: 0, 1: 0, 2: 1})
        world.rank(
            1,
            ("MPI_Reduce", 1.0, 3.0, coll(3.0, root=0)),
            ("MPI_Bcast", 4.0, 6.0, coll(6.0, root=0)),
        ).rank(
            2,
            ("MPI_Reduce", 2.0, 3.0, coll(3.0, root=0)),
            ("MPI_Bcast", 5.0, 6.0, coll(6.0, root=0)),
        )
        cube, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert stats.collective_instances == 2
        assert EARLY_REDUCE not in cube.metrics() and LATE_BROADCAST not in cube.metrics()

    def test_present_root_does(self):
        world = _World({0: 0, 1: 1})
        world.rank(
            0,
            ("MPI_Reduce", 1.0, 3.0, coll(3.0, root=0)),
            ("MPI_Bcast", 5.0, 6.0, coll(6.0, root=0)),
        ).rank(
            1,
            ("MPI_Reduce", 2.0, 3.0, coll(3.0, root=0)),
            ("MPI_Bcast", 4.0, 6.0, coll(6.0, root=0)),
        )
        cube, _ = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert cube.total(EARLY_REDUCE) == pytest.approx(1.0)
        assert cube.total(LATE_BROADCAST) == pytest.approx(1.0)

    def test_scan_follows_communicator_rank_order(self):
        """Communicator 5 orders its members 2, 0, 1: rank 0 waits for rank
        2's late entry, which global-rank order would never charge."""
        world = _World({0: 0, 1: 0, 2: 1}, {5: ("odd", (2, 0, 1))})
        for rank, enter in ((0, 1.0), (1, 2.0), (2, 3.0)):
            world.rank(rank, ("MPI_Scan", enter, 4.0, coll(4.0, comm=5)))
        cube, _ = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert cube.by_rank(EARLY_SCAN) == {
            0: pytest.approx(2.0), 1: pytest.approx(1.0)
        }
        # The same traces on a communicator the archive does not define fall
        # back to global-rank order, where nobody waits for a lower rank.
        world.definitions.communicators.clear()
        cube, _ = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert EARLY_SCAN not in cube.metrics()

    def test_last_collexit_of_an_op_wins(self):
        world = _World({0: 0, 1: 1})
        barrier = world.regions.register("MPI_Barrier")
        world.rank(
            0, ("MPI_Barrier", 1.0, 3.0, coll(2.0, region=barrier + 7, root=1), coll(3.0))
        ).rank(1, ("MPI_Barrier", 2.0, 3.0, coll(3.0)))
        cube, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert stats.collective_instances == 1
        assert cube.total(WAIT_AT_BARRIER) == pytest.approx(1.0)

    def test_rank_with_no_mpi_op(self):
        world = _World({0: 0, 1: 1})
        world.rank(0).rank(1, ("MPI_Barrier", 1.0, 2.0, coll(2.0)))
        _, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert (stats.matched, stats.collective_instances) == (0, 1)
        # ... and a world with none at all.
        world = _World({0: 0}).rank(0)
        cube, stats = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert cube.metrics() == [] and stats.metadata_bytes == 0

    def test_wrong_order_needs_a_strictly_earlier_send(self):
        """One Waitall retrieves two messages with the *same* send stamp, then
        an earlier-sent one: only the last is in wrong order (strict ``<``)."""
        world = _World({0: 0, 1: 0, 2: 0, 3: 0})
        world.rank(0, ("MPI_Send", 5.0, 5.2, send(5.1, 3))).rank(
            1, ("MPI_Send", 5.0, 5.2, send(5.1, 3))
        ).rank(2, ("MPI_Send", 4.0, 4.2, send(4.1, 3))).rank(
            3, ("MPI_Waitall", 1.0, 5.5, recv(5.3, 0), recv(5.35, 1), recv(5.4, 2))
        )
        cube, _ = _assert_phase_equals_oracle(world.definitions, world.timelines)
        assert cube.total(LATE_SENDER) == pytest.approx(4.0 + 4.0 + 3.0)
        assert cube.total(LATE_SENDER_WRONG_ORDER) == pytest.approx(3.0)


# -- the strict collective-mismatch error --------------------------------------


class TestCollectiveMismatchError:
    @pytest.fixture(scope="class")
    def mismatched_run(self):
        """The small run with rank 0's first COLLEXIT naming another region."""
        run = _small_run()
        machine = run.definitions.machine_of(0)
        events = run.reader(machine).read_trace(0)
        first = next(
            i for i, event in enumerate(events) if event.kind == EventKind.COLLEXIT
        )
        events[first] = events[first]._replace(region=events[first].region + 1)
        ArchiveWriter(run.namespaces[machine], run.archive_path).write_trace_blob(
            0, encode_events(0, events)
        )
        return run

    def test_every_batch_and_jobs_raises_the_reference_error(
        self, monkeypatch, mismatched_run
    ):
        """The message names the lowest mismatching member in rank-major
        trace order against the instance's lowest-rank member — not
        whichever member a batch or a shard met first."""
        readers = {m: mismatched_run.reader(m) for m in mismatched_run.machines_used}
        with pytest.raises(AnalysisError) as reference:
            ReplayAnalyzer(readers).analyze()
        assert "collective mismatch on comm 0 instance 0: rank 1" in str(reference.value)
        for jobs, batch in itertools.product((1, 3), (1, 4096, 1 << 20)):
            monkeypatch.setattr(parallel_module, "_BATCH_BYTES", batch)
            with pytest.raises(AnalysisError) as caught:
                analyze(mismatched_run, AnalysisRequest(jobs=jobs))
            assert str(caught.value) == str(reference.value), (jobs, batch)
