"""Tests for timeline construction from raw events."""

import pytest

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import SendRecord, TimelineBuilder, build_timeline
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError
from repro.ids import Location
from repro.trace.events import (
    CollExitEvent,
    EnterEvent,
    ExitEvent,
    OmpRegionEvent,
    RecvEvent,
    SendEvent,
)
from repro.trace.regions import RegionRegistry


@pytest.fixture
def regions():
    reg = RegionRegistry()
    for name in ("main", "solve", "MPI_Send", "MPI_Recv", "MPI_Barrier"):
        reg.register(name)
    return reg


def _build(events, regions, converter=None):
    return build_timeline(
        rank=0,
        location=Location(0, 0, 0),
        events=events,
        converter=converter or LinearConverter.identity(),
        callpaths=CallPathRegistry(),
        regions=regions,
    )


def _simple_trace(regions):
    main = regions.id_of("main")
    send = regions.id_of("MPI_Send")
    recv = regions.id_of("MPI_Recv")
    return [
        EnterEvent(0.0, main),
        EnterEvent(1.0, send),
        SendEvent(1.1, 1, 0, 0, 64),
        ExitEvent(2.0, send),
        EnterEvent(3.0, recv),
        RecvEvent(4.0, 1, 0, 0, 64),
        ExitEvent(4.0, recv),
        ExitEvent(5.0, main),
    ]


class TestTimeline:
    def test_mpi_instances_extracted(self, regions):
        timeline = _build(_simple_trace(regions), regions)
        assert [op.op_name for op in timeline.mpi_ops] == ["MPI_Send", "MPI_Recv"]
        send_op = timeline.mpi_ops[0]
        assert send_op.enter == 1.0 and send_op.exit == 2.0
        assert send_op.sends[0].dest == 1
        recv_op = timeline.mpi_ops[1]
        assert recv_op.recvs[0].source == 1

    def test_exclusive_time(self, regions):
        timeline = _build(_simple_trace(regions), regions)
        callpath_times = timeline.exclusive_time
        # main: 5s total − 1s send − 1s recv = 3s exclusive.
        assert sum(callpath_times.values()) == pytest.approx(5.0)
        assert max(callpath_times.values()) == pytest.approx(3.0)

    def test_total_time(self, regions):
        timeline = _build(_simple_trace(regions), regions)
        assert timeline.total_time == pytest.approx(5.0)
        assert timeline.event_count == 8

    def test_converter_applied(self, regions):
        converter = LinearConverter(slope=1.0, intercept=100.0)
        timeline = _build(_simple_trace(regions), regions, converter)
        assert timeline.first_time == pytest.approx(100.0)
        assert timeline.mpi_ops[0].enter == pytest.approx(101.0)

    def test_coll_record_attached(self, regions):
        main = regions.id_of("main")
        barrier = regions.id_of("MPI_Barrier")
        events = [
            EnterEvent(0.0, main),
            EnterEvent(1.0, barrier),
            CollExitEvent(2.0, barrier, 0, 0, 0, 0),
            ExitEvent(2.0, barrier),
            ExitEvent(3.0, main),
        ]
        timeline = _build(events, regions)
        assert timeline.mpi_ops[0].coll is not None
        assert timeline.mpi_ops[0].coll.root == 0

    def test_empty_trace(self, regions):
        timeline = _build([], regions)
        assert timeline.total_time == 0.0
        assert timeline.mpi_ops == []

    def test_unbalanced_trace_rejected(self, regions):
        events = [EnterEvent(0.0, regions.id_of("main"))]
        with pytest.raises(AnalysisError, match="still open"):
            _build(events, regions)

    def test_mismatched_exit_rejected(self, regions):
        events = [
            EnterEvent(0.0, regions.id_of("main")),
            ExitEvent(1.0, regions.id_of("solve")),
        ]
        with pytest.raises(AnalysisError):
            _build(events, regions)

    def test_comm_record_outside_mpi_rejected(self, regions):
        events = [
            EnterEvent(0.0, regions.id_of("main")),
            SendEvent(0.5, 1, 0, 0, 64),
            ExitEvent(1.0, regions.id_of("main")),
        ]
        with pytest.raises(AnalysisError, match="outside an MPI region"):
            _build(events, regions)

    def test_duration_never_negative(self, regions):
        op_events = [
            EnterEvent(0.0, regions.id_of("MPI_Send")),
            SendEvent(0.0, 1, 0, 0, 1),
            ExitEvent(0.0, regions.id_of("MPI_Send")),
        ]
        timeline = _build(op_events, regions)
        assert timeline.mpi_ops[0].duration == 0.0


class TestFeedMany:
    """The builder's one dispatch: same errors as the per-event ``feed`` it
    replaced, and the same timeline however the trace is cut into runs."""

    @pytest.mark.parametrize(
        "record, message",
        [
            (lambda r: ExitEvent(0.5, r.id_of("solve")),
             "rank 0: EXIT region 1 does not match open region 0"),
            (lambda r: SendEvent(0.5, 1, 0, 0, 64),
             "rank 0: SEND record outside an MPI region"),
            (lambda r: RecvEvent(0.5, 1, 0, 0, 64),
             "rank 0: RECV record outside an MPI region"),
            (lambda r: CollExitEvent(0.5, r.id_of("MPI_Barrier"), 0, 0, 0, 0),
             "rank 0: COLLEXIT record outside an MPI region"),
            (lambda r: OmpRegionEvent(0.5, r.id_of("solve"), 4, 1.0, 0.5),
             "rank 0: OMPREGION record outside its region frame"),
        ],
    )
    def test_misplaced_record_messages(self, regions, record, message):
        events = [EnterEvent(0.0, regions.id_of("main")), record(regions)]
        with pytest.raises(AnalysisError) as caught:
            _build(events, regions)
        assert str(caught.value) == message

    def test_exit_without_frame_message(self, regions):
        with pytest.raises(AnalysisError) as caught:
            _build([ExitEvent(0.0, regions.id_of("main"))], regions)
        assert str(caught.value) == "rank 0: EXIT without open frame"

    def test_comm_record_with_no_frame_at_all(self, regions):
        with pytest.raises(AnalysisError, match="SEND record outside an MPI region"):
            _build([SendEvent(0.0, 1, 0, 0, 64)], regions)

    @pytest.mark.parametrize("run_length", [1, 3, 8])
    def test_any_cut_builds_the_same_timeline(self, regions, run_length):
        events = _simple_trace(regions)
        builder = TimelineBuilder(
            0, Location(0, 0, 0), LinearConverter(1.0, 100.0),
            CallPathRegistry(), regions,
        )
        completed = []
        builder.on_op = completed.append
        for start in range(0, len(events), run_length):
            builder.feed_many(events[start:start + run_length])
        builder.feed_many([])  # an empty run moves nothing
        timeline = builder.finish()
        whole = _build(events, regions, LinearConverter(1.0, 100.0))
        assert timeline == whole
        assert completed == whole.mpi_ops
        assert (timeline.event_count, timeline.first_time, timeline.last_time) == (
            8, 100.0, 105.0,
        )
        # Records ride in immutable tuples; an op without any shares ().
        assert whole.mpi_ops[0].sends == (SendRecord(101.1, 1, 0, 0, 64),)
        assert whole.mpi_ops[0].recvs == ()
