"""Tests for timeline construction from raw events.

Two builders, one result: the sequential :func:`build_timeline` (the
definition, and the reference analyzer's local phase) and the columnar
:func:`build_tables` (what the streaming replay and the shard workers run,
one batch of ranks at a time).  The property tests at the bottom hold the
second to the first, rank by rank and over batches.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import (
    MPIOpInstance,
    OmpRegionRecord,
    SendRecord,
    build_timeline,
)
from repro.analysis.optable import RankTrace, build_tables
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError, ReproError
from repro.ids import Location
from repro.trace.encoding import encode_events, iter_events
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
        """The op table equals the sequential timeline, and reading it in
        runs of any length makes the same ops."""
        events = _simple_trace(regions)
        converter = LinearConverter(1.0, 100.0)
        whole = _build(events, regions, converter)
        timeline = _tables(encode_events(0, events), regions, converter)
        assert timeline == whole
        ops = timeline.mpi_ops
        completed = []
        for start in range(0, len(ops), run_length):
            completed.extend(ops.span(start, min(start + run_length, len(ops))))
        assert list(ops.span(0, 0)) == []  # an empty run makes nothing
        assert completed == whole.mpi_ops
        assert (timeline.event_count, timeline.first_time, timeline.last_time) == (
            8, 100.0, 105.0,
        )
        # Records ride in immutable tuples; an op without any shares ().
        assert ops[0].sends == (SendRecord(101.1, 1, 0, 0, 64),)
        assert ops[0].recvs == ()


def build_one(rank, location, blob, converter, callpaths, regions):
    """:func:`build_tables` over a batch of one: the timeline, or its error raised."""
    (built,) = build_tables([RankTrace(rank, location, blob, converter)], callpaths, regions)
    if isinstance(built, ReproError):
        raise built
    return built


def _tables(blob, regions, converter=None, callpaths=None, rank=0):
    return build_one(
        rank,
        Location(0, 0, rank),
        blob,
        converter or LinearConverter.identity(),
        CallPathRegistry() if callpaths is None else callpaths,
        regions,
    )


class TestLazySequences:
    """``mpi_ops`` / ``omp_regions`` of a table-built timeline behave as the
    lists they replaced; the objects exist only while being read."""

    @pytest.fixture
    def pair(self, regions):
        main = regions.id_of("main")
        solve = regions.id_of("solve")
        events = [EnterEvent(0.0, main)]
        for i in range(5):
            events += _simple_trace(regions)[1:7]
            events += [
                EnterEvent(6.0 + i, solve),
                OmpRegionEvent(6.5 + i, solve, 4, 1.5, 0.5),
                ExitEvent(6.5 + i, solve),
            ]
        events.append(ExitEvent(20.0, main))
        return _build(events, regions), _tables(encode_events(0, events), regions)

    def test_sequence_protocol(self, pair):
        listed, tabled = pair
        for reference, lazy in (
            (listed.mpi_ops, tabled.mpi_ops),
            (listed.omp_regions, tabled.omp_regions),
        ):
            assert not isinstance(lazy, list)
            assert len(lazy) == len(reference) > 0 and bool(lazy)
            assert list(lazy) == reference
            assert lazy == reference and reference == lazy
            assert not (lazy == reference[:-1]) and lazy != reference[:-1]
            assert lazy[0] == reference[0] and lazy[-1] == reference[-1]
            assert lazy[1:4] == reference[1:4]
            assert lazy[::-2] == reference[::-2]
            assert lazy[-3:] == reference[-3:]
            assert reference[2] in lazy
            with pytest.raises(IndexError):
                lazy[len(reference)]
            with pytest.raises(IndexError):
                lazy[-len(reference) - 1]
        assert isinstance(tabled.mpi_ops[0], MPIOpInstance)
        assert isinstance(tabled.omp_regions[0], OmpRegionRecord)

    def test_sorted_and_fresh_objects(self, pair):
        listed, tabled = pair
        by_exit = sorted(tabled.mpi_ops, key=lambda op: -op.exit)
        assert by_exit == sorted(listed.mpi_ops, key=lambda op: -op.exit)
        # Made on read: two reads give equal but distinct objects, so
        # mutating one cannot reach the table.
        first, again = tabled.mpi_ops[0], tabled.mpi_ops[0]
        assert first == again and first is not again
        first.cpid = 99
        assert tabled.mpi_ops[0].cpid == again.cpid

    def test_pickle_round_trip(self, pair):
        listed, tabled = pair
        clone = pickle.loads(pickle.dumps(tabled))
        assert clone == tabled == listed
        assert clone.mpi_ops == listed.mpi_ops
        assert clone.omp_regions == listed.omp_regions

    def test_empty_tables(self, regions):
        timeline = _tables(encode_events(0, []), regions)
        assert timeline == _build([], regions)
        assert timeline.mpi_ops == [] and not timeline.mpi_ops
        assert list(timeline.omp_regions) == []


# -- the property: table build == sequential build ------------------------------

_REGION_NAMES = (
    "main", "solve", "step", "MPI_Send", "MPI_Recv", "MPI_Barrier", "MPI_Sendrecv",
)
_MPI_IDS = tuple(i for i, name in enumerate(_REGION_NAMES) if name.startswith("MPI_"))


def _property_regions():
    return RegionRegistry.from_list(_REGION_NAMES)


#: Clock steps: mostly forward, often zero, sometimes backwards (a local
#: clock that a negative-slope or badly fitted converter turns around).
_steps = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=10.0),
    st.floats(min_value=-0.5, max_value=-1e-6),
)

_record = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 7), st.integers(0, 3), st.integers(0, 2),
              st.integers(0, 2**40)),
    st.tuples(st.just("recv"), st.integers(0, 7), st.integers(0, 3), st.integers(0, 2),
              st.integers(0, 2**40)),
    st.tuples(st.just("coll"), st.integers(0, 2), st.integers(0, 7), st.integers(0, 999),
              st.integers(0, 999)),
)


def _frame(depth):
    """One region frame: (region, body); a body item is a child frame, a
    communication record (MPI frames only) or a fork-join record."""
    def body_of(region):
        items = [st.tuples(st.just("omp"), st.integers(1, 8),
                           st.floats(0.0, 4.0), st.floats(0.0, 1.0))]
        if region in _MPI_IDS:
            items.append(_record)
        if depth > 0:
            items.append(_frame(depth - 1))
        return st.tuples(st.just(region), st.lists(st.one_of(*items), max_size=3))

    return st.integers(0, len(_REGION_NAMES) - 1).flatmap(body_of)


def _events_of(frames, steps):
    """Flatten generated frames into events, drawing stamps from *steps*."""
    clock = [0.0]
    steps = iter(steps)

    def tick():
        clock[0] += next(steps, 0.25)
        return clock[0]

    out = []

    def emit(frame):
        region, body = frame
        out.append(EnterEvent(tick(), region))
        for item in body:
            if isinstance(item[0], int):
                emit(item)
            elif item[0] == "send":
                out.append(SendEvent(tick(), *item[1:]))
            elif item[0] == "recv":
                out.append(RecvEvent(tick(), *item[1:]))
            elif item[0] == "coll":
                out.append(CollExitEvent(tick(), region, *item[1:]))
            else:
                out.append(OmpRegionEvent(tick(), region, *item[1:]))
        out.append(ExitEvent(tick(), region))

    for frame in frames:
        emit(frame)
    return out


_traces = st.builds(
    _events_of,
    st.lists(_frame(3), max_size=4),
    st.lists(_steps, max_size=60),
)

_converters = st.builds(
    LinearConverter,
    st.one_of(st.just(1.0), st.floats(0.5, 2.0), st.floats(-1.5, -0.5)),
    st.floats(-1e3, 1e3),
)


def _outcome(build):
    """What a builder did: every comparable facet, or the error it raised."""
    callpaths = CallPathRegistry()
    callpaths.intern(-1, 2)  # a registry other ranks have already used
    try:
        timeline = build(callpaths)
    except ReproError as exc:
        return type(exc), str(exc)
    return (
        timeline,
        list(timeline.exclusive_time.items()),
        list(timeline.visits.items()),
        list(timeline.mpi_ops),
        list(timeline.omp_regions),
        callpaths.all_paths(),
    )


def _both(blob, converter):
    regions = _property_regions()
    location = Location(0, 0, 0)
    tabled = _outcome(
        lambda callpaths: build_one(3, location, blob, converter, callpaths, regions)
    )
    walked = _outcome(
        lambda callpaths: build_timeline(
            3, location, iter_events(blob)[1], converter, callpaths, regions
        )
    )
    return tabled, walked


class TestTablesEqualSequentialWalk:
    @settings(max_examples=200, deadline=None)
    @given(_traces, _converters)
    def test_well_formed(self, events, converter):
        tabled, walked = _both(encode_events(3, events), converter)
        assert not isinstance(walked[0], type), walked  # well-formed: no error
        assert tabled == walked

    @settings(max_examples=300, deadline=None)
    @given(_traces, _converters, st.data())
    def test_malformed(self, events, converter, data):
        """One defect per trace: both builders raise the same error, or —
        where the defect happens to leave a valid trace — agree again."""
        tabled, walked = _both(_damaged(events, data.draw(_defects), data), converter)
        assert tabled == walked


_defects = st.sampled_from((
    "stray-exit", "wrong-exit", "stray-record", "stray-omp", "open-frame",
    "unknown-region", "truncated", "unknown-kind",
))


def _damaged(events, defect, data):
    """*events* encoded for rank 3 with one *defect*, or clean for None."""
    events = list(events) or [EnterEvent(0.0, 0), ExitEvent(1.0, 0)]
    at = data.draw(st.integers(0, len(events) - 1))
    if defect == "stray-exit":
        events.insert(at, ExitEvent(events[at].time, data.draw(st.integers(0, 6))))
    elif defect == "wrong-exit":
        exits = [i for i, e in enumerate(events) if isinstance(e, ExitEvent)]
        at = data.draw(st.sampled_from(exits))
        events[at] = ExitEvent(events[at].time, (events[at].region + 1) % 7)
    elif defect == "stray-record":
        record = data.draw(st.sampled_from((
            SendEvent(0.0, 1, 0, 0, 8), RecvEvent(0.0, 1, 0, 0, 8),
            CollExitEvent(0.0, 5, 0, 0, 0, 0),
        )))
        events.insert(at, record._replace(time=events[at].time))
    elif defect == "stray-omp":
        events.insert(
            at, OmpRegionEvent(events[at].time, data.draw(st.integers(0, 6)), 2, 1.0, 0.5)
        )
    elif defect == "open-frame":
        del events[data.draw(st.sampled_from(
            [i for i, e in enumerate(events) if isinstance(e, ExitEvent)]
        ))]
    elif defect == "unknown-region":
        events.insert(at, ExitEvent(events[at].time, 40))
        events.insert(at, EnterEvent(events[at].time, 40))
    blob = encode_events(3, events)
    if defect == "truncated":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif defect == "unknown-kind":
        # Overwrite one record's kind tag (a payload byte would only
        # change a field — possibly to NaN, which equals nothing).
        cut = len(encode_events(3, events[:at]))
        blob = blob[:cut] + bytes([data.draw(st.sampled_from((0, 7, 255)))]) + blob[cut + 1:]
    return blob


class TestBatchEqualsRankByRank:
    """A batch built at once is every rank built alone, in rank order, over
    one shared registry — with inconsistent ranks anywhere in the batch."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(_traces, _converters, st.one_of(st.none(), _defects)),
            min_size=1, max_size=5,
        ),
        st.data(),
    )
    def test_batch(self, ranks, data):
        regions = _property_regions()
        traces = [
            RankTrace(
                rank, Location(0, 0, rank),
                encode_events(rank, events) if defect is None else _damaged(events, defect, data),
                converter,
            )
            for rank, (events, converter, defect) in enumerate(ranks)
        ]
        batched = CallPathRegistry()
        built = build_tables(traces, batched, regions)
        alone = CallPathRegistry()
        for trace, outcome in zip(traces, built):
            def walk(callpaths, trace=trace):
                return build_timeline(
                    trace.rank, trace.location, iter_events(trace.blob)[1],
                    trace.converter, callpaths, regions,
                )
            try:
                walk(CallPathRegistry())  # a rank that fails interns nothing
            except ReproError as exc:
                assert (type(outcome), str(outcome)) == (type(exc), str(exc))
                continue
            expected = walk(alone)
            assert outcome == expected
            assert list(outcome.exclusive_time.items()) == list(expected.exclusive_time.items())
            assert list(outcome.visits.items()) == list(expected.visits.items())
        assert batched.all_paths() == alone.all_paths()
