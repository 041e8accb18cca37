"""Property-style robustness tests for the trace codec.

The codec contract under test (PR: engine/codec correctness fixes):

* every decode diagnostic for a bad record points at the offset of that
  record's **kind tag** (the record start), not somewhere inside it;
* ``encode_events`` never leaks a raw ``struct.error`` — out-of-range
  fields surface as :class:`~repro.errors.EncodingError` naming the event;
* the streaming decoder (:func:`iter_events`) and the one-shot decoder
  (:func:`decode_events`) agree on every input, including across the
  streaming chunk boundary;
* everything derived from the one grammar scan (:func:`scan_records`:
  columnar decode, checksum blocks, record boundaries, salvage) agrees
  with the event decoders on damaged input too, down to blobs too short
  to hold a record or a header;
* the lockstep walk of many blobs over their manifest blocks
  (:func:`walk_records`) is :func:`scan_records` of each, whatever the
  blocks claim and whatever happened to the bytes since.
"""

import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.trace.encoding import (
    HEADER_SIZE,
    block_table,
    decode_columns,
    decode_events,
    encode_events,
    iter_events,
    record_boundary,
    salvage_events,
    scan_records,
    walk_records,
)
from repro.trace.events import (
    CollExitEvent,
    EnterEvent,
    ExitEvent,
    OmpRegionEvent,
    RecvEvent,
    SendEvent,
)

times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
region_ids = st.integers(min_value=0, max_value=2**32 - 1)
ranks = st.integers(min_value=-1, max_value=2**31 - 1)
tags = st.integers(min_value=-1, max_value=2**31 - 1)
comms = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=0, max_value=2**63 - 1)

#: All six kinds, OMPREGION included (the older property suite predates it).
events = st.one_of(
    st.builds(EnterEvent, time=times, region=region_ids),
    st.builds(ExitEvent, time=times, region=region_ids),
    st.builds(SendEvent, time=times, dest=ranks, tag=tags, comm=comms, size=sizes),
    st.builds(RecvEvent, time=times, source=ranks, tag=tags, comm=comms, size=sizes),
    st.builds(
        CollExitEvent,
        time=times,
        region=region_ids,
        comm=comms,
        root=ranks,
        sent=sizes,
        recvd=sizes,
    ),
    st.builds(
        OmpRegionEvent,
        time=times,
        region=region_ids,
        nthreads=st.integers(min_value=1, max_value=2**32 - 1),
        busy_sum=times,
        busy_max=times,
    ),
)


def _record_starts(rank, evs):
    """Byte offset of each event's record (its kind tag) plus the blob end."""
    offsets = [len(encode_events(rank, evs[:i])) for i in range(len(evs) + 1)]
    return offsets


class TestRoundTrip:
    @given(rank=st.integers(min_value=0, max_value=2**32 - 1),
           evs=st.lists(events, max_size=60))
    @settings(max_examples=120)
    def test_all_kinds_round_trip(self, rank, evs):
        decoded_rank, decoded = decode_events(encode_events(rank, evs))
        assert decoded_rank == rank
        assert decoded == evs

    @given(evs=st.lists(events, max_size=40))
    def test_streaming_matches_one_shot(self, evs):
        blob = encode_events(7, evs)
        rank_a, listed = decode_events(blob)
        rank_b, streamed = iter_events(blob)
        assert rank_a == rank_b == 7
        assert list(streamed) == listed

    def test_round_trip_across_chunk_boundary(self):
        # More records than one streaming chunk, with kind alternation so
        # both the singleton and the run-batched decode paths execute.
        evs = []
        for i in range(3000):
            evs.append(EnterEvent(float(i), i % 7))
            if i % 5 == 0:
                evs.append(SendEvent(float(i), 1, 0, 0, 64))
        blob = encode_events(0, evs)
        assert decode_events(blob)[1] == evs
        assert list(iter_events(blob)[1]) == evs


class TestDecodeDiagnostics:
    @given(evs=st.lists(events, min_size=1, max_size=12), data=st.data())
    @settings(max_examples=120)
    def test_truncation_reports_record_start(self, evs, data):
        """Any cut strictly inside a record names that record's offset."""
        blob = encode_events(0, evs)
        offsets = _record_starts(0, evs)
        index = data.draw(st.integers(min_value=0, max_value=len(evs) - 1))
        cut = data.draw(
            st.integers(min_value=offsets[index] + 1, max_value=offsets[index + 1] - 1)
        )
        with pytest.raises(EncodingError, match=rf"at offset {offsets[index]}\b"):
            decode_events(blob[:cut])
        rank, stream = iter_events(blob[:cut])
        with pytest.raises(EncodingError, match=rf"at offset {offsets[index]}\b"):
            list(stream)

    @given(evs=st.lists(events, min_size=1, max_size=12), data=st.data())
    @settings(max_examples=120)
    def test_flipped_kind_byte_reports_its_offset(self, evs, data):
        blob = bytearray(encode_events(0, evs))
        offsets = _record_starts(0, evs)
        index = data.draw(st.integers(min_value=0, max_value=len(evs) - 1))
        bad_kind = data.draw(st.integers(min_value=7, max_value=255))
        blob[offsets[index]] = bad_kind
        with pytest.raises(
            EncodingError,
            match=rf"unknown record kind {bad_kind} at offset {offsets[index]}\b",
        ):
            decode_events(bytes(blob))

    def test_kind_zero_rejected(self):
        blob = bytearray(encode_events(0, [EnterEvent(1.0, 2)]))
        offset = len(encode_events(0, []))
        blob[offset] = 0
        with pytest.raises(EncodingError, match=f"unknown record kind 0 at offset {offset}"):
            decode_events(bytes(blob))

    def test_truncation_of_later_record_names_later_offset(self):
        evs = [EnterEvent(1.0, 2), SendEvent(2.0, 1, 0, 0, 64)]
        blob = encode_events(0, evs)
        offsets = _record_starts(0, evs)
        with pytest.raises(EncodingError, match=f"truncated SEND record at offset {offsets[1]}"):
            decode_events(blob[: offsets[1] + 5])


def _salvage_fields(blob, count_only):
    """Every compared field of a salvage but ``events``."""
    fields = vars(salvage_events(blob, count_only=count_only))
    return {name: value for name, value in fields.items() if name not in ("events", "scan")}


_HEADER_ONLY = encode_events(3, [])
_CUT_RECORD = encode_events(3, [SendEvent(1.0, 1, 0, 0, 64)])[:-4]


class TestDegenerateBlobs:
    """Blobs with no complete record: where a shared scan has an empty
    offset list, or stands past the end of the file before its first step."""

    BLOBS = [b"", b"RPR", _HEADER_ONLY, _CUT_RECORD]

    @pytest.mark.parametrize("blob", BLOBS)
    def test_one_block_covers_every_byte(self, blob):
        expected = [(0, len(blob), zlib.crc32(blob))] if blob else []
        assert block_table(blob) == expected
        assert block_table(blob, block_bytes=1) == expected

    @pytest.mark.parametrize("blob", BLOBS[:3])
    @pytest.mark.parametrize("target", [-1, 0, 3, HEADER_SIZE, HEADER_SIZE + 1, 10**6])
    def test_no_record_follows_the_header(self, blob, target):
        assert record_boundary(blob, target) == min(HEADER_SIZE, len(blob))

    def test_boundary_steps_over_the_cut_record(self):
        assert record_boundary(_CUT_RECORD, HEADER_SIZE) == HEADER_SIZE
        assert record_boundary(_CUT_RECORD, HEADER_SIZE + 1) == len(_CUT_RECORD)

    @pytest.mark.parametrize(
        "blob, rank, complete, error, decoded",
        [
            (b"", None, False, "trace file shorter than its header", 0),
            (b"RPR", None, False, "trace file shorter than its header", 0),
            (_HEADER_ONLY, 3, True, "", HEADER_SIZE),
            (_CUT_RECORD, 3, False, f"truncated SEND record at offset {HEADER_SIZE}",
             HEADER_SIZE),
        ],
    )
    def test_salvage(self, blob, rank, complete, error, decoded):
        salvaged = salvage_events(blob)
        assert salvaged.events == []
        assert _salvage_fields(blob, False) == _salvage_fields(blob, True) == {
            "rank": rank,
            "complete": complete,
            "error": error,
            "bytes_decoded": decoded,
            "bytes_total": len(blob),
            "event_count": 0,
            "open_regions": 0,
        }

    @pytest.mark.parametrize("blob", [b"", b"RPR", _CUT_RECORD])
    def test_columns_raise_what_the_event_decoder_raises(self, blob):
        with pytest.raises(EncodingError) as by_events:
            decode_events(blob)
        with pytest.raises(EncodingError) as by_columns:
            decode_columns(blob)
        assert str(by_columns.value) == str(by_events.value)

    def test_header_only_columns_are_empty(self):
        columns = decode_columns(_HEADER_ONLY)
        assert columns.rank == 3
        assert len(columns.kinds) == len(columns.times) == 0
        assert all(len(rows) == 0 for rows in columns.records.values())


@st.composite
def _mutated_blobs(draw):
    """A valid blob with up to two bits flipped and, perhaps, a record
    overwritten or displaced by (part of) a record of any kind."""
    evs = draw(st.lists(events, min_size=1, max_size=10))
    return _mutate(draw, encode_events(draw(st.integers(0, 9)), evs), _record_starts(0, evs))


def _mutate(draw, blob, starts):
    """*blob* with :func:`_mutated_blobs`'s damage; *starts* its record offsets."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(0, 2))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()):
        graft = encode_events(0, [draw(events)])[HEADER_SIZE:]
        at = draw(st.sampled_from(starts))
        if draw(st.booleans()):
            blob[at : at + len(graft)] = graft  # overwrite, lengths may differ
        else:
            blob[at:at] = graft[: draw(st.integers(1, len(graft)))]  # displace
    return bytes(blob)


def _strict(decode, blob):
    """``(value, "")`` or ``(None, error text)`` of a strict decoder."""
    try:
        return decode(blob), ""
    except EncodingError as exc:
        return None, str(exc)


class TestDamagedInputAgreement:
    """The scan's four consumers against the event decoders, on damaged
    input (ROADMAP *Generated-input attack*, codec part)."""

    @staticmethod
    def check(blob):
        _, error = _strict(decode_events, blob)
        columns, columnar_error = _strict(decode_columns, blob)
        assert columnar_error == error
        scan = scan_records(blob)

        # Salvage keeps exactly the prefix the event decoder reads before it
        # raises (iter_events yields by the chunk, so count on the prefix).
        salvaged = salvage_events(blob)
        assert salvaged.error == error and salvaged.complete == (not error)
        assert _salvage_fields(blob, False) == _salvage_fields(blob, True)
        if salvaged.rank is not None:
            prefix = blob[: salvaged.bytes_decoded]
            assert salvaged.events == decode_events(prefix)[1] == list(iter_events(prefix)[1])
        assert salvaged.event_count == len(salvaged.events)
        at = re.search(r"at offset (\d+)$", error)
        if at:
            assert salvaged.bytes_decoded == scan.end == int(at.group(1))
        elif error:  # a header defect: nothing decoded
            assert salvaged.bytes_decoded == 0 and salvaged.rank is None
        else:
            assert salvaged.bytes_decoded == len(blob)
            assert np.array_equal(columns.kinds, [event.kind for event in salvaged.events])

        # Blocks tile the file and close only where the scan stands.
        stands = set(scan.offsets.tolist()) | {scan.end}
        for block_bytes in (1, 40, 4096):
            table = block_table(blob, block_bytes)
            assert [start for start, _, _ in table] == [
                sum(length for _, length, _ in table[:i]) for i in range(len(table))
            ]
            assert sum(length for _, length, _ in table) == len(blob)
            assert all(start + length in stands for start, length, _ in table[:-1])
            assert all(crc == zlib.crc32(blob[o : o + n]) for o, n, crc in table)
        for target in range(-1, len(blob) + 2):
            assert record_boundary(blob, target) in stands | {len(blob)}

    @given(blob=_mutated_blobs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_flips_and_splices(self, blob):
        self.check(blob)

    @given(evs=st.lists(events, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_truncation_at_every_byte(self, evs):
        blob = encode_events(1, evs)
        for cut in range(len(blob) + 1):
            self.check(blob[:cut])


@st.composite
def _manifested_blobs(draw):
    """``(blob, block table)`` as the local phase walks them: the table was
    cut from the pristine blob (or there is none, or its starts were
    shifted, some off record boundaries), and the blob may since have been
    flipped, spliced or truncated."""
    evs = draw(st.lists(events, max_size=30))
    pristine = encode_events(draw(st.integers(0, 9)), evs)
    table = block_table(pristine, draw(st.sampled_from((1, 13, 40, 4096))))
    damage = draw(st.sampled_from(("none", "mutated", "truncated")))
    blob = pristine
    if damage == "mutated" and evs:
        blob = _mutate(draw, pristine, _record_starts(0, evs))
    elif damage == "truncated":
        blob = pristine[: draw(st.integers(0, len(pristine)))]
    form = draw(st.sampled_from(("manifest", "none", "shifted")))
    if form == "none":
        return blob, None
    if form == "shifted":
        shift = st.integers(-len(pristine) - 2, len(pristine) + 2)
        table = [
            (offset + draw(st.one_of(st.just(0), st.integers(-3, 3), shift)), length, crc)
            for offset, length, crc in table
        ]
    return blob, table


class TestLockstepWalk:
    @given(st.lists(_manifested_blobs(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_blob_is_its_sequential_walk(self, walked):
        blobs = [blob for blob, _ in walked]
        scans = walk_records(blobs, [table for _, table in walked])
        assert len(scans) == len(blobs)
        for blob, scan in zip(blobs, scans):
            expected = scan_records(blob)
            assert scan.offsets.tolist() == expected.offsets.tolist()
            assert (scan.end, scan.error) == (expected.end, expected.error)

    def test_no_blob(self):
        assert walk_records([], []) == []


class TestEncodeErrors:
    def test_negative_size_wrapped(self):
        with pytest.raises(EncodingError, match="SEND event at index 1"):
            encode_events(
                0, [EnterEvent(0.0, 1), SendEvent(1.0, 2, 0, 0, -5)]
            )

    def test_out_of_range_region_wrapped(self):
        with pytest.raises(EncodingError, match="ENTER event at index 0"):
            encode_events(0, [EnterEvent(0.0, 2**32)])

    def test_bad_header_rank_wrapped(self):
        with pytest.raises(EncodingError, match="trace header"):
            encode_events(2**32, [])
        with pytest.raises(EncodingError, match="trace header"):
            encode_events(-1, [])

    def test_unknown_event_kind_rejected(self):
        class Bogus:
            kind = 99

        with pytest.raises(EncodingError, match="cannot encode event kind"):
            encode_events(0, [Bogus()])

    @given(size=st.integers(min_value=2**64, max_value=2**80))
    @settings(max_examples=20)
    def test_oversized_fields_wrapped(self, size):
        with pytest.raises(EncodingError):
            encode_events(0, [RecvEvent(0.0, 1, 0, 0, size)])


class TestEventSemantics:
    def test_equal_fields_different_kind_not_equal(self):
        assert EnterEvent(1.0, 2) != ExitEvent(1.0, 2)
        assert EnterEvent(1.0, 2) == EnterEvent(1.0, 2)

    def test_events_hashable_and_immutable(self):
        event = EnterEvent(1.0, 2)
        assert hash(event) == hash(EnterEvent(1.0, 2))
        with pytest.raises(AttributeError):
            event.time = 3.0
