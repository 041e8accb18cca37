"""Tests for trace buffers and the binary encoding."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, TraceError
from repro.trace.buffer import TraceBuffer
from repro.trace.encoding import (
    CHECKSUM_BLOCK_BYTES,
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    block_table,
    decode_events,
    encode_events,
)
from repro.trace.events import (
    CollExitEvent,
    EnterEvent,
    ExitEvent,
    RecvEvent,
    SendEvent,
)


class TestBuffer:
    def test_collects_events_in_order(self):
        buf = TraceBuffer(0)
        buf.enter(0.0, 1)
        buf.send(0.5, 2, 3, 0, 100)
        buf.exit(1.0, 1)
        buf.finalize()
        assert [type(e).__name__ for e in buf] == [
            "EnterEvent",
            "SendEvent",
            "ExitEvent",
        ]

    def test_rejects_time_reversal(self):
        buf = TraceBuffer(0)
        buf.enter(1.0, 1)
        with pytest.raises(TraceError, match="non-monotonic"):
            buf.exit(0.5, 1)

    def test_equal_stamps_allowed(self):
        buf = TraceBuffer(0)
        buf.enter(1.0, 1)
        buf.exit(1.0, 1)
        buf.finalize()

    def test_exit_without_enter_rejected(self):
        buf = TraceBuffer(0)
        with pytest.raises(TraceError):
            buf.exit(0.0, 1)

    def test_finalize_checks_balance(self):
        buf = TraceBuffer(3)
        buf.enter(0.0, 1)
        with pytest.raises(TraceError, match="unclosed"):
            buf.finalize()

    def test_append_after_finalize_rejected(self):
        buf = TraceBuffer(0)
        buf.finalize()
        with pytest.raises(TraceError):
            buf.enter(0.0, 1)



class TestChecksumBlocks:
    """The buffer's own checksum table is the one ``block_table`` cuts from
    its bytes: the archive manifest stores the former, readers use the latter."""

    def test_empty_trace(self):
        buf = TraceBuffer(7)
        head = buf.encoded()
        assert buf.blocks() == block_table(head) == [(0, HEADER_SIZE, zlib.crc32(head))]

    @settings(max_examples=150, deadline=None)
    @given(
        rank=st.integers(0, 2**31),
        kinds=st.lists(
            st.sampled_from(["enter", "exit", "send", "recv", "coll_exit", "omp_region"]),
            max_size=800,
        ),
    )
    def test_blocks_are_the_block_table_of_the_bytes(self, rank, kinds):
        # 13- to 37-byte records: several 4 KiB marks, each crossed by a
        # record of any kind at any offset within it.
        buf = TraceBuffer(rank)
        depth = 0
        for step, kind in enumerate(kinds):
            time = float(step)
            if kind == "exit" and depth:
                buf.exit(time, 1)
                depth -= 1
            elif kind in ("enter", "exit"):
                buf.enter(time, 1)
                depth += 1
            elif kind in ("send", "recv"):
                getattr(buf, kind)(time, 1, 2, 0, 64)
            elif kind == "coll_exit":
                buf.coll_exit(time, 2, 0, 0, 8, 8)
            else:
                buf.omp_region(time, 3, 4, 2.5, 1.0)
        assert buf.blocks() == block_table(buf.encoded())

    def test_a_record_ending_exactly_on_the_mark_closes_the_block(self):
        buf = TraceBuffer(0)
        time = iter(range(10**4))
        # Header (10 bytes) + 10 SENDs of 29 bytes + 292 ENTERs of 13 bytes
        # end at byte 4 096; 9 SENDs + 295 ENTERs fill the next 4 096 bytes
        # exactly; one more record opens a third block.
        for sends, enters in ((10, 292), (9, 296)):
            for _ in range(sends):
                buf.send(float(next(time)), 1, 2, 0, 64)
            for _ in range(enters):
                buf.enter(float(next(time)), 1)
        table = buf.blocks()
        assert table == block_table(buf.encoded())
        assert [length for _, length, _ in table] == [CHECKSUM_BLOCK_BYTES] * 2 + [13]

SAMPLE_EVENTS = [
    EnterEvent(0.0, 0),
    EnterEvent(0.25, 1),
    SendEvent(0.5, 3, 7, 0, 4096),
    RecvEvent(0.75, 2, -1, 1, 123456789),
    ExitEvent(1.0, 1),
    CollExitEvent(1.5, 2, 0, 3, 1024, 2048),
    ExitEvent(2.0, 0),
]


class TestEncoding:
    def test_round_trip(self):
        blob = encode_events(7, SAMPLE_EVENTS)
        rank, events = decode_events(blob)
        assert rank == 7
        assert events == SAMPLE_EVENTS

    def test_empty_trace_round_trip(self):
        rank, events = decode_events(encode_events(0, []))
        assert rank == 0
        assert events == []

    def test_header_magic(self):
        blob = encode_events(1, [])
        assert blob.startswith(MAGIC)

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + encode_events(0, [])[4:]
        with pytest.raises(EncodingError, match="magic"):
            decode_events(blob)

    def test_bad_version_rejected(self):
        import struct

        blob = struct.pack("<4sHI", MAGIC, FORMAT_VERSION + 1, 0)
        with pytest.raises(EncodingError, match="version"):
            decode_events(blob)

    def test_truncated_header_rejected(self):
        with pytest.raises(EncodingError):
            decode_events(b"RP")

    def test_truncated_record_rejected(self):
        blob = encode_events(0, SAMPLE_EVENTS)
        with pytest.raises(EncodingError, match="truncated"):
            decode_events(blob[:-3])

    def test_unknown_kind_rejected(self):
        blob = encode_events(0, []) + bytes([99]) + b"\x00" * 12
        with pytest.raises(EncodingError, match="unknown record kind"):
            decode_events(blob)

    def test_timestamps_preserved_exactly(self):
        events = [EnterEvent(0.1234567890123456, 0), ExitEvent(1e-9, 0)]
        # Note: buffer monotonicity is not enforced by the codec itself.
        _, decoded = decode_events(encode_events(0, events))
        assert decoded[0].time == events[0].time
        assert decoded[1].time == events[1].time

    def test_large_sizes_survive(self):
        events = [SendEvent(0.0, 1, 0, 0, 200 * 1024 * 1024)]
        _, decoded = decode_events(encode_events(0, events))
        assert decoded[0].size == 200 * 1024 * 1024
