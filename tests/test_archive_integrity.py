"""Archive integrity: block checksums, manifests, verification, salvage.

The contract under test: every trace byte is covered by exactly one
record-aligned checksum block, damage is localized to the block (never
crashing a reader), degraded replay salvages checksum-failed traces, and
every archive write is atomic (no ``*.tmp`` debris, never a half-written
file under its final name).
"""

from __future__ import annotations

import json
import warnings
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.result import RankCompleteness
from repro.api import AnalysisRequest, analyze, simulate, verify_archives
from repro.apps.imbalance import make_imbalance_app
from repro.errors import ArchiveError
from repro.faults import FaultPlan, TraceCorruption, TraceTruncation
from repro.fs.filesystem import MountNamespace, SimFileSystem
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer
from repro.trace.archive import (
    MANIFEST_FILE,
    ArchiveManifest,
    ArchiveReader,
    ArchiveWriter,
    TraceManifestEntry,
    salvage_checked,
    trace_filename,
)
from repro.trace.encoding import (
    CHECKSUM_BLOCK_BYTES,
    HEADER_SIZE,
    block_table,
    encode_events,
    salvage_events,
)
from repro.trace.events import EnterEvent, ExitEvent, RecvEvent, SendEvent

from tests.test_trace_archive import _definitions, _namespace, _sync_data

NPROCS = 4
_CACHE = {}


def _events(n: int = 400):
    events = [EnterEvent(0.0, 0)]
    for i in range(n):
        t = 0.01 * (i + 1)
        if i % 2:
            events.append(SendEvent(t, 1, 0, 0, 64))
        else:
            events.append(RecvEvent(t, 1, 0, 0, 64))
    events.append(ExitEvent(0.01 * (n + 2), 0))
    return events


def _blob(n: int = 400, rank: int = 0) -> bytes:
    return encode_events(rank, _events(n))


# -- the checksum block table --------------------------------------------------


class TestBlockTable:
    def test_covers_every_byte_exactly_once(self):
        blob = _blob()
        table = block_table(blob)
        offset = 0
        for start, length, crc in table:
            assert start == offset
            assert length > 0
            assert crc == zlib.crc32(blob[start : start + length])
            offset += length
        assert offset == len(blob)

    def test_blocks_are_record_aligned(self):
        # Re-decoding each block boundary suffix must still parse: cuts
        # never land inside a record (so a bad block loses whole records,
        # not sync with the stream).
        blob = _blob()
        table = block_table(blob)
        for start, _length, _crc in table[1:]:
            # A boundary is valid iff salvage from the header up to it is
            # byte-exact (the encoder's record stream splits there).
            salvaged = salvage_events(blob[:start])
            assert salvaged.bytes_decoded == start

    def test_block_size_near_target(self):
        blob = _blob(2000)
        table = block_table(blob)
        assert len(table) > 1
        for _start, length, _crc in table[:-1]:
            assert length >= CHECKSUM_BLOCK_BYTES

    def test_empty_data(self):
        assert block_table(b"") == []

    def test_tiny_blob_single_block(self):
        blob = _blob(1)
        assert len(block_table(blob)) == 1

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            block_table(b"x", block_bytes=0)


class TestManifest:
    def test_json_round_trip(self):
        manifest = ArchiveManifest()
        blob = _blob()
        manifest.entries[3] = TraceManifestEntry.for_blob(3, blob)
        restored = ArchiveManifest.from_json(manifest.to_json())
        assert restored.entries == manifest.entries

    def test_malformed_rejected(self):
        with pytest.raises(ArchiveError):
            ArchiveManifest.from_json("{not json")
        with pytest.raises(ArchiveError):
            ArchiveManifest.from_json('{"version": 1}')

    @pytest.mark.parametrize(
        "lie",
        [
            lambda blocks: blocks + [[-4, 4, 0]],  # before the file
            lambda blocks: [[1, blocks[0][1] - 1, 0]] + blocks[1:],  # not from 0
            lambda blocks: blocks[:1] + blocks[2:],  # a gap
            lambda blocks: blocks[:1] + [[blocks[1][0] - 1, *blocks[1][1:]]] + blocks[2:],
            lambda blocks: blocks + [[blocks[-1][0] + blocks[-1][1], 0, 0]],  # empty
            lambda blocks: blocks[:-1] + [[blocks[-1][0], blocks[-1][1] + 1, 0]],  # past size
            lambda blocks: blocks[:-1] + [[*blocks[-1][:2], 1 << 32]],  # no u32 CRC
        ],
        ids=["before-file", "not-from-0", "gap", "overlap", "empty", "past-size", "crc"],
    )
    def test_blocks_that_do_not_tile_the_trace_are_rejected(self, lie):
        """A manifest whose blocks do not tile ``[0, size)`` in order is
        unreadable, not trusted: verification slices by them and the local
        phase walks from their starts.  (A block ``[-4, 4, 0]`` used to be
        read, and salvage then reported ``bytes_decoded = -4``.)"""
        manifest = ArchiveManifest()
        manifest.entries[0] = TraceManifestEntry.for_blob(0, _blob(2000))
        document = json.loads(manifest.to_json())
        blocks = document["traces"]["0"]["blocks"]
        assert len(blocks) >= 3
        document["traces"]["0"]["blocks"] = lie(blocks)
        with pytest.raises(ArchiveError, match="^malformed archive manifest: rank 0's"):
            ArchiveManifest.from_json(json.dumps(document))

    def test_lying_manifest_leaves_completeness_a_fraction(self):
        blob = _blob(2000)
        ns, _ = _archive_with_trace(blob)
        document = json.loads(ns.read_file(f"/work/exp/{MANIFEST_FILE}"))
        document["traces"]["0"]["blocks"].append([-4, 4, 0])
        ns.write_file(f"/work/exp/{MANIFEST_FILE}", json.dumps(document).encode(), overwrite=True)
        reader = ArchiveReader(ns, "/work/exp")
        assert "malformed archive manifest" in reader.verify().error
        salvaged = salvage_checked(blob, reader.manifest_entry(0))
        assert salvaged.bytes_decoded == len(blob) and salvaged.completeness == 1.0


# -- writer atomicity ----------------------------------------------------------


class TestAtomicWrites:
    def test_no_tmp_debris_after_archiving(self):
        ns = _namespace()
        writer = ArchiveWriter(ns, "/work/exp")
        writer.write_definitions(_definitions())
        writer.write_sync_data(_sync_data())
        writer.write_trace(0, _events(50))
        assert writer.write_manifest() == 1
        names = ns.list_dir("/work/exp")
        assert MANIFEST_FILE in names
        assert not [n for n in names if n.endswith(".tmp")]

    def test_atomic_write_replaces_existing(self):
        ns = _namespace()
        ns.write_file("/work/exp/x", b"old")
        ns.write_file_atomic("/work/exp/x", b"new")
        assert ns.read_file("/work/exp/x") == b"new"
        assert not ns.is_file("/work/exp/x.tmp")


# -- verification --------------------------------------------------------------


def _archive_with_trace(blob: bytes, rank: int = 0):
    ns = _namespace()
    writer = ArchiveWriter(ns, "/work/exp")
    writer.write_definitions(_definitions())
    writer.write_trace_blob(rank, blob)
    writer.write_manifest()
    return ns, ArchiveReader(ns, "/work/exp")


class TestVerify:
    def test_clean_archive_verifies_ok(self):
        _ns, reader = _archive_with_trace(_blob())
        verification = reader.verify()
        assert verification.ok
        assert verification.traces[0].ok
        assert "verified OK" in verification.summary()

    def test_byte_flip_localized_to_its_block(self):
        blob = _blob(2000)
        table = block_table(blob)
        assert len(table) >= 3
        start, length, _crc = table[1]  # damage the *second* block
        damaged = bytearray(blob)
        damaged[start + length // 2] ^= 0xFF
        ns, reader = _archive_with_trace(blob)
        ns.write_file(
            f"/work/exp/{trace_filename(0)}", bytes(damaged), overwrite=True
        )
        verification = reader.verify()
        assert not verification.ok
        corruptions = verification.traces[0].corruptions
        assert [c.block for c in corruptions] == [1]
        assert corruptions[0].offset == start
        assert corruptions[0].actual_crc32 is not None
        # Everything before the bad block stays trusted.
        assert verification.traces[0].trusted_prefix == start

    def test_truncation_reported_as_absent_bytes(self):
        blob = _blob(2000)
        ns, reader = _archive_with_trace(blob)
        ns.write_file(
            f"/work/exp/{trace_filename(0)}", blob[: len(blob) // 2], overwrite=True
        )
        verification = reader.verify()
        bad = verification.traces[0].corruptions
        assert bad
        assert any(c.actual_crc32 is None for c in bad)

    def test_trailing_garbage_detected(self):
        blob = _blob(50)
        ns, reader = _archive_with_trace(blob)
        ns.write_file(
            f"/work/exp/{trace_filename(0)}", blob + b"JUNK", overwrite=True
        )
        assert not reader.verify().ok

    def test_missing_trace_file_is_an_error_entry(self):
        ns = _namespace()
        writer = ArchiveWriter(ns, "/work/exp")
        writer.write_definitions(_definitions())
        writer.write_trace_blob(0, _blob(50))
        writer.write_trace_blob(1, _blob(50, rank=1))
        writer.write_manifest()
        fs = ns.resolve("/work/exp")
        del fs._files[f"/work/exp/{trace_filename(1)}"]
        verification = ArchiveReader(ns, "/work/exp").verify()
        assert not verification.ok
        assert "missing" in verification.traces[1].error

    def test_manifestless_archive_is_unverifiable_not_broken(self):
        ns = _namespace()
        writer = ArchiveWriter(ns, "/work/exp")
        writer.write_definitions(_definitions())
        writer.write_trace_blob(0, _blob(50))
        # No write_manifest(): pre-integrity archive.
        verification = ArchiveReader(ns, "/work/exp").verify()
        assert verification.missing_manifest
        assert verification.ok
        assert "no manifest" in verification.summary()

    def test_unreadable_manifest_is_an_error(self):
        ns, reader = _archive_with_trace(_blob(50))
        ns.write_file(f"/work/exp/{MANIFEST_FILE}", b"{broken", overwrite=True)
        verification = ArchiveReader(ns, "/work/exp").verify()
        assert not verification.ok
        assert verification.error


class TestSalvageChecked:
    def test_silent_corruption_flagged(self):
        # A flipped payload byte that the codec parses fine: plain salvage
        # calls the trace complete; the checksum must contradict it.
        blob = _blob(400)
        entry = TraceManifestEntry.for_blob(0, blob)
        damaged = bytearray(blob)
        damaged[HEADER_SIZE + 4] ^= 0x01  # inside the first record's payload
        plain = salvage_events(bytes(damaged))
        checked = salvage_checked(bytes(damaged), entry)
        if plain.complete and plain.balanced:
            assert not checked.complete
            assert "checksum" in checked.error
        # Augment-only: checking never costs salvaged events.
        assert len(checked.events) >= len(plain.events)

    def test_clean_blob_stays_complete(self):
        blob = _blob(100)
        entry = TraceManifestEntry.for_blob(0, blob)
        checked = salvage_checked(blob, entry)
        assert checked.complete
        assert checked.error == ""

    def test_truncated_blob_reports_manifest_size(self):
        blob = _blob(400)
        entry = TraceManifestEntry.for_blob(0, blob)
        cut = block_table(blob)[0][1]  # exactly the first block: clean cut
        checked = salvage_checked(blob[:cut], entry)
        assert checked.bytes_total == len(blob)
        # The cut is record-aligned, so the grammar decodes the whole blob
        # (complete) — but the manifest still exposes the loss: the
        # completeness fraction is honest and the trace is not analyzable
        # (grammar imbalance or checksum flip, whichever applies).
        assert 0.0 < checked.completeness < 1.0
        assert not (checked.complete and checked.balanced)

    def test_no_entry_degrades_to_plain_salvage(self):
        blob = _blob(100)
        checked = salvage_checked(blob, None)
        plain = salvage_events(blob)
        assert checked.complete == plain.complete
        assert checked.events == plain.events


# -- end-to-end: runs, fault injection, degraded replay ------------------------


def _clean_run():
    if "run" not in _CACHE:
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        work = {r: 0.004 * (1 + r % 2) for r in range(NPROCS)}
        _CACHE["run"] = simulate(
            make_imbalance_app(work, iterations=3),
            mc,
            Placement.block(mc, NPROCS),
            seed=9,
        )
        files = {}
        for machine in _CACHE["run"].machines_used:
            ns = _CACHE["run"].namespaces[machine]
            files[machine] = {
                name: ns.read_file(f"{_CACHE['run'].archive_path}/{name}")
                for name in ns.list_dir(_CACHE["run"].archive_path)
            }
        _CACHE["files"] = files
    return _CACHE["run"], _CACHE["files"]


class TestRunVerification:
    def test_clean_run_verifies_ok(self):
        run, _files = _clean_run()
        verification = verify_archives(run)
        assert verification.ok
        assert verification.text().endswith("verdict: OK")

    def test_fault_injected_damage_detected(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        work = {r: 0.004 for r in range(NPROCS)}
        plan = FaultPlan(
            name="bitrot",
            seed=1,
            specs=(
                TraceCorruption(rank=1, at_fraction=0.5, length=8),
                TraceTruncation(rank=3, keep_fraction=0.6),
            ),
        )
        run = simulate(
            make_imbalance_app(work, iterations=3),
            mc,
            Placement.block(mc, NPROCS),
            seed=1,
            fault_plan=plan,
        )
        verification = verify_archives(run)
        assert not verification.ok
        damaged = {c.rank for c in verification.corruptions}
        assert damaged == {1, 3}
        assert "CORRUPTION DETECTED" in verification.text()
        # ... and the degraded replay still works on the same run.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = analyze(run, AnalysisRequest(degraded=True))
        assert result.completeness


def _damaged_readers(files, path, victim, mode, position):
    """Fresh archives with the victim's trace flipped or cut at *position*."""
    readers = {}
    for machine, contents in files.items():
        ns = MountNamespace({"/": SimFileSystem(f"fs-{machine}")})
        ns.create_dir(path)
        for name, blob in contents.items():
            if name == trace_filename(victim):
                if mode == "truncate":
                    blob = blob[: min(position, len(blob))]
                else:
                    index = position % len(blob)
                    mutated = bytearray(blob)
                    mutated[index] ^= 0xA5
                    blob = bytes(mutated)
            ns.write_file(f"{path}/{name}", blob)
        readers[machine] = ArchiveReader(ns, path)
    return readers


class TestCorruptionProperty:
    @given(
        victim=st.integers(min_value=0, max_value=NPROCS - 1),
        mode=st.sampled_from(["flip", "truncate"]),
        position=st.integers(min_value=0, max_value=30_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_damage_is_localized_and_survivable(self, victim, mode, position):
        """For any single byte flip or truncation anywhere: ``verify()``
        localizes the damage to a block of the right trace, and degraded
        replay yields a :class:`RankCompleteness` for the victim without
        ever raising."""
        run, files = _clean_run()
        readers = _damaged_readers(
            files, run.archive_path, victim, mode, position
        )
        original = files[run.definitions.machine_of(victim)][trace_filename(victim)]
        changed = (
            position % len(original) < len(original)
            if mode == "flip"
            else position < len(original)
        )

        for reader in readers.values():
            verification = reader.verify()
            entry = reader.manifest_entry(victim)
            if entry is None:
                continue  # victim archived on the other metahost
            if changed:
                assert not verification.traces[victim].ok
                bad = verification.traces[victim].corruptions
                assert all(c.rank == victim for c in bad)
                for c in bad:
                    assert 0 <= c.offset < max(1, entry.size)
            else:
                assert verification.traces[victim].ok

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = ReplayAnalyzer(readers, degraded=True).analyze()
        assert isinstance(result.completeness[victim], RankCompleteness)
        if changed:
            assert not result.completeness[victim].complete
        else:
            assert result.completeness[victim].complete
