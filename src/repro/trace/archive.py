"""Experiment archives.

All files of one experiment live in a single archive directory (paper
Section 3, *Trace file organization*).  On a metacomputer the archive may
be *partial* — replicated per metahost on whatever storage that metahost
can reach (Section 4, *Runtime archive management*); each partial archive
holds the definitions document, the synchronization measurements, and the
local trace files of the ranks running on that metahost.

Layout inside an archive directory::

    <path>/definitions.json     region table, system tree, communicators
    <path>/sync.json            offset-measurement records
    <path>/trace.<rank>.dat     binary event stream of one rank
    <path>/manifest.json        per-rank sizes + record-block CRC32 checksums

Every file is written atomically (same-directory ``*.tmp`` then an atomic
replace), so an interrupted run never leaves a half-written file that a
later resume would trust.  The manifest carries record-aligned CRC32
block checksums of each trace as it left the encoder, which is what lets
:meth:`ArchiveReader.verify` localize on-storage corruption to a block
and lets degraded-mode replay distinguish a clean trace from one whose
damage happens to decode.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.clocks.serialize import sync_data_from_dict, sync_data_to_dict
from repro.clocks.sync import SyncData
from repro.errors import ArchiveError, FileSystemError
from repro.fs.filesystem import MountNamespace
from repro.ids import Location
from repro.trace.encoding import (
    RecordScan,
    SalvagedTrace,
    block_table,
    encode_events,
    iter_events,
    salvage_events,
)
from repro.trace.events import Event
from repro.trace.regions import RegionRegistry

DEFINITIONS_FILE = "definitions.json"
SYNC_FILE = "sync.json"
MANIFEST_FILE = "manifest.json"


def trace_filename(rank: int) -> str:
    return f"trace.{rank}.dat"


@dataclass
class Definitions:
    """Archive-wide metadata: system tree, regions, communicators."""

    machine_names: List[str]
    locations: Dict[int, Location]
    regions: RegionRegistry
    communicators: Dict[int, Tuple[str, Tuple[int, ...]]] = field(default_factory=dict)

    @property
    def world_size(self) -> int:
        return len(self.locations)

    def machine_of(self, rank: int) -> int:
        try:
            return self.locations[rank].machine
        except KeyError:
            raise ArchiveError(f"no location recorded for rank {rank}") from None

    def ranks_of_machine(self, machine: int) -> List[int]:
        return sorted(
            rank for rank, loc in self.locations.items() if loc.machine == machine
        )

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "version": 1,
            "machine_names": self.machine_names,
            "locations": {
                str(rank): list(loc.as_tuple()) for rank, loc in self.locations.items()
            },
            "regions": self.regions.to_list(),
            "communicators": {
                str(cid): {"name": name, "ranks": list(ranks)}
                for cid, (name, ranks) in self.communicators.items()
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Definitions":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"malformed definitions document: {exc}") from exc
        try:
            locations = {
                int(rank): Location(*map(int, loc))
                for rank, loc in payload["locations"].items()
            }
            communicators = {
                int(cid): (entry["name"], tuple(int(r) for r in entry["ranks"]))
                for cid, entry in payload.get("communicators", {}).items()
            }
            return cls(
                machine_names=list(payload["machine_names"]),
                locations=locations,
                regions=RegionRegistry.from_list(payload["regions"]),
                communicators=communicators,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"malformed definitions document: {exc}") from exc


@dataclass(frozen=True)
class TraceManifestEntry:
    """Integrity metadata of one rank's trace as it left the encoder.

    ``blocks`` is the record-aligned checksum table of
    :func:`~repro.trace.encoding.block_table`: ``(offset, length, crc32)``
    triples covering every byte of the pristine file exactly once.
    """

    rank: int
    size: int
    blocks: Tuple[Tuple[int, int, int], ...]

    @classmethod
    def for_blob(cls, rank: int, blob: bytes) -> "TraceManifestEntry":
        return cls(
            rank=rank,
            size=len(blob),
            blocks=tuple(block_table(blob)),
        )


@dataclass
class ArchiveManifest:
    """The per-archive integrity manifest: rank → trace checksums."""

    entries: Dict[int, TraceManifestEntry] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "traces": {
                str(rank): {
                    "size": entry.size,
                    "blocks": [list(block) for block in entry.blocks],
                }
                for rank, entry in sorted(self.entries.items())
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchiveManifest":
        """Parse a manifest; raises :class:`~repro.errors.ArchiveError` unless
        every entry's blocks tile ``[0, size)`` in order with a u32 CRC each
        — what verification slices by and the local phase walks from."""
        try:
            payload = json.loads(text)
            entries = {
                int(rank): TraceManifestEntry(
                    rank=int(rank),
                    size=int(doc["size"]),
                    blocks=tuple(
                        (int(o), int(n), int(c)) for o, n, c in doc["blocks"]
                    ),
                )
                for rank, doc in payload["traces"].items()
            }
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"malformed archive manifest: {exc}") from exc
        for entry in entries.values():
            covered = 0
            for offset, length, crc in entry.blocks:
                if offset != covered or length <= 0 or not 0 <= crc < 1 << 32:
                    raise ArchiveError(
                        f"malformed archive manifest: rank {entry.rank}'s block "
                        f"{[offset, length, crc]} does not continue the tiling "
                        f"at offset {covered}"
                    )
                covered += length
            if covered != entry.size:
                raise ArchiveError(
                    f"malformed archive manifest: rank {entry.rank}'s blocks "
                    f"cover {covered} of {entry.size} byte(s)"
                )
        return cls(entries=entries)


@dataclass(frozen=True)
class BlockCorruption:
    """One checksum block of one trace that failed verification."""

    rank: int
    #: Index of the block in the manifest's table.
    block: int
    offset: int
    length: int
    expected_crc32: int
    #: CRC of the bytes actually on storage; ``None`` when they are absent
    #: (truncation) rather than altered.
    actual_crc32: Optional[int]
    reason: str


@dataclass
class TraceVerification:
    """Verification verdict of one rank's trace against its manifest entry."""

    rank: int
    size_expected: int
    size_actual: int
    corruptions: Tuple[BlockCorruption, ...] = ()
    #: Set when the trace could not be checked at all (file missing).
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.corruptions and not self.error

    @property
    def trusted_prefix(self) -> int:
        """Bytes from offset 0 known good: up to the first failed block."""
        if self.error:
            return 0
        if not self.corruptions:
            return min(self.size_expected, self.size_actual)
        return min(c.offset for c in self.corruptions)


@dataclass
class ArchiveVerification:
    """Typed corruption report for one (partial) archive directory."""

    path: str
    traces: Dict[int, TraceVerification] = field(default_factory=dict)
    #: Ranks with a trace file but no manifest entry (unverifiable).
    unverified: Tuple[int, ...] = ()
    #: The archive predates integrity manifests; nothing could be checked.
    missing_manifest: bool = False
    #: The manifest itself was unreadable.
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(t.ok for t in self.traces.values())

    @property
    def corruptions(self) -> List[BlockCorruption]:
        return [c for t in sorted(self.traces) for c in self.traces[t].corruptions]

    def summary(self) -> str:
        if self.missing_manifest:
            return f"{self.path}: no manifest (archive predates integrity checks)"
        if self.error:
            return f"{self.path}: manifest unreadable: {self.error}"
        bad = [t for t in sorted(self.traces) if not self.traces[t].ok]
        if not bad:
            return f"{self.path}: {len(self.traces)} trace(s) verified OK"
        return (
            f"{self.path}: {len(bad)} of {len(self.traces)} trace(s) damaged "
            f"(ranks {', '.join(map(str, bad))}; "
            f"{len(self.corruptions)} bad block(s))"
        )


@dataclass
class RunVerification:
    """Integrity verdict across every partial archive of a run."""

    archives: List[ArchiveVerification] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.archives)

    @property
    def corruptions(self) -> List[BlockCorruption]:
        return [c for a in self.archives for c in a.corruptions]

    def text(self) -> str:
        lines = [a.summary() for a in self.archives]
        verdict = "OK" if self.ok else "CORRUPTION DETECTED"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def verify_trace_blob(blob: bytes, entry: TraceManifestEntry) -> TraceVerification:
    """Check *blob* against its manifest entry, localizing damage to blocks."""
    corruptions: List[BlockCorruption] = []
    size_actual = len(blob)
    for index, (offset, length, expected) in enumerate(entry.blocks):
        chunk = blob[offset : offset + length]
        if len(chunk) < length:
            corruptions.append(
                BlockCorruption(
                    rank=entry.rank,
                    block=index,
                    offset=offset,
                    length=length,
                    expected_crc32=expected,
                    actual_crc32=None,
                    reason=(
                        f"block truncated: {len(chunk)} of {length} bytes present"
                    ),
                )
            )
            continue
        actual = zlib.crc32(chunk)
        if actual != expected:
            corruptions.append(
                BlockCorruption(
                    rank=entry.rank,
                    block=index,
                    offset=offset,
                    length=length,
                    expected_crc32=expected,
                    actual_crc32=actual,
                    reason="checksum mismatch",
                )
            )
    if size_actual > entry.size:
        corruptions.append(
            BlockCorruption(
                rank=entry.rank,
                block=len(entry.blocks),
                offset=entry.size,
                length=size_actual - entry.size,
                expected_crc32=0,
                actual_crc32=zlib.crc32(blob[entry.size :]),
                reason=f"{size_actual - entry.size} trailing byte(s) beyond "
                "the manifest's coverage",
            )
        )
    return TraceVerification(
        rank=entry.rank,
        size_expected=entry.size,
        size_actual=size_actual,
        corruptions=tuple(corruptions),
    )


def salvage_checked(
    blob: bytes,
    entry: Optional[TraceManifestEntry],
    count_only: bool = False,
    scan: Optional[RecordScan] = None,
) -> SalvagedTrace:
    """Checksum-aware salvage: grammar salvage plus manifest evidence.

    Augments :func:`~repro.trace.encoding.salvage_events` — it never
    decodes fewer events — with what only the manifest can know:

    * ``bytes_total`` becomes the *original* encoded size, so the
      completeness fraction of a truncated trace reflects what was lost
      rather than pretending the shrunken file is the whole story;
    * damage that the grammar cannot see (a record-boundary truncation, a
      byte flip that still parses) flips ``complete`` to False with a
      checksum diagnosis, so degraded-mode replay treats the rank as
      partial instead of silently analyzing corrupt data.

    With no manifest entry (``entry is None``) this is exactly
    ``salvage_events(blob)``.  ``count_only`` and *scan* are passed through:
    degraded admission counts without materializing events, over the walk
    the local phase made of the blob.
    """
    salvaged = salvage_events(blob, count_only=count_only, scan=scan)
    if entry is None:
        return salvaged
    salvaged.bytes_total = max(salvaged.bytes_total, entry.size)
    verification = verify_trace_blob(blob, entry)
    if not verification.ok and salvaged.complete and salvaged.balanced:
        first = verification.corruptions[0]
        salvaged.complete = False
        salvaged.error = (
            f"checksum: block {first.block} at offset {first.offset} "
            f"({first.reason})"
        )
        salvaged.bytes_decoded = min(
            salvaged.bytes_decoded, verification.trusted_prefix
        )
    return salvaged


@dataclass
class TraceShard:
    """A picklable snapshot of one shard's raw trace files.

    This is the unit of work shipped to a parallel analysis worker: plain
    bytes keyed by rank, detached from any mount namespace, so it crosses a
    ``multiprocessing`` boundary under both fork and spawn without dragging
    the simulated file system along.  A rank whose trace file is absent
    from its reader's archive is recorded in ``missing`` with the reason; a
    rank in neither ``blobs`` nor ``missing`` had no reader at all.  Rank
    admission (:func:`repro.analysis.parallel._admit_rank`) turns both
    into the strict error or the degraded exclusion.
    """

    ranks: Tuple[int, ...]
    blobs: Dict[int, bytes] = field(default_factory=dict)
    missing: Dict[int, str] = field(default_factory=dict)
    #: Manifest entries for the snapshotted ranks, when the archive has a
    #: manifest — workers use them for checksum-aware degraded salvage.
    manifests: Dict[int, TraceManifestEntry] = field(default_factory=dict)

    @classmethod
    def gather(
        cls,
        ranks: Sequence[int],
        definitions: "Definitions",
        readers: Mapping[int, "ArchiveReader"],
    ) -> "TraceShard":
        """Snapshot *ranks*, each through its own metahost's reader.

        *readers* is keyed by machine; a rank whose machine has none ends up
        in neither ``blobs`` nor ``missing``.  Blobs, absence reasons and
        checksum manifests all travel — a shard without its manifests would
        skip block verification in degraded admission.
        """
        shard = cls(ranks=tuple(ranks))
        by_machine: Dict[int, List[int]] = {}
        for rank in shard.ranks:
            by_machine.setdefault(definitions.machine_of(rank), []).append(rank)
        for machine in sorted(by_machine):
            reader = readers.get(machine)
            if reader is not None:
                snapshot = reader.shard_snapshot(by_machine[machine])
                shard.blobs.update(snapshot.blobs)
                shard.missing.update(snapshot.missing)
                shard.manifests.update(snapshot.manifests)
        return shard

    def select(self, ranks: Sequence[int]) -> "TraceShard":
        """The part of this snapshot that covers *ranks* (no bytes copied)."""

        def part(held: Dict[int, Any]) -> Dict[int, Any]:
            return {rank: held[rank] for rank in ranks if rank in held}

        return TraceShard(
            tuple(ranks), part(self.blobs), part(self.missing), part(self.manifests)
        )


class ArchiveWriter:
    """Writes one metahost's partial archive through its mount namespace.

    Every file goes through an atomic same-directory temp-file + replace,
    and each trace write accumulates a manifest entry;
    :meth:`write_manifest` seals the archive with the integrity manifest
    once all local traces are down.
    """

    def __init__(self, namespace: MountNamespace, path: str) -> None:
        self.namespace = namespace
        self.path = path.rstrip("/")
        if not namespace.is_dir(self.path):
            raise ArchiveError(
                f"archive directory {self.path} does not exist; run the "
                "archive-management protocol first"
            )
        self._manifest = ArchiveManifest()

    def _file(self, name: str) -> str:
        return f"{self.path}/{name}"

    def _write_atomic(self, name: str, data: bytes) -> None:
        self.namespace.write_file_atomic(self._file(name), data)

    def write_definitions(self, definitions: Definitions) -> None:
        self._write_atomic(DEFINITIONS_FILE, definitions.to_json().encode("utf-8"))

    def write_sync_data(self, sync_data: SyncData) -> None:
        self._write_atomic(
            SYNC_FILE,
            json.dumps(sync_data_to_dict(sync_data), sort_keys=True).encode("utf-8"),
        )

    def write_trace(self, rank: int, events: Sequence[Event]) -> int:
        """Write one rank's local trace; returns the encoded byte count."""
        return self.write_trace_blob(rank, encode_events(rank, events))

    def write_trace_blob(
        self, rank: int, blob: bytes, checksums_of: Optional[bytes] = None
    ) -> int:
        """Write pre-encoded trace bytes for *rank* and record its checksums.

        ``checksums_of`` lets the caller checksum *different* bytes than it
        stores: fault injection models storage corrupting a trace *after*
        the encoder checksummed it, so the manifest carries the pristine
        bytes' CRCs while the damaged bytes hit the (simulated) disk —
        exactly the situation :meth:`ArchiveReader.verify` exists to catch.
        """
        self._manifest.entries[rank] = TraceManifestEntry.for_blob(
            rank, blob if checksums_of is None else checksums_of
        )
        self._write_atomic(trace_filename(rank), blob)
        return len(blob)

    def write_manifest(self) -> int:
        """Seal the archive: persist the accumulated integrity manifest."""
        data = self._manifest.to_json().encode("utf-8")
        self._write_atomic(MANIFEST_FILE, data)
        return len(self._manifest.entries)


class ArchiveReader:
    """Reads a (partial) archive through one metahost's namespace.

    The defining constraint of the paper's parallel analysis holds here:
    a reader can only deliver trace files that are physically present on
    the file system its namespace resolves the archive path to.
    """

    def __init__(self, namespace: MountNamespace, path: str) -> None:
        self.namespace = namespace
        self.path = path.rstrip("/")
        if not namespace.is_dir(self.path):
            raise ArchiveError(f"no archive directory at {self.path}")
        self._definitions: Optional[Definitions] = None
        self._manifest_loaded = False
        self._manifest: Optional[ArchiveManifest] = None

    def _file(self, name: str) -> str:
        return f"{self.path}/{name}"

    def definitions(self) -> Definitions:
        if self._definitions is None:
            blob = self.namespace.read_file(self._file(DEFINITIONS_FILE))
            self._definitions = Definitions.from_json(blob.decode("utf-8"))
        return self._definitions

    def sync_data(self) -> SyncData:
        blob = self.namespace.read_file(self._file(SYNC_FILE))
        return sync_data_from_dict(json.loads(blob.decode("utf-8")))

    def manifest(self) -> Optional[ArchiveManifest]:
        """The archive's integrity manifest, or ``None`` when it has none.

        A malformed manifest raises :class:`~repro.errors.ArchiveError`
        (the file exists but cannot be trusted); a manifest-less archive —
        one written before integrity checks existed — is simply
        unverifiable, not broken.
        """
        if not self._manifest_loaded:
            self._manifest_loaded = True
            try:
                blob = self.namespace.read_file(self._file(MANIFEST_FILE))
            except FileSystemError:
                self._manifest = None
            else:
                self._manifest = ArchiveManifest.from_json(blob.decode("utf-8"))
        return self._manifest

    def manifest_entry(self, rank: int) -> Optional[TraceManifestEntry]:
        """Best-effort manifest entry for *rank* (``None`` when unavailable)."""
        try:
            manifest = self.manifest()
        except ArchiveError:
            return None
        if manifest is None:
            return None
        return manifest.entries.get(rank)

    def verify(self) -> ArchiveVerification:
        """Check every manifest-covered trace; localize damage to blocks."""
        result = ArchiveVerification(path=self.path)
        try:
            manifest = self.manifest()
        except ArchiveError as exc:
            result.error = str(exc)
            return result
        if manifest is None:
            result.missing_manifest = True
            return result
        present = set(self.available_ranks())
        for rank, entry in sorted(manifest.entries.items()):
            if rank not in present:
                result.traces[rank] = TraceVerification(
                    rank=rank,
                    size_expected=entry.size,
                    size_actual=0,
                    error=f"{trace_filename(rank)} missing from the archive",
                )
                continue
            result.traces[rank] = verify_trace_blob(
                self.read_trace_blob(rank), entry
            )
        result.unverified = tuple(sorted(present - set(manifest.entries)))
        return result

    def has_trace(self, rank: int) -> bool:
        return self.namespace.is_file(self._file(trace_filename(rank)))

    def read_trace(self, rank: int) -> List[Event]:
        _size, records = self.stream_trace(rank)
        return list(records)

    def read_trace_blob(self, rank: int) -> bytes:
        """One rank's trace file as raw bytes (header included, undecoded).

        For consumers that drive the codec themselves — the pipeline
        benchmark times :func:`~repro.trace.encoding.decode_events` against
        exactly these bytes.
        """
        return self.namespace.read_file(self._file(trace_filename(rank)))

    def stream_trace(self, rank: int) -> Tuple[int, Iterator[Event]]:
        """One rank's trace as ``(file byte count, lazy event iterator)``.

        The streaming form lets the replay walk a trace exactly once without
        ever materializing the full event list (or re-reading the file just
        to learn its size).
        """
        blob = self.namespace.read_file(self._file(trace_filename(rank)))
        file_rank, records = iter_events(blob)
        if file_rank != rank:
            raise ArchiveError(
                f"trace file {trace_filename(rank)} claims rank {file_rank}"
            )
        return len(blob), records

    def shard_snapshot(self, ranks: Sequence[int]) -> TraceShard:
        """Raw trace blobs for *ranks*, detached from the namespace.

        The shard-addressable read behind the analyzer's local phase: the
        parent process snapshots a rank's (in-process) or a shard's bytes
        through the owning metahost's namespace; a shard's self-contained
        :class:`TraceShard` is then shipped to a pool worker.
        """
        shard = TraceShard(ranks=tuple(ranks))
        for rank in shard.ranks:
            if self.has_trace(rank):
                shard.blobs[rank] = self.read_trace_blob(rank)
                entry = self.manifest_entry(rank)
                if entry is not None:
                    shard.manifests[rank] = entry
            else:
                shard.missing[rank] = (
                    f"{trace_filename(rank)} missing from its metahost's archive"
                )
        return shard

    def available_ranks(self) -> List[int]:
        ranks = []
        for name in self.namespace.list_dir(self.path):
            if name.startswith("trace.") and name.endswith(".dat"):
                middle = name[len("trace."):-len(".dat")]
                if middle.isdigit():
                    ranks.append(int(middle))
        return sorted(ranks)
