"""Checkpoint journal: resumable (config, seed) cells for long sweeps.

An experiment sweep — three schemes of Table 2, five rungs of the fault
ladder, a seed matrix — is a list of independent *cells*.  The journal
persists each completed cell's payload to real disk so an interrupted
sweep, rerun with ``--resume``, skips straight past the work it already
finished and reproduces the same outputs (every cell is deterministic in
its configuration and seed, so a cached payload and a recomputed one are
interchangeable).  In memory the journal keeps only each cell's place in
the file (its live line's offset and length); reads slice the payload's
bytes back out, and a line that no longer checks out as that cell reads
as missing, never as another cell's payload.

Write discipline: the journal is a log.  :meth:`CheckpointJournal.record`
encodes the one changed cell, appends that single line and fsyncs before it
returns; nothing already written is touched, so the cost of a save does not
grow with the journal.  A line is ``json.dumps({"cell": {...}, "crc": N,
"payload": P, "version": 2}, sort_keys=True)``, ``N`` the CRC-32 of ``P``'s
bytes, so a read checks the cell prefix and the CRC of the slice and
catches a changed byte that still parses; load parses a version-2 line's
cell, never its payload, and a version-1 line (no ``crc``) whole.  On load
the last line of a cell wins, and lines that do
not parse or fail their CRC are skipped, so an interrupted run can lose at most
the line being appended, never corrupt the cells already recorded, and even
a journal damaged by external means degrades to recomputing a few cells
instead of failing the sweep.  Superseded lines are dropped by *compaction*:
the live lines are copied to a temporary file in the same directory,
fsync'd, moved over the journal with :func:`os.replace`, and the directory
is fsync'd.  Compaction runs from ``record`` when the file outgrows twice
its live bytes plus a fixed slack, and instead of the append whenever the
file may not end in a whole line — it does not exist yet, the load saw a
torn tail or an unparsable line, or an earlier append failed — so a new
record can never glue onto a torn one.

Single-writer discipline: appends and compaction are atomic against crashes
but not against a *second writer* — two processes recording cells into one
journal would compact away each other's lines and silently lose cells.  A
journal therefore takes an advisory ``fcntl`` lock (on a ``<path>.lock``
sidecar) before its first write — or already at open with
``exclusive=True``, the mode long-lived owners such as the job store and
``--resume`` sweeps use — and holds it until :meth:`close`.  A second
writer fails fast with :class:`~repro.errors.CheckpointLockError` instead
of corrupting the store.  Pure readers never lock.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import tempfile
import zlib
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import CheckpointError, CheckpointLockError

try:  # POSIX only; on other platforms the journal degrades to lock-free.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["CheckpointJournal"]

_DECODER = json.JSONDecoder()
_OPEN = b'{"cell": '  # a version-2 line's first bytes
_CRC = b', "crc": '  # between a version-2 line's cell and its CRC
_SEP = b', "payload": '  # between a version-2 line's CRC and its payload
_TAIL = b', "version": 2}'  # a version-2 line's last bytes, newline aside

# Compact when the file exceeds _COMPACT_FACTOR x its live bytes + _COMPACT_SLACK:
# the rewrite then costs less than the appends that earned it.
_COMPACT_FACTOR = 2
_COMPACT_SLACK = 64 * 1024


def _canonical(cell: Mapping[str, Any]) -> str:
    """Stable identity of one cell: canonical-JSON of its config mapping."""
    try:
        return json.dumps(cell, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"cell is not JSON-serializable: {exc}") from exc


def _head(key: str) -> bytes:
    """A version-2 line's bytes up to its CRC (*key* is the cell's canonical form)."""
    return _OPEN + json.dumps(json.loads(key), sort_keys=True).encode() + _CRC


def _encode(key: str, payload: bytes) -> bytes:
    """The journal line of one cell: ``json.dumps`` of the record, *payload* its encoded ``P``."""
    return b"%s%d%s%s%s\n" % (_head(key), zlib.crc32(payload), _SEP, payload, _TAIL)


def _checked(key: str, line: bytes) -> Optional[bytes]:
    """``P`` of a version-2 line of cell *key* whose CRC holds, else ``None``."""
    head, end = _head(key), len(line) - line.endswith(b"\n")
    if not (line.startswith(head) and line.endswith(_TAIL, 0, end)):
        return None
    sep = line.find(_SEP, len(head), len(head) + 10 + len(_SEP))  # a CRC-32 has <= 10 digits
    crc, payload = line[len(head) : sep], line[sep + len(_SEP) : end - len(_TAIL)]
    return payload if sep > 0 and crc.isdigit() and zlib.crc32(payload) == int(crc) else None


def _v2_key(line: bytes) -> Optional[str]:
    """The cell key of a version-2 line whose head and CRC check out, from
    the cell alone: the payload is not parsed.  ``None`` for any other line."""
    try:
        cell, _ = _DECODER.raw_decode(line.decode("ascii"), len(_OPEN))
    except ValueError:
        return None
    key = _canonical(cell) if isinstance(cell, dict) else ""
    return key if key and _checked(key, line) is not None else None


def _v1(record: Mapping[str, Any]) -> bool:
    """Whether a parsed line is in the version-1 format, which has no CRC."""
    return record.get("version", 1) == 1 and "crc" not in record


class CheckpointJournal:
    """Completed cells on disk, each kept in memory as its live line's place.

    ``exclusive=True`` acquires the writer lock at open (failing fast when
    another writer holds it); the default acquires it lazily on the first
    :meth:`record`.  Use the journal as a context manager — or call
    :meth:`close` — to release the lock deterministically.
    """

    def __init__(self, path: str, *, exclusive: bool = False) -> None:
        self.path = os.fspath(path)
        self._spans: Dict[str, Tuple[int, int]] = {}  # each cell's live line: offset, length
        self._live_bytes = 0  # sum of the live lines' lengths
        self._file_bytes = 0
        self._appendable = False  # the file exists and ends in a whole line
        self._lock_fd: Optional[int] = None
        if exclusive:
            self._acquire_lock()
        self._load()

    # -- the writer lock -------------------------------------------------------

    @property
    def lock_path(self) -> str:
        return self.path + ".lock"

    def _acquire_lock(self) -> None:
        if self._lock_fd is not None or fcntl is None:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError as exc:
            raise CheckpointError(
                f"cannot open journal lock {self.lock_path}: {exc}"
            ) from exc
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            holder = ""
            try:
                holder = os.pread(fd, 64, 0).decode("ascii", "replace").strip()
            except OSError:
                pass
            os.close(fd)
            held = f" (held by pid {holder})" if holder else ""
            raise CheckpointLockError(
                f"journal {self.path} already has a writer{held}; "
                "concurrent writers would corrupt the store",
                path=self.path,
                holder=holder,
            ) from exc
        try:
            os.ftruncate(fd, 0)
            os.pwrite(fd, str(os.getpid()).encode("ascii"), 0)
        except OSError:  # diagnostics only — the lock itself is what matters
            pass
        self._lock_fd = fd
        multiprocessing.util.register_after_fork(self, CheckpointJournal._drop_inherited_lock)

    def _drop_inherited_lock(self) -> None:
        """In a forked worker: close its copy of the lock descriptor.

        The lock belongs to the open file description the parent shares
        with the worker, so the worker must not unlock it, and must not keep
        it held after the parent dies (a restarted writer would be refused).
        """
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            os.close(fd)

    def close(self) -> None:
        """Release the writer lock (if held).  Idempotent."""
        if self._lock_fd is None:
            return
        fd, self._lock_fd = self._lock_fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        whole = True  # every line parsed and the file ends in a newline
        try:
            with open(self.path, "rb") as handle:
                for line in handle:
                    self._file_bytes += len(line)
                    whole = whole and line.endswith(b"\n")
                    if line.isspace():
                        continue
                    try:
                        key = _v2_key(line)
                        if key is None:  # a version-1 line is read by parsing
                            record = json.loads(line)
                            cell, _payload = record["cell"], record["payload"]
                            if not isinstance(cell, dict):
                                raise TypeError("cell is not an object")
                            key = _canonical(cell)
                            if not _v1(record):
                                raise ValueError("CRC mismatch")
                    except (ValueError, KeyError, TypeError):
                        # A torn tail from an interrupted append or external
                        # damage: skip the line — the cell is simply recomputed.
                        whole = False
                        continue
                    self._place(key, self._file_bytes - len(line), len(line))
        except OSError as exc:
            raise CheckpointError(f"cannot read journal {self.path}: {exc}") from exc
        self._appendable = whole

    def _place(self, key: str, offset: int, length: int) -> None:
        self._live_bytes += length - self._spans.get(key, (0, 0))[1]
        self._spans[key] = (offset, length)

    def _line(self, key: str) -> bytes:
        offset, length = self._spans[key]
        with open(self.path, "rb") as handle:
            return os.pread(handle.fileno(), length, offset)

    def payload_bytes(self, cell: Mapping[str, Any]) -> Optional[bytes]:
        """A cell's payload as checked JSON bytes, or ``None`` when it is not
        recorded or its line no longer reads back as that cell."""
        key = _canonical(cell)
        try:
            line = self._line(key)
        except (OSError, KeyError):
            return None
        payload = _checked(key, line)
        if payload is not None:
            return payload
        try:  # a version-1 line: parse it and encode its payload
            record = json.loads(line)
            if _canonical(record["cell"]) == key and _v1(record):
                return json.dumps(record["payload"], sort_keys=True).encode()
        except (ValueError, KeyError, TypeError):
            pass
        return None

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def has(self, cell: Mapping[str, Any]) -> bool:
        return _canonical(cell) in self._spans

    def get(self, cell: Mapping[str, Any], default: Any = None) -> Any:
        """Payload of a cell, or *default* when it is not recorded or does not read back."""
        payload = self.payload_bytes(cell)
        return default if payload is None else json.loads(payload)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """``(canonical key, payload)`` of each cell that reads back, one line at a time."""
        for key in list(self._spans):
            payload = self.payload_bytes(json.loads(key))
            if payload is not None:
                yield key, json.loads(payload)

    def cells(self) -> Dict[str, Any]:
        """Snapshot of every cell whose line reads back (canonical key → payload)."""
        return dict(self.items())

    # -- recording ---------------------------------------------------------------

    def record(self, cell: Mapping[str, Any], payload: Any) -> None:
        """Mark a cell completed; returns once the new state is fsync'd.  A ``bytes``
        *payload* is already encoded: ``json.dumps(value, sort_keys=True)``."""
        key = _canonical(cell)
        try:
            if not isinstance(payload, bytes):
                payload = json.dumps(payload, sort_keys=True).encode()
            line = _encode(key, payload)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"payload for cell {key} is not JSON-serializable: {exc}"
            ) from exc
        self._acquire_lock()
        live = self._live_bytes + len(line) - self._spans.get(key, (0, 0))[1]
        grown = self._file_bytes + len(line)
        appendable, self._appendable = self._appendable, False  # until this write succeeds
        if appendable and grown <= _COMPACT_FACTOR * live + _COMPACT_SLACK:
            self._append(key, line)
        else:
            self._flush(key, line)
        self._appendable = True

    def _append(self, key: str, line: bytes) -> None:
        try:
            # check: allow ATM201: the journal's one append site: a single whole line is
            # written and fsync'd before record() returns, the loader skips a torn tail and
            # takes the last line of a cell, and after a torn tail or a failed append the
            # next write is an atomic compaction, so a crash mid-append loses at most that line
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                rest = memoryview(line)
                while rest:
                    rest = rest[os.write(fd, rest) :]
                os.fsync(fd)
                end = os.lseek(fd, 0, os.SEEK_CUR)  # where the line really ended
            finally:
                os.close(fd)
        except OSError as exc:
            raise CheckpointError(f"cannot append to journal {self.path}: {exc}") from exc
        self._place(key, end - len(line), len(line))
        self._file_bytes = end

    def _flush(self, key: Optional[str] = None, line: bytes = b"") -> None:
        """Compact: atomically replace the journal with copies of its live
        lines, *line* (when given) replacing *key*'s."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        spans: Dict[str, Tuple[int, int]] = {}
        size = 0
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                for other in self._spans:
                    if other != key:  # *line* replaces key's; a last line may lack its newline
                        chunk = self._line(other).rstrip(b"\n") + b"\n"
                        spans[other] = (size, len(chunk))
                        size += handle.write(chunk)
                if key is not None:
                    spans[key] = (size, len(line))
                    size += handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            if os.name == "posix":  # make the rename (or creation) itself durable
                dir_fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise CheckpointError(f"cannot write journal {self.path}: {exc}") from exc
        self._spans = spans
        self._live_bytes = self._file_bytes = size
