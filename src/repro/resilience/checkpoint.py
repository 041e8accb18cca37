"""Checkpoint journal: resumable (config, seed) cells for long sweeps.

An experiment sweep — three schemes of Table 2, five rungs of the fault
ladder, a seed matrix — is a list of independent *cells*.  The journal
persists each completed cell's payload to real disk so an interrupted
sweep, rerun with ``--resume``, skips straight past the work it already
finished and reproduces the same outputs (every cell is deterministic in
its configuration and seed, so a cached payload and a recomputed one are
interchangeable).

Write discipline: the journal is a log.  :meth:`CheckpointJournal.record`
encodes the one changed cell, appends that single line and fsyncs before it
returns; nothing already written is touched, so the cost of a save does not
grow with the journal.  The on-disk format is one JSON object per line
(``{"cell": {...}, "payload": ...}``); on load the last line of a cell wins
and unparsable lines are skipped, so an interrupted run can lose at most
the line being appended, never corrupt the cells already recorded, and even
a journal damaged by external means degrades to recomputing a few cells
instead of failing the sweep.  Superseded lines are dropped by *compaction*:
the live cells are written to a temporary file in the same directory,
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
import os
import tempfile
from typing import Any, Dict, Mapping, Optional

from repro.errors import CheckpointError, CheckpointLockError

try:  # POSIX only; on other platforms the journal degrades to lock-free.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["CheckpointJournal"]

_FORMAT_VERSION = 1

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


def _encode(key: str, payload: Any) -> bytes:
    """The journal line of one cell (*key* is its canonical form)."""
    record = {"version": _FORMAT_VERSION, "cell": json.loads(key), "payload": payload}
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class CheckpointJournal:
    """Persistent map of completed cells → payloads, with durable appends.

    ``exclusive=True`` acquires the writer lock at open (failing fast when
    another writer holds it); the default acquires it lazily on the first
    :meth:`record`.  Use the journal as a context manager — or call
    :meth:`close` — to release the lock deterministically.
    """

    def __init__(self, path: str, *, exclusive: bool = False) -> None:
        self.path = os.fspath(path)
        self._cells: Dict[str, Any] = {}
        self._line_bytes: Dict[str, int] = {}  # size of each cell's live line
        self._live_bytes = 0  # sum of _line_bytes
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
                        record = json.loads(line)
                        cell, payload = record["cell"], record["payload"]
                        if not isinstance(cell, dict):
                            raise TypeError("cell is not an object")
                    except (ValueError, KeyError, TypeError):
                        # A torn tail from an interrupted append or external
                        # damage: skip the line — the cell is simply recomputed.
                        whole = False
                        continue
                    self._set(_canonical(cell), payload, len(line))
        except OSError as exc:
            raise CheckpointError(f"cannot read journal {self.path}: {exc}") from exc
        self._appendable = whole

    def _set(self, key: str, payload: Any, line_bytes: int) -> None:
        self._live_bytes += line_bytes - self._line_bytes.get(key, 0)
        self._line_bytes[key] = line_bytes
        self._cells[key] = payload

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def has(self, cell: Mapping[str, Any]) -> bool:
        return _canonical(cell) in self._cells

    def get(self, cell: Mapping[str, Any], default: Any = None) -> Any:
        """Payload of a completed cell, or *default* when not recorded."""
        return self._cells.get(_canonical(cell), default)

    def cells(self) -> Dict[str, Any]:
        """Snapshot of every recorded cell (canonical key → payload)."""
        return dict(self._cells)

    # -- recording ---------------------------------------------------------------

    def record(self, cell: Mapping[str, Any], payload: Any) -> None:
        """Mark a cell completed; returns once the new state is fsync'd."""
        key = _canonical(cell)
        try:
            line = _encode(key, payload)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"payload for cell {key} is not JSON-serializable: {exc}"
            ) from exc
        self._acquire_lock()
        self._set(key, payload, len(line))
        grown = self._file_bytes + len(line)
        appendable, self._appendable = self._appendable, False  # until this write succeeds
        if appendable and grown <= _COMPACT_FACTOR * self._live_bytes + _COMPACT_SLACK:
            self._append(line)
        else:
            self._flush()
        self._appendable = True

    def _append(self, line: bytes) -> None:
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                rest = memoryview(line)
                while rest:
                    rest = rest[os.write(fd, rest) :]
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as exc:
            raise CheckpointError(f"cannot append to journal {self.path}: {exc}") from exc
        self._file_bytes += len(line)

    def _flush(self) -> None:
        """Compact: atomically replace the journal with its live cells."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        sizes: Dict[str, int] = {}
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                for key, value in self._cells.items():
                    sizes[key] = handle.write(_encode(key, value))
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
        self._line_bytes = sizes
        self._live_bytes = self._file_bytes = sum(sizes.values())


def open_journal(path: Optional[str], *, exclusive: bool = False) -> Optional[CheckpointJournal]:
    """``None``-propagating constructor for optional-journal call sites."""
    return CheckpointJournal(path, exclusive=exclusive) if path else None
