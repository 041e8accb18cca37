"""In-memory file systems with per-metahost mount namespaces."""

from __future__ import annotations

import posixpath
from typing import Dict, List, Tuple

from repro.errors import FileSystemError


def _normalize(path: str) -> str:
    if not path or not path.startswith("/"):
        raise FileSystemError(f"paths must be absolute, got {path!r}")
    norm = posixpath.normpath(path)
    return norm


class SimFileSystem:
    """One storage backend: a flat namespace of directories and files."""

    def __init__(self, name: str) -> None:
        if not name:
            raise FileSystemError("file system needs a name")
        self.name = name
        self._dirs = {"/"}
        self._files: Dict[str, bytes] = {}

    # -- directories -------------------------------------------------------

    def create_dir(self, path: str, exist_ok: bool = False) -> None:
        path = _normalize(path)
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            # Create intermediate directories implicitly (mkdir -p), which
            # is what archive creation needs.
            self.create_dir(parent, exist_ok=True)
        if path in self._dirs:
            if not exist_ok:
                raise FileSystemError(f"{self.name}: directory {path} already exists")
            return
        if path in self._files:
            raise FileSystemError(f"{self.name}: {path} exists and is a file")
        self._dirs.add(path)

    def is_dir(self, path: str) -> bool:
        return _normalize(path) in self._dirs

    # -- files --------------------------------------------------------------

    def write_file(self, path: str, data: bytes, overwrite: bool = False) -> None:
        path = _normalize(path)
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise FileSystemError(f"{self.name}: no directory {parent} for {path}")
        if path in self._dirs:
            raise FileSystemError(f"{self.name}: {path} is a directory")
        if path in self._files and not overwrite:
            raise FileSystemError(f"{self.name}: file {path} already exists")
        self._files[path] = bytes(data)

    def read_file(self, path: str) -> bytes:
        path = _normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise FileSystemError(f"{self.name}: no file {path}") from None

    def is_file(self, path: str) -> bool:
        return _normalize(path) in self._files

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename *src* over *dst* (``os.replace`` semantics).

        Within one file system the move is a single dictionary update:
        observers see either the old *dst* content or the complete new one,
        never a partial write — the primitive atomic archive writes build on.
        """
        src = _normalize(src)
        dst = _normalize(dst)
        if src not in self._files:
            raise FileSystemError(f"{self.name}: no file {src}")
        if dst in self._dirs:
            raise FileSystemError(f"{self.name}: {dst} is a directory")
        parent = posixpath.dirname(dst)
        if parent not in self._dirs:
            raise FileSystemError(f"{self.name}: no directory {parent} for {dst}")
        self._files[dst] = self._files.pop(src)

    def list_dir(self, path: str) -> List[str]:
        path = _normalize(path)
        if path not in self._dirs:
            raise FileSystemError(f"{self.name}: no directory {path}")
        prefix = path.rstrip("/") + "/"
        names = set()
        for candidate in list(self._dirs) + list(self._files):
            if candidate != path and candidate.startswith(prefix):
                rest = candidate[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)

    @property
    def total_bytes(self) -> int:
        """Total stored payload (for replay-traffic accounting)."""
        return sum(len(v) for v in self._files.values())

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"SimFileSystem({self.name!r}, dirs={len(self._dirs)}, files={len(self._files)})"


class MountNamespace:
    """What one metahost's processes see: path prefixes → file systems.

    Resolution picks the longest matching mount prefix.  Two namespaces can
    map the *same* path string to *different* file systems — the defining
    property of a metacomputer without a shared file system.
    """

    def __init__(self, mounts: Dict[str, SimFileSystem]) -> None:
        if not mounts:
            raise FileSystemError("namespace needs at least one mount")
        self._mounts: List[Tuple[str, SimFileSystem]] = sorted(
            ((_normalize(prefix), fs) for prefix, fs in mounts.items()),
            key=lambda item: len(item[0]),
            reverse=True,
        )

    def resolve(self, path: str) -> SimFileSystem:
        """The file system owning *path* in this namespace."""
        path = _normalize(path)
        for prefix, fs in self._mounts:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/") or prefix == "/":
                return fs
        raise FileSystemError(f"no mount covers {path}")

    def mounts(self) -> List[Tuple[str, SimFileSystem]]:
        return list(self._mounts)

    # -- convenience passthroughs --------------------------------------------

    def create_dir(self, path: str, exist_ok: bool = False) -> None:
        self.resolve(path).create_dir(path, exist_ok=exist_ok)

    def is_dir(self, path: str) -> bool:
        try:
            return self.resolve(path).is_dir(path)
        except FileSystemError:
            return False

    def write_file(self, path: str, data: bytes, overwrite: bool = False) -> None:
        self.resolve(path).write_file(path, data, overwrite=overwrite)

    def read_file(self, path: str) -> bytes:
        return self.resolve(path).read_file(path)

    def is_file(self, path: str) -> bool:
        try:
            return self.resolve(path).is_file(path)
        except FileSystemError:
            return False

    def replace(self, src: str, dst: str) -> None:
        """Atomic rename; *src* and *dst* must live on the same file system."""
        src_fs = self.resolve(src)
        dst_fs = self.resolve(dst)
        if src_fs is not dst_fs:
            raise FileSystemError(
                f"cannot replace across file systems ({src_fs.name} → {dst_fs.name})"
            )
        src_fs.replace(src, dst)

    def write_file_atomic(self, path: str, data: bytes) -> None:
        """Write *data* to *path* through a same-directory temp file + replace.

        A crash between the two steps leaves at worst an orphaned ``*.tmp``;
        *path* itself either keeps its previous content or holds the full
        new content.
        """
        tmp = f"{path}.tmp"
        self.write_file(tmp, data, overwrite=True)
        self.replace(tmp, path)

    def list_dir(self, path: str) -> List[str]:
        return self.resolve(path).list_dir(path)


def private_namespaces(
    machine_names: List[str], mount_point: str = "/work"
) -> Dict[int, MountNamespace]:
    """One private file system per metahost, mounted at the same path.

    This is the paper's default metacomputing situation.
    """
    return {
        index: MountNamespace({mount_point: SimFileSystem(f"fs-{name}")})
        for index, name in enumerate(machine_names)
    }


def shared_namespace(
    machine_names: List[str], mount_point: str = "/work"
) -> Dict[int, MountNamespace]:
    """A single file system visible from every metahost (single-machine case)."""
    fs = SimFileSystem("fs-shared")
    return {
        index: MountNamespace({mount_point: fs})
        for index, _ in enumerate(machine_names)
    }
