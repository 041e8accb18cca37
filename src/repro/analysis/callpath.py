"""Call-path reconstruction from ENTER/EXIT events.

A call path is the chain of region ids from the root of the call tree down
to the active region.  Paths are interned in a :class:`CallPathRegistry`
(id per distinct path, with a parent pointer), which becomes the middle
panel of the result browser — "the distribution of the selected pattern
across the call tree" (paper Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import AnalysisError
from repro.trace.regions import RegionRegistry

#: Sentinel call-path id meaning "outside any region".
ROOT_PATH = -1


@dataclass(frozen=True)
class CallPath:
    """One interned call path."""

    cpid: int
    parent: int  # cpid of the parent path, or ROOT_PATH
    region: int  # region id of the innermost frame
    depth: int


class CallPathRegistry:
    """Interning table of call paths."""

    def __init__(self) -> None:
        self._paths: List[CallPath] = []
        self._index: Dict[Tuple[int, int], int] = {}  # (parent, region) -> cpid

    def __len__(self) -> int:
        return len(self._paths)

    def intern(self, parent: int, region: int) -> int:
        """Return the cpid of *parent*'s child for *region*, creating it."""
        key = (parent, region)
        cpid = self._index.get(key)
        if cpid is None:
            cpid = len(self._paths)
            self._paths.append(
                CallPath(
                    cpid=cpid,
                    parent=parent,
                    region=region,
                    depth=0 if parent == ROOT_PATH else self.path(parent).depth + 1,
                )
            )
            self._index[key] = cpid
        return cpid

    def path(self, cpid: int) -> CallPath:
        if not 0 <= cpid < len(self._paths):
            raise AnalysisError(f"unknown call path id {cpid}")
        return self._paths[cpid]

    def children(self, cpid: int) -> List[int]:
        return [p.cpid for p in self._paths if p.parent == cpid]

    def roots(self) -> List[int]:
        return [p.cpid for p in self._paths if p.parent == ROOT_PATH]

    def frames(self, cpid: int) -> List[int]:
        """Region ids from the root frame down to the innermost frame."""
        frames: List[int] = []
        while cpid != ROOT_PATH:
            path = self.path(cpid)
            frames.append(path.region)
            cpid = path.parent
        frames.reverse()
        return frames

    def render(self, cpid: int, regions: RegionRegistry, sep: str = "/") -> str:
        """Human-readable path string such as ``main/cgiteration/MPI_Recv``."""
        return sep.join(regions.name_of(r) for r in self.frames(cpid))

    def all_paths(self) -> List[CallPath]:
        return list(self._paths)

    def absorb(self, other: "CallPathRegistry") -> List[int]:
        """Intern every path of *other*, in its creation order.

        Returns the renumbering: element ``cpid`` is the id here of
        *other*'s path ``cpid``.  Absorbing rank-local (or shard-local)
        registries in ascending rank order reproduces the first-encounter
        numbering of one registry shared by all ranks.
        """
        remap: List[int] = []
        for path in other._paths:
            parent = ROOT_PATH if path.parent == ROOT_PATH else remap[path.parent]
            remap.append(self.intern(parent, path.region))
        return remap


class CallPathBuilder:
    """Per-process stack walker producing cpids as events stream by."""

    def __init__(self, registry: CallPathRegistry) -> None:
        self._registry = registry
        self._stack: List[int] = []

    @property
    def current(self) -> int:
        """cpid of the active path (ROOT_PATH when outside all regions)."""
        return self._stack[-1] if self._stack else ROOT_PATH

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, region: int) -> int:
        cpid = self._registry.intern(self.current, region)
        self._stack.append(cpid)
        return cpid

    def exit(self, region: int) -> int:
        if not self._stack:
            raise AnalysisError("EXIT event without matching ENTER")
        cpid = self._stack.pop()
        actual = self._registry.path(cpid).region
        if actual != region:
            raise AnalysisError(
                f"EXIT region {region} does not match open region {actual}"
            )
        return cpid
