"""Region (source-code function) registry.

Region identifiers are small integers shared by all processes of one run —
the instrumentation registers regions at first use and the table travels in
the archive's definitions document.  MPI operations use their standard
names (``MPI_Send`` …) and are flagged so analysis can tell communication
regions from user code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import TraceError

#: Names treated as MPI regions by the analysis.
MPI_REGION_PREFIX = "MPI_"


def is_mpi_region(name: str) -> bool:
    return name.startswith(MPI_REGION_PREFIX)


class RegionRegistry:
    """Bidirectional name ↔ id table with stable, dense ids."""

    def __init__(self) -> None:
        self._id_of: Dict[str, int] = {}
        self._name_of: List[str] = []

    def __len__(self) -> int:
        return len(self._name_of)

    def __contains__(self, name: str) -> bool:
        return name in self._id_of

    def register(self, name: str) -> int:
        """Return the id of *name*, creating it on first use."""
        if not name:
            raise TraceError("region name must be non-empty")
        rid = self._id_of.get(name)
        if rid is None:
            rid = len(self._name_of)
            self._id_of[name] = rid
            self._name_of.append(name)
        return rid

    def id_of(self, name: str) -> int:
        try:
            return self._id_of[name]
        except KeyError:
            raise TraceError(f"unknown region {name!r}") from None

    def name_of(self, rid: int) -> str:
        if not 0 <= rid < len(self._name_of):
            raise TraceError(f"unknown region id {rid}")
        return self._name_of[rid]

    def names(self) -> List[str]:
        return list(self._name_of)

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._id_of.items()

    def to_list(self) -> List[str]:
        """Serializable form: index == id."""
        return list(self._name_of)

    @classmethod
    def from_list(cls, names: Iterable[str]) -> "RegionRegistry":
        registry = cls()
        for name in names:
            registry.register(name)
        return registry
