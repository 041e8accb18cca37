"""Typed identifiers and the event-location model.

The paper (Section 3, *Event location*) specifies the location of an event
as a tuple ``(machine, node, process, thread)``.  The *machine* component is
what identifies a metahost in a metacomputing run; there is exactly one
machine unless the application runs on a metacomputer.

We follow that model literally: :class:`Location` is an immutable 4-tuple
with named fields, ordered first by machine, then node, then process, then
thread, so that system trees sort hierarchically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

#: Sentinel rank constants mirroring MPI semantics.
ANY_SOURCE: int = -1
ANY_TAG: int = -1


@dataclass(frozen=True, order=True)
class Location:
    """Location of an event: ``(machine, node, process, thread)``.

    Parameters
    ----------
    machine:
        Index of the metahost (machine) within the metacomputer.
    node:
        Index of the SMP node within the metahost.
    process:
        Global MPI rank of the process.
    thread:
        Thread identifier within the process (``0`` for pure-MPI codes,
        which is all that MPI-1 metacomputing applications in the paper
        use).
    """

    machine: int
    node: int
    process: int
    thread: int = 0

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Return the plain tuple form ``(machine, node, process, thread)``."""
        return (self.machine, self.node, self.process, self.thread)

    def same_machine(self, other: "Location") -> bool:
        """True when both locations live on the same metahost.

        This is the predicate the grid patterns are built on: a wait state
        is *grid* (metacomputing-specific) exactly when the waiting and the
        causing location differ in their machine component.
        """
        return self.machine == other.machine

    def same_node(self, other: "Location") -> bool:
        """True when both locations live on the same node of the same machine."""
        return self.machine == other.machine and self.node == other.node

    def __iter__(self) -> Iterator[int]:
        return iter(self.as_tuple())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m{self.machine}.n{self.node}.p{self.process}.t{self.thread}"


@dataclass(frozen=True, order=True)
class NodeId:
    """Identifier of an SMP node: ``(machine, node)``.

    Clocks live at node granularity — the paper assumes "time stamps taken
    on the same node are already synchronized" — so clock models and offset
    measurements are keyed by :class:`NodeId`.
    """

    machine: int
    node: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m{self.machine}.n{self.node}"


def node_of(location: Location) -> NodeId:
    """Return the :class:`NodeId` hosting *location*."""
    return NodeId(location.machine, location.node)
