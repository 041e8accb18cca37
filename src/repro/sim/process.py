"""Generator-based simulated processes.

An application "process" is a Python generator that yields request objects
(compute blocks and MPI calls) and is resumed with the request's result once
the simulated operation completes.  This mirrors how trace-replay tools
think about a rank: a sequence of regions and communication operations.
The world resumes it (:meth:`repro.sim.mpi.World._advance`); this class is
the rank's state between resumes.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.topology.metacomputer import ProcessSlot

#: Type of application generators: they yield request objects and receive
#: operation results.
AppGenerator = Generator[Any, Any, None]


class SimProcess:
    """One simulated MPI rank driving an application generator."""

    def __init__(self, slot: ProcessSlot, generator: AppGenerator) -> None:
        self.slot = slot
        self.rank = slot.rank
        self.generator = generator
        #: True once the generator returned or raised.
        self.done = False
        self.finish_time: Optional[float] = None
        #: Exception that terminated the process, if any.
        self.failure: Optional[BaseException] = None
        #: Region of the call in flight (``"compute"`` outside MPI), set by
        #: the world: what a deadlock report names and what the call's EXIT
        #: record closes.
        self.blocked_on: Optional[str] = None
        #: Value the generator is resumed with when that call completes.  A
        #: generator is blocked on exactly one request, so the continuation
        #: of every call is (blocked_on, pending) — no closure per call.
        self.pending: Any = None
        #: Request handles the call in flight still waits for.
        self.outstanding = 0
        #: ``(buffer, clock offset, clock rate)`` the world stamps this
        #: rank's trace records with; ``None`` when the run is untraced.
        self.trace: Optional[tuple] = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"SimProcess(rank={self.rank}, done={self.done}, "
            f"blocked_on={self.blocked_on!r})"
        )
