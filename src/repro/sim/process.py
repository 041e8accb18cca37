"""Generator-based simulated processes.

An application "process" is a Python generator that yields request objects
(compute blocks and MPI calls) and is resumed with the request's result once
the simulated operation completes.  This mirrors how trace-replay tools
think about a rank: a sequence of regions and communication operations.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.errors import ReproError, SimulationError
from repro.topology.metacomputer import ProcessSlot

#: Type of application generators: they yield request objects and receive
#: operation results.
AppGenerator = Generator[Any, Any, None]


class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class SimProcess:
    """One simulated MPI rank driving an application generator."""

    def __init__(self, slot: ProcessSlot, generator: AppGenerator) -> None:
        self.slot = slot
        self.rank = slot.rank
        self.generator = generator
        self.state = ProcessState.READY
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

    @property
    def done(self) -> bool:
        return self.state in (ProcessState.DONE, ProcessState.FAILED)

    def step(self, value: Any = None) -> Any:
        """Resume the generator with *value*; return the next request.

        Returns ``None`` when the generator finished.  Exceptions raised by
        application code are recorded and re-raised wrapped in
        :class:`SimulationError` so the world can report the failing rank.
        """
        if self.done:
            raise SimulationError(f"rank {self.rank} already finished")
        self.state = ProcessState.RUNNING
        try:
            request = self.generator.send(value)
        except StopIteration:
            self.state = ProcessState.DONE
            return None
        except BaseException as exc:  # noqa: BLE001 - reported with context
            self.state = ProcessState.FAILED
            self.failure = exc
            if isinstance(exc, ReproError):
                # Toolkit errors (bad rank, bad size, ...) keep their type.
                raise
            raise SimulationError(f"rank {self.rank} raised {exc!r}") from exc
        self.state = ProcessState.BLOCKED
        return request

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"SimProcess(rank={self.rank}, state={self.state.value}, "
            f"blocked_on={self.blocked_on!r})"
        )
