"""Discrete-event simulator with an mpi4py-flavoured MPI-1 interface.

Replaces MetaMPICH and the physical testbed: generator-based processes issue
MPI-style requests (``send``/``recv``/``isend``/``irecv``/``wait``,
``barrier``/``bcast``/``reduce``/``allreduce``/``gather``/``allgather``/
``alltoall``/``scatter``/``sendrecv``); the engine advances simulated time
using the metacomputer's latency/bandwidth models.  Wait states — the
phenomena the paper's analysis detects — emerge naturally from the timing
semantics (blocking receives, rendezvous sends, collective synchronization).
"""

from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.transfer import SimParams
from repro.sim.mpi import (
    World,
    Communicator,
    Context,
    RequestHandle,
    Message,
)
from repro.sim.runtime import MetaMPIRuntime, RunResult

__all__ = [
    "Engine",
    "SimProcess",
    "SimParams",
    "World",
    "Communicator",
    "Context",
    "RequestHandle",
    "Message",
    "MetaMPIRuntime",
    "RunResult",
]
