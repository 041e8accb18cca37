"""Discrete-event simulator with an mpi4py-flavoured MPI-1 interface.

Replaces MetaMPICH and the physical testbed: generator-based processes issue
MPI-style requests (``send``/``recv``/``isend``/``irecv``/``wait``,
``barrier``/``bcast``/``reduce``/``allreduce``/``gather``/``allgather``/
``alltoall``/``scatter``/``sendrecv``); the engine advances simulated time
using the metacomputer's latency/bandwidth models.  Wait states — the
phenomena the paper's analysis detects — emerge naturally from the timing
semantics (blocking receives, rendezvous sends, collective synchronization).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.engine": ("Engine",),
        "repro.sim.process": ("SimProcess",),
        "repro.sim.transfer": ("SimParams",),
        "repro.sim.mpi": ("Communicator", "Context", "RequestHandle", "Message"),
        "repro.sim.world": ("World",),
        "repro.sim.runtime": ("MetaMPIRuntime", "RunResult"),
    },
)
