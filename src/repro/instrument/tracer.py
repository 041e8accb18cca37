"""The tracing backend invoked by the simulated MPI world.

Every hook receives the acting process slot and the *true* simulation time;
the tracer immediately converts the true time to the node-local clock
stamp — exactly what a real tracing library does when it reads the
unsynchronized hardware timer — and appends a record to the process's
buffer.  Nothing downstream of this point ever sees true time again; the
analysis must recover a global time base via offset measurements, which is
the entire point of the paper's synchronization machinery.

The by-slot hooks below are the public interface.  The simulated world
does not go through them: it resolves each rank's buffer and its node
clock's affine stamp once (:meth:`repro.sim.mpi.World.launch`) and calls the
same :class:`~repro.trace.buffer.TraceBuffer` record methods directly, one
frame per record — one encoder, two callers, and
``tests/test_sim_golden.py`` holds their bytes equal.  The hooks cache the
per-rank state they need (buffer, the clock's bound ``local_time``) the same
way instead of walking the location/ensemble tables per event.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.clocks.clock import ClockEnsemble
from repro.errors import TraceError
from repro.ids import node_of
from repro.topology.metacomputer import ProcessSlot
from repro.trace.buffer import TraceBuffer
from repro.trace.regions import RegionRegistry


class Tracer:
    """Per-run tracing state: region table plus one buffer per rank."""

    def __init__(
        self,
        clocks: ClockEnsemble,
        regions: Optional[RegionRegistry] = None,
    ) -> None:
        self.clocks = clocks
        self.regions = regions if regions is not None else RegionRegistry()
        self._buffers: Dict[int, TraceBuffer] = {}
        #: rank -> (buffer, node clock's bound local_time) hot-path cache.
        self._per_rank: Dict[int, Tuple[TraceBuffer, Callable[[float], float]]] = {}

    def buffer(self, rank: int) -> TraceBuffer:
        buf = self._buffers.get(rank)
        if buf is None:
            buf = TraceBuffer(rank)
            self._buffers[rank] = buf
        return buf

    def buffers(self) -> Dict[int, TraceBuffer]:
        return self._buffers

    def _hot(self, slot: ProcessSlot) -> Tuple[TraceBuffer, Callable[[float], float]]:
        entry = self._per_rank.get(slot.rank)
        if entry is None:
            entry = (
                self.buffer(slot.rank),
                self.clocks.clock(node_of(slot.location)).local_time,
            )
            self._per_rank[slot.rank] = entry
        return entry

    # -- hook interface used by the world -----------------------------------

    def enter(self, slot: ProcessSlot, region: str, true_time: float) -> None:
        buf, stamp = self._hot(slot)
        buf.enter(stamp(true_time), self.regions.register(region))

    def exit(self, slot: ProcessSlot, region: str, true_time: float) -> None:
        buf, stamp = self._hot(slot)
        buf.exit(stamp(true_time), self.regions.register(region))

    def send(
        self,
        slot: ProcessSlot,
        true_time: float,
        dest_global: int,
        tag: int,
        comm_id: int,
        size: int,
    ) -> None:
        buf, stamp = self._hot(slot)
        buf.send(stamp(true_time), dest_global, tag, comm_id, size)

    def recv(
        self,
        slot: ProcessSlot,
        true_time: float,
        source_global: int,
        tag: int,
        comm_id: int,
        size: int,
    ) -> None:
        buf, stamp = self._hot(slot)
        buf.recv(stamp(true_time), source_global, tag, comm_id, size)

    def coll_exit(
        self,
        slot: ProcessSlot,
        true_time: float,
        region: str,
        comm_id: int,
        root_global: int,
        sent: int,
        recvd: int,
    ) -> None:
        buf, stamp = self._hot(slot)
        buf.coll_exit(
            stamp(true_time), self.regions.register(region), comm_id, root_global,
            sent, recvd,
        )

    def omp_region(
        self,
        slot: ProcessSlot,
        true_time: float,
        region: str,
        nthreads: int,
        busy_sum: float,
        busy_max: float,
    ) -> None:
        buf, stamp = self._hot(slot)
        buf.omp_region(
            stamp(true_time), self.regions.register(region), nthreads, busy_sum,
            busy_max,
        )

    # -- lifecycle -------------------------------------------------------------

    def finalize(self, world_size: int) -> None:
        """Close all buffers; ranks without events get empty (valid) traces."""
        for rank in range(world_size):
            buf = self.buffer(rank)
            if not buf.finalized:
                buf.finalize()

    def require_finalized(self) -> None:
        for rank, buf in self._buffers.items():
            if not buf.finalized:
                raise TraceError(f"trace buffer of rank {rank} not finalized")
