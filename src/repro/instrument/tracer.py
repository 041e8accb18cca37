"""Per-run tracing state: the clocks, the region table and one buffer per rank.

A record is stamped with the *node-local* clock of the acting rank, not
with true simulation time — exactly what a real tracing library does when
it reads the unsynchronized hardware timer.  Nothing downstream of a record
ever sees true time again; the analysis must recover a global time base via
offset measurements, which is the entire point of the paper's
synchronization machinery.

The simulated world writes the records (:class:`repro.sim.world.World`):
at launch it takes each rank's buffer and its node clock's affine stamp
from the tracer, and on first use it registers each region name with the
tracer's registry; then every record is one call of a
:class:`~repro.trace.buffer.TraceBuffer` record method.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.clocks.clock import ClockEnsemble
from repro.errors import TraceError
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

    def buffer(self, rank: int) -> TraceBuffer:
        buf = self._buffers.get(rank)
        if buf is None:
            buf = TraceBuffer(rank)
            self._buffers[rank] = buf
        return buf

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
