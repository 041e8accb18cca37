"""Clock substrate and time-stamp synchronization.

Implements the paper's clock model (Figure 1: node-local clocks with both
initial offset and different constant drifts), the remote-clock-reading
offset measurement of Cristian, and the three synchronization schemes
compared in Table 2:

* single flat offset (no drift compensation),
* two flat offsets + linear interpolation (KOJAK's previous method),
* two *hierarchical* offsets + linear interpolation (this paper's method),

and ``GroundTruth``, the exact conversion of a simulated run they are
scored against.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.clocks.clock": ("LinearClock", "ClockEnsemble", "perfect_clock"),
        "repro.clocks.measurement": (
            "OffsetMeasurement", "measure_offset", "OffsetMeasurementConfig",
        ),
        "repro.clocks.sync": (
            "LinearConverter", "SyncData", "NodeSyncRecord", "SyncScheme", "FlatSingleOffset",
            "FlatInterpolation", "HierarchicalInterpolation", "GroundTruth", "SCHEMES",
        ),
        "repro.clocks.condition": ("ClockConditionChecker", "count_violations", "MessageStamp"),
    },
)
