"""Wait-state pattern catalogue.

Single-machine MPI-1 patterns (Wolf & Mohr) plus this paper's *grid*
variants, which fire only when the wait state involves communication across
metahost boundaries (Section 4, *Metacomputing patterns*).

The package exports the metric hierarchy (:mod:`.base`).  The object-wise
evaluators in :mod:`.point2point`, :mod:`.collective` and :mod:`.grid` are
the reference engine's and are imported from their modules, so importing
the catalogue never loads them.
"""

from repro.analysis.patterns.base import (
    Metric,
    METRICS,
    metric_tree,
    metric_by_name,
    TIME,
    EXECUTION,
    MPI,
    COMMUNICATION,
    P2P,
    COLLECTIVE,
    SYNCHRONIZATION,
    IDLE_THREADS,
    LATE_SENDER,
    LATE_SENDER_WRONG_ORDER,
    GRID_LATE_SENDER,
    LATE_RECEIVER,
    GRID_LATE_RECEIVER,
    WAIT_AT_NXN,
    GRID_WAIT_AT_NXN,
    NXN_COMPLETION,
    EARLY_REDUCE,
    EARLY_SCAN,
    LATE_BROADCAST,
    WAIT_AT_BARRIER,
    GRID_WAIT_AT_BARRIER,
    BARRIER_COMPLETION,
    P2P_REGIONS,
    COLLECTIVE_COMM_REGIONS,
    SYNC_REGIONS,
)

__all__ = [
    "Metric",
    "METRICS",
    "metric_tree",
    "metric_by_name",
    "TIME",
    "EXECUTION",
    "MPI",
    "COMMUNICATION",
    "P2P",
    "COLLECTIVE",
    "SYNCHRONIZATION",
    "IDLE_THREADS",
    "LATE_SENDER",
    "LATE_SENDER_WRONG_ORDER",
    "GRID_LATE_SENDER",
    "LATE_RECEIVER",
    "GRID_LATE_RECEIVER",
    "WAIT_AT_NXN",
    "GRID_WAIT_AT_NXN",
    "NXN_COMPLETION",
    "EARLY_REDUCE",
    "EARLY_SCAN",
    "LATE_BROADCAST",
    "WAIT_AT_BARRIER",
    "GRID_WAIT_AT_BARRIER",
    "BARRIER_COMPLETION",
    "P2P_REGIONS",
    "COLLECTIVE_COMM_REGIONS",
    "SYNC_REGIONS",
]
