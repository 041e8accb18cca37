"""Metric identifiers and the metric specialization hierarchy.

The hierarchy mirrors KOJAK's: structural metrics (Time → Execution → MPI →
Communication / Synchronization) refine into wait-state patterns, and each
pattern's grid version is its child — "the hierarchy mirrors the hierarchy
used for the non-grid versions of our patterns" (paper Section 4).  A
metric's severity is a subset of its parent's, so the browser can show
exclusive values by subtracting children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import PatternError

# Structural metrics.
TIME = "time"
EXECUTION = "execution"
MPI = "mpi"
COMMUNICATION = "mpi-communication"
P2P = "mpi-point-to-point"
COLLECTIVE = "mpi-collective"
SYNCHRONIZATION = "mpi-synchronization"

# Hybrid-threading metric.
IDLE_THREADS = "omp-idle-threads"

# Point-to-point wait-state patterns.
LATE_SENDER = "late-sender"
LATE_SENDER_WRONG_ORDER = "late-sender-wrong-order"
GRID_LATE_SENDER = "grid-late-sender"
LATE_RECEIVER = "late-receiver"
GRID_LATE_RECEIVER = "grid-late-receiver"

# Collective wait-state patterns.
WAIT_AT_NXN = "wait-at-nxn"
GRID_WAIT_AT_NXN = "grid-wait-at-nxn"
EARLY_REDUCE = "early-reduce"
LATE_BROADCAST = "late-broadcast"
EARLY_SCAN = "early-scan"
NXN_COMPLETION = "nxn-completion"
WAIT_AT_BARRIER = "wait-at-barrier"
GRID_WAIT_AT_BARRIER = "grid-wait-at-barrier"
BARRIER_COMPLETION = "barrier-completion"

#: Region names classified as point-to-point MPI calls.
P2P_REGIONS = frozenset(
    {
        "MPI_Send",
        "MPI_Ssend",
        "MPI_Recv",
        "MPI_Isend",
        "MPI_Irecv",
        "MPI_Wait",
        "MPI_Waitall",
        "MPI_Sendrecv",
    }
)
#: Region names classified as collective data movement.
COLLECTIVE_COMM_REGIONS = frozenset(
    {
        "MPI_Bcast",
        "MPI_Reduce",
        "MPI_Allreduce",
        "MPI_Gather",
        "MPI_Allgather",
        "MPI_Alltoall",
        "MPI_Scatter",
        "MPI_Scan",
    }
)
#: Region names classified as pure synchronization.
SYNC_REGIONS = frozenset({"MPI_Barrier"})

#: Collective op names with n-to-n semantics (Wait at N×N applies).
NXN_OPS = frozenset({"MPI_Allreduce", "MPI_Allgather", "MPI_Alltoall"})
#: n-to-1 semantics (Early Reduce applies).
N_TO_1_OPS = frozenset({"MPI_Reduce", "MPI_Gather"})
#: 1-to-n semantics (Late Broadcast applies).
ONE_TO_N_OPS = frozenset({"MPI_Bcast", "MPI_Scatter"})
#: Prefix semantics (Early Scan applies).
PREFIX_OPS = frozenset({"MPI_Scan"})


@dataclass(frozen=True)
class Metric:
    """One node of the metric specialization hierarchy."""

    name: str
    display: str
    parent: Optional[str]
    description: str = ""


#: The full hierarchy in display order (parents precede children).
METRICS: Tuple[Metric, ...] = (
    Metric(TIME, "Time", None, "Total wall-clock time of all processes"),
    Metric(EXECUTION, "Execution", TIME, "Time spent executing the application"),
    Metric(
        IDLE_THREADS,
        "Idle Threads",
        EXECUTION,
        "Thread-seconds idled inside fork-join regions waiting for the "
        "slowest team member",
    ),
    Metric(MPI, "MPI", EXECUTION, "Time spent inside MPI calls"),
    Metric(COMMUNICATION, "Communication", MPI, "MPI data movement"),
    Metric(P2P, "Point-to-point", COMMUNICATION, "Point-to-point communication"),
    Metric(
        LATE_SENDER,
        "Late Sender",
        P2P,
        "Blocking receive posted earlier than the matching send",
    ),
    Metric(
        GRID_LATE_SENDER,
        "Grid Late Sender",
        LATE_SENDER,
        "Late Sender with sender and receiver on different metahosts",
    ),
    Metric(
        LATE_SENDER_WRONG_ORDER,
        "Messages in Wrong Order",
        LATE_SENDER,
        "Late Sender while an earlier-sent message awaits retrieval",
    ),
    Metric(
        LATE_RECEIVER,
        "Late Receiver",
        P2P,
        "Blocking (rendezvous) send stalls until the receive is posted",
    ),
    Metric(
        GRID_LATE_RECEIVER,
        "Grid Late Receiver",
        LATE_RECEIVER,
        "Late Receiver across metahost boundaries",
    ),
    Metric(COLLECTIVE, "Collective", COMMUNICATION, "Collective communication"),
    Metric(
        EARLY_REDUCE,
        "Early Reduce",
        COLLECTIVE,
        "Root of an n-to-1 operation waits for the last contributor",
    ),
    Metric(
        LATE_BROADCAST,
        "Late Broadcast",
        COLLECTIVE,
        "Non-root of a 1-to-n operation waits for the root",
    ),
    Metric(
        WAIT_AT_NXN,
        "Wait at N x N",
        COLLECTIVE,
        "Time until all participants of an n-to-n operation have reached it",
    ),
    Metric(
        GRID_WAIT_AT_NXN,
        "Grid Wait at N x N",
        WAIT_AT_NXN,
        "Wait at N x N on a communicator spanning metahosts",
    ),
    Metric(
        EARLY_SCAN,
        "Early Scan",
        COLLECTIVE,
        "Rank in a prefix reduction waits for lower-ranked participants",
    ),
    Metric(
        NXN_COMPLETION,
        "N x N Completion",
        COLLECTIVE,
        "Time to finish an n-to-n operation after the last process arrived",
    ),
    Metric(SYNCHRONIZATION, "Synchronization", MPI, "Explicit barriers"),
    Metric(
        WAIT_AT_BARRIER,
        "Wait at Barrier",
        SYNCHRONIZATION,
        "Time until all participants have reached the barrier",
    ),
    Metric(
        GRID_WAIT_AT_BARRIER,
        "Grid Wait at Barrier",
        WAIT_AT_BARRIER,
        "Wait at Barrier on a communicator spanning metahosts",
    ),
    Metric(
        BARRIER_COMPLETION,
        "Barrier Completion",
        SYNCHRONIZATION,
        "Time to leave the barrier after the last process arrived",
    ),
)

_BY_NAME: Dict[str, Metric] = {m.name: m for m in METRICS}


def metric_tree() -> Tuple[Metric, ...]:
    """The full metric hierarchy (parents precede children)."""
    return METRICS


def metric_by_name(name: str) -> Metric:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise PatternError(f"unknown metric {name!r}") from None


def classify_region(op_name: str) -> Optional[str]:
    """Structural metric an MPI region's time belongs to (leaf-most)."""
    if op_name in P2P_REGIONS:
        return P2P
    if op_name in COLLECTIVE_COMM_REGIONS:
        return COLLECTIVE
    if op_name in SYNC_REGIONS:
        return SYNCHRONIZATION
    return None
