"""Fine-grained grid classification, object-wise: the reference's feed.

Attributes each matched pair's and collective instance's grid waiting to
its ``(causing metahost, waiting metahost)`` combination in a
:class:`~repro.analysis.result.GridPairBreakdown`, the accumulator the
columnar global phase fills by array passes.
"""

from __future__ import annotations

from repro.analysis.matching import CollectiveInstance, MatchedPair
from repro.analysis.patterns.base import (
    GRID_LATE_RECEIVER,
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    GRID_WAIT_AT_NXN,
    NXN_OPS,
)
from repro.analysis.result import GridPairBreakdown


def accumulate_p2p(breakdown: GridPairBreakdown, pair: MatchedPair) -> None:
    """Attribute a matched pair's grid waiting to its machine combination."""
    if not pair.crosses_metahosts:
        return
    sender_machine = pair.sender_location.machine
    receiver_machine = pair.receiver_location.machine
    ls = pair.late_sender_wait
    if ls > 0.0:
        # The sender's metahost causes the receiver's metahost to wait.
        breakdown.add(GRID_LATE_SENDER, sender_machine, receiver_machine, ls)
    lr = pair.late_receiver_wait
    if lr > 0.0:
        breakdown.add(GRID_LATE_RECEIVER, receiver_machine, sender_machine, lr)


def accumulate_collective(
    breakdown: GridPairBreakdown, instance: CollectiveInstance
) -> None:
    """Attribute collective grid waiting to (last-arriver's, waiter's) machines."""
    if not instance.spans_metahosts:
        return
    if instance.op_name == "MPI_Barrier":
        metric = GRID_WAIT_AT_BARRIER
    elif instance.op_name in NXN_OPS:
        metric = GRID_WAIT_AT_NXN
    else:
        return
    last_enter = instance.last_enter
    # The causing metahost is the one hosting the last arriver.
    causer = None
    for rank, (op, _) in instance.members.items():
        if op.enter == last_enter:
            causer = instance.locations[rank].machine
            break
    assert causer is not None  # last_enter comes from the members
    for rank, (op, _) in instance.members.items():
        wait = max(0.0, min(last_enter, op.exit) - op.enter)
        if wait > 0.0:
            breakdown.add(metric, causer, instance.locations[rank].machine, wait)
