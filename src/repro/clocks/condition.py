"""Clock-condition checking.

The *clock condition* (paper Section 3) is the causal order of communication
events: a message must be received after it was sent.  After synchronization
maps all time stamps to master time, any matched send/receive pair with
``recv_time < send_time`` violates the condition.  The parallel analyzer of
the paper "has been extended to report violations of the clock condition";
Table 2 counts them for the three synchronization schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple

from repro.ids import NodeId


class MessageStamp(NamedTuple):
    """One matched message with synchronized (master-time) stamps.

    ``send_time_s`` is the stamp of the SEND event on the sender,
    ``recv_time_s`` the stamp of the RECV event on the receiver, both
    already converted to master time.  A ``NamedTuple`` because the replay
    creates one per matched pair.
    """

    sender_node: NodeId
    receiver_node: NodeId
    send_time_s: float
    recv_time_s: float

    @property
    def violates(self) -> bool:
        """True when the message appears to arrive before it was sent."""
        return self.recv_time_s < self.send_time_s

    @property
    def slack_s(self) -> float:
        """Synchronized receive-minus-send gap; negative iff violating."""
        return self.recv_time_s - self.send_time_s

    @property
    def crosses_nodes(self) -> bool:
        return self.sender_node != self.receiver_node


def count_violations(stamps: Iterable[MessageStamp]) -> int:
    """Number of clock-condition violations in *stamps* (the Table 2 metric)."""
    return sum(1 for s in stamps if s.violates)


@dataclass
class ClockConditionChecker:
    """Accumulates matched messages and summarizes violations.

    Used by the replay analyzer: every matched point-to-point pair is fed in
    with synchronized stamps; the summary separates internal (same-metahost)
    from external (cross-metahost) violations, which is the breakdown that
    explains *why* the flat scheme fails (its violations concentrate on
    internal links of non-master metahosts).
    """

    stamps: List[MessageStamp] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.stamps is None:
            self.stamps = []

    def add(self, stamp: MessageStamp) -> None:
        self.stamps.append(stamp)

    def sort_stamps(self) -> None:
        """Canonical stamp order; every analyzer calls this at finalize.

        The order of ``stamps.sort()``, keyed on plain ints and floats so
        the sort never enters ``NodeId``'s Python-level comparisons.
        """
        self.stamps.sort(
            key=lambda s: (s[0].machine, s[0].node, s[1].machine, s[1].node, s[2], s[3])
        )

    @property
    def total(self) -> int:
        return len(self.stamps)

    @property
    def violations(self) -> int:
        return count_violations(self.stamps)

    @property
    def internal_violations(self) -> int:
        """Violations on messages whose endpoints share a metahost."""
        return sum(
            1
            for s in self.stamps
            if s.violates and s.sender_node.machine == s.receiver_node.machine
        )

    @property
    def external_violations(self) -> int:
        """Violations on messages crossing metahost boundaries."""
        return self.violations - self.internal_violations

    def worst_slack_s(self) -> float:
        """Most negative synchronized gap (0 when nothing violates)."""
        worst = min((s.slack_s for s in self.stamps), default=0.0)
        return min(worst, 0.0)

    def summary(self) -> dict:
        return {
            "messages": self.total,
            "violations": self.violations,
            "internal_violations": self.internal_violations,
            "external_violations": self.external_violations,
            "worst_slack_s": self.worst_slack_s(),
        }
