"""Clock-condition checking.

The *clock condition* (paper Section 3) is the causal order of communication
events: a message must be received after it was sent.  After synchronization
maps all time stamps to master time, any matched send/receive pair with
``recv_time < send_time`` violates the condition.  The parallel analyzer of
the paper "has been extended to report violations of the clock condition";
Table 2 counts them for the three synchronization schemes.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.ids import NodeId


class MessageStamp(NamedTuple):
    """One matched message with synchronized (master-time) stamps.

    ``send_time_s`` is the stamp of the SEND event on the sender,
    ``recv_time_s`` the stamp of the RECV event on the receiver, both
    already converted to master time.
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


class ClockConditionChecker:
    """The matched messages of one replay and their violation summary.

    One form: the ascending table of the nodes that occur, each message's
    sender and receiver as indices into it, and its synchronized send and
    receive stamps — columns in replay order (pairs in receive order).  The
    canonical order (sender node, receiver node, send stamp, receive stamp),
    that of sorting the :class:`MessageStamp` tuples, lives in :attr:`stamps`
    and ``==``; nothing else reads an order.  The summary separates internal
    (same-metahost) from external (cross-metahost) violations, which is the
    breakdown that explains *why* the flat scheme fails (its violations
    concentrate on internal links of non-master metahosts).
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        sender: np.ndarray,
        receiver: np.ndarray,
        send_time_s: np.ndarray,
        recv_time_s: np.ndarray,
    ) -> None:
        """*nodes* ascending; the message columns in any order."""
        self.nodes: Tuple[NodeId, ...] = tuple(nodes)
        self.sender = np.asarray(sender)
        self.receiver = np.asarray(receiver)
        self.send_time_s = np.asarray(send_time_s, np.float64)
        self.recv_time_s = np.asarray(recv_time_s, np.float64)

    @classmethod
    def from_stamps(cls, stamps: Iterable[MessageStamp]) -> "ClockConditionChecker":
        """A checker over *stamps*, in any order."""
        stamps = list(stamps)
        nodes = sorted({node for stamp in stamps for node in stamp[:2]})
        place = {node: index for index, node in enumerate(nodes)}
        columns = list(zip(*stamps)) or [(), (), (), ()]
        return cls(
            nodes,
            np.array([place[node] for node in columns[0]], np.int64),
            np.array([place[node] for node in columns[1]], np.int64),
            np.array(columns[2], np.float64),
            np.array(columns[3], np.float64),
        )

    @property
    def stamps(self) -> List[MessageStamp]:
        """The messages as :class:`MessageStamp` tuples, in canonical order."""
        nodes = self.nodes
        order = np.lexsort((self.recv_time_s, self.send_time_s, self.receiver, self.sender))
        columns = (self.sender, self.receiver, self.send_time_s, self.recv_time_s)
        return [
            MessageStamp(nodes[s], nodes[r], sent, received)
            for s, r, sent, received in zip(*(column[order].tolist() for column in columns))
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClockConditionChecker):
            return NotImplemented
        return self.stamps == other.stamps

    __hash__ = None  # type: ignore[assignment]

    @property
    def total(self) -> int:
        return len(self.send_time_s)

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(self.recv_time_s < self.send_time_s))

    @property
    def internal_violations(self) -> int:
        """Violations on messages whose endpoints share a metahost."""
        machine = np.array([node.machine for node in self.nodes], np.int64)
        same = machine[self.sender] == machine[self.receiver]
        return int(np.count_nonzero((self.recv_time_s < self.send_time_s) & same))

    @property
    def external_violations(self) -> int:
        """Violations on messages crossing metahost boundaries."""
        return self.violations - self.internal_violations

    def worst_slack_s(self) -> float:
        """Most negative synchronized gap (0 when nothing violates)."""
        if not self.total:
            return 0.0
        return min(float((self.recv_time_s - self.send_time_s).min()), 0.0)

    def summary(self) -> dict:
        return {
            "messages": self.total,
            "violations": self.violations,
            "internal_violations": self.internal_violations,
            "external_violations": self.external_violations,
            "worst_slack_s": self.worst_slack_s(),
        }
