"""Tests for clock-condition checking."""

import pytest

from repro.clocks.condition import ClockConditionChecker, MessageStamp, count_violations
from repro.ids import NodeId

A = NodeId(0, 0)
B = NodeId(0, 1)
C = NodeId(1, 0)


def _stamp(send, recv, sender=A, receiver=B):
    return MessageStamp(
        sender_node=sender, receiver_node=receiver, send_time_s=send, recv_time_s=recv
    )


class TestMessageStamp:
    def test_ordered_message_ok(self):
        assert not _stamp(1.0, 1.001).violates

    def test_reversed_message_violates(self):
        assert _stamp(1.0, 0.999).violates

    def test_equal_stamps_do_not_violate(self):
        # recv == send is degenerate but not a causality reversal.
        assert not _stamp(1.0, 1.0).violates

    def test_slack_sign(self):
        assert _stamp(1.0, 1.5).slack_s == pytest.approx(0.5)
        assert _stamp(1.0, 0.5).slack_s == pytest.approx(-0.5)

    def test_crosses_nodes(self):
        assert _stamp(0, 1).crosses_nodes
        assert not _stamp(0, 1, sender=A, receiver=A).crosses_nodes


class TestChecker:
    def test_count_violations_function(self):
        stamps = [_stamp(0, 1), _stamp(1, 0.5), _stamp(2, 1.5)]
        assert count_violations(stamps) == 2

    def test_internal_external_split(self):
        checker = ClockConditionChecker.from_stamps([
            _stamp(1.0, 0.5, sender=A, receiver=B),  # internal violation
            _stamp(1.0, 0.5, sender=A, receiver=C),  # external violation
            _stamp(1.0, 2.0, sender=A, receiver=C),  # fine
        ])
        assert checker.total == 3
        assert checker.violations == 2
        assert checker.internal_violations == 1
        assert checker.external_violations == 1

    def test_worst_slack(self):
        checker = ClockConditionChecker.from_stamps([_stamp(1.0, 0.2), _stamp(1.0, 0.8)])
        assert checker.worst_slack_s() == pytest.approx(-0.8)

    def test_worst_slack_clamped_to_zero(self):
        checker = ClockConditionChecker.from_stamps([_stamp(1.0, 5.0)])
        assert checker.worst_slack_s() == 0.0

    def test_empty_checker(self):
        checker = ClockConditionChecker.from_stamps([])
        assert checker.violations == 0
        assert checker.worst_slack_s() == 0.0
        summary = checker.summary()
        assert summary["messages"] == 0
        assert checker.stamps == [] and len(checker.stamps) == 0

    def test_summary_keys(self):
        checker = ClockConditionChecker.from_stamps([_stamp(0.0, 1.0)])
        assert set(checker.summary()) == {
            "messages",
            "violations",
            "internal_violations",
            "external_violations",
            "worst_slack_s",
        }

    def test_stamps_read_back_in_canonical_order(self):
        """Whatever order the stamps come in, the checker holds them in the
        order of sorting the tuples, and reads them back as equal tuples."""
        stamps = [
            _stamp(2.0, 1.5, sender=C, receiver=A),
            _stamp(1.0, 0.5, sender=A, receiver=C),
            _stamp(0.5, 0.75, sender=A, receiver=B),
            _stamp(0.25, 0.5, sender=A, receiver=C),
        ]
        checker = ClockConditionChecker.from_stamps(stamps)
        canonical = sorted(stamps)
        assert checker.stamps == canonical and canonical == checker.stamps
        assert list(checker.stamps) == canonical
        assert checker.stamps[1] == canonical[1] and checker.stamps[-1] == canonical[-1]
        assert checker.stamps[1:3] == canonical[1:3]
        assert checker.stamps != canonical[:-1]
        with pytest.raises(IndexError):
            checker.stamps[len(stamps)]
        assert checker == ClockConditionChecker.from_stamps(reversed(stamps))
        assert checker.summary() == {
            "messages": 4,
            "violations": 2,
            "internal_violations": 0,
            "external_violations": 2,
            "worst_slack_s": -0.5,
        }
