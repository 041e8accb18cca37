"""Tests for point-to-point wait-state patterns (synthetic pairs)."""

import pytest

from repro.analysis.matching import MatchedPair, MPIOpInstance, RecvRecord, SendRecord
from repro.analysis.patterns.point2point import (
    GridLateReceiverPattern,
    GridLateSenderPattern,
    LateReceiverPattern,
    LateSenderPattern,
    WrongOrderPattern,
    default_p2p_patterns,
    late_receiver_wait,
    late_sender_wait,
)
from repro.ids import Location


def _pair(
    send_enter,
    send_exit,
    recv_enter,
    recv_exit,
    sender_machine=0,
    receiver_machine=0,
    send_time=None,
    comm=0,
    receiver_rank=1,
):
    send_time = send_time if send_time is not None else send_enter + 0.001
    send_op = MPIOpInstance(
        rank=0, region=0, op_name="MPI_Send", cpid=10,
        enter=send_enter, exit=send_exit,
    )
    recv_op = MPIOpInstance(
        rank=receiver_rank, region=1, op_name="MPI_Recv", cpid=20,
        enter=recv_enter, exit=recv_exit,
    )
    send = SendRecord(send_time, receiver_rank, 0, comm, 64)
    recv = RecvRecord(recv_exit, 0, 0, comm, 64)
    return MatchedPair(
        sender_rank=0,
        sender_location=Location(sender_machine, 0, 0),
        send_op=send_op,
        send=send,
        receiver_rank=receiver_rank,
        receiver_location=Location(receiver_machine, 0, receiver_rank),
        recv_op=recv_op,
        recv=recv,
    )


class TestLateSenderWait:
    def test_receiver_posted_early_waits(self):
        # Recv enters at 0, send enters at 3: receiver waited 3 seconds.
        pair = _pair(send_enter=3.0, send_exit=3.1, recv_enter=0.0, recv_exit=3.2)
        assert late_sender_wait(pair) == pytest.approx(3.0)

    def test_sender_early_no_wait(self):
        pair = _pair(send_enter=0.0, send_exit=0.1, recv_enter=1.0, recv_exit=1.1)
        assert late_sender_wait(pair) == 0.0

    def test_wait_clipped_to_region_duration(self):
        # Send entered after the receive already finished (clock noise);
        # the wait cannot exceed the receive's own duration.
        pair = _pair(send_enter=10.0, send_exit=10.1, recv_enter=0.0, recv_exit=2.0)
        assert late_sender_wait(pair) == pytest.approx(2.0)


class TestLateReceiverWait:
    def test_sender_blocked_until_receive_posted(self):
        pair = _pair(send_enter=0.0, send_exit=5.1, recv_enter=5.0, recv_exit=5.2)
        assert late_receiver_wait(pair) == pytest.approx(5.0)

    def test_eager_send_contributes_nothing(self):
        # Eager sends exit immediately, so the clip removes any wait.
        pair = _pair(send_enter=0.0, send_exit=0.001, recv_enter=5.0, recv_exit=5.2)
        assert late_receiver_wait(pair) == pytest.approx(0.001)


class TestPatternContributions:
    def test_late_sender_located_at_receiver(self):
        pair = _pair(send_enter=2.0, send_exit=2.1, recv_enter=0.0, recv_exit=2.2)
        hits = LateSenderPattern().contributions(pair)
        assert len(hits) == 1
        assert hits[0].rank == 1  # receiver
        assert hits[0].cpid == 20  # receive call path
        assert hits[0].value == pytest.approx(2.0)

    def test_late_sender_no_hit_without_wait(self):
        pair = _pair(send_enter=0.0, send_exit=0.1, recv_enter=5.0, recv_exit=5.1)
        assert LateSenderPattern().contributions(pair) == []

    def test_grid_variant_requires_machine_crossing(self):
        same = _pair(send_enter=2.0, send_exit=2.1, recv_enter=0.0, recv_exit=2.2)
        cross = _pair(
            send_enter=2.0, send_exit=2.1, recv_enter=0.0, recv_exit=2.2,
            receiver_machine=1,
        )
        assert GridLateSenderPattern().contributions(same) == []
        hits = GridLateSenderPattern().contributions(cross)
        assert hits and hits[0].value == pytest.approx(2.0)

    def test_late_receiver_located_at_sender(self):
        pair = _pair(send_enter=0.0, send_exit=4.0, recv_enter=3.0, recv_exit=4.1)
        hits = LateReceiverPattern().contributions(pair)
        assert hits[0].rank == 0
        assert hits[0].cpid == 10
        assert hits[0].value == pytest.approx(3.0)

    def test_grid_late_receiver(self):
        pair = _pair(
            send_enter=0.0, send_exit=4.0, recv_enter=3.0, recv_exit=4.1,
            receiver_machine=1,
        )
        assert GridLateReceiverPattern().contributions(pair)

    def test_default_catalogue_is_fresh(self):
        a = default_p2p_patterns()
        b = default_p2p_patterns()
        assert {p.name for p in a} == {p.name for p in b}
        assert all(x is not y for x, y in zip(a, b))


class TestWrongOrder:
    def test_detects_overtaking(self):
        pattern = WrongOrderPattern()
        # First retrieved message was sent at t=5.
        first = _pair(
            send_enter=5.0, send_exit=5.1, recv_enter=0.0, recv_exit=5.2,
            send_time=5.05,
        )
        assert pattern.contributions(first) == []
        # Second retrieved message was sent EARLIER (t=1): wrong order.
        second = _pair(
            send_enter=1.0, send_exit=1.1, recv_enter=5.3, recv_exit=6.0,
            send_time=1.05,
        )
        # Receiver still waited? recv_enter 5.3 > send_enter 1.0 → no wait,
        # so no severity despite wrong order.
        assert pattern.contributions(second) == []

    def test_wrong_order_with_wait_attributed(self):
        pattern = WrongOrderPattern()
        first = _pair(
            send_enter=5.0, send_exit=5.1, recv_enter=0.0, recv_exit=5.2,
            send_time=5.05,
        )
        pattern.contributions(first)
        # Earlier-sent message consumed later AND the receiver waited for it.
        second = _pair(
            send_enter=6.0, send_exit=6.1, recv_enter=5.3, recv_exit=6.2,
            send_time=4.0,
        )
        hits = pattern.contributions(second)
        assert len(hits) == 1
        assert hits[0].value == pytest.approx(0.7)

    def test_state_is_per_receiver_and_comm(self):
        pattern = WrongOrderPattern()
        pattern.contributions(
            _pair(send_enter=5.0, send_exit=5.1, recv_enter=0.0, recv_exit=5.2,
                  send_time=5.0)
        )
        other_comm = _pair(
            send_enter=6.0, send_exit=6.1, recv_enter=5.3, recv_exit=6.2,
            send_time=1.0, comm=1,
        )
        assert pattern.contributions(other_comm) == []
