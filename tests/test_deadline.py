"""The Deadline budget object and its cooperative use by the pool.

The :class:`~repro.resilience.Deadline` is the one handle every layer
shares: these tests pin its clock/cancel semantics and the supervised
pool's run-local budget behaviour — partial results on expiry, per-shard
timeouts clamped to the remaining budget, and the pool staying usable
for the next run (a deadline is not a shutdown).
"""

from __future__ import annotations

import time

import pytest

from repro.errors import TimeBudgetExceeded
from repro.resilience import Deadline
from repro.resilience.pool import SupervisedPool

from tests.test_resilience_pool import _fast_config, _hang, _square


class TestDeadlineObject:
    def test_unbounded_never_expires(self):
        deadline = Deadline()
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        assert deadline.reason() is None
        deadline.check()  # does not raise

    def test_positive_budget_required(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline(0)
        with pytest.raises(ValueError, match="positive"):
            Deadline(-1.5)

    def test_nan_budget_rejected(self):
        # NaN compares false both ways: it would read as expired() with no
        # reason(), and the pool would clamp every shard attempt to 1 ms.
        with pytest.raises(ValueError, match="positive"):
            Deadline(float("nan"))

    def test_budget_counts_down(self):
        deadline = Deadline(60.0)
        remaining = deadline.remaining()
        assert 0.0 < remaining <= 60.0
        assert not deadline.expired()

    def test_expiry_reason_names_the_budget(self):
        deadline = Deadline(0.001)
        time.sleep(0.01)
        assert deadline.expired()
        assert "0.001" in deadline.reason()
        with pytest.raises(TimeBudgetExceeded, match="time budget exhausted"):
            deadline.check()

    def test_cancel_is_immediate_and_idempotent(self):
        deadline = Deadline(3600.0)
        deadline.cancel("client went away")
        deadline.cancel("second reason ignored")
        assert deadline.cancelled
        assert deadline.remaining() == 0.0
        assert deadline.reason() == "client went away"

    def test_exception_carries_reason_and_payload(self):
        exc = TimeBudgetExceeded("why", results={0: "a"}, report="r")
        assert exc.reason == "why"
        assert exc.results == {0: "a"}
        assert exc.report == "r"


class TestPoolDeadline:
    def test_no_deadline_is_the_old_behaviour(self):
        results, report = SupervisedPool(_square, _fast_config()).run([1, 2, 3])
        assert results == [1, 4, 9]
        assert report.clean

    def test_generous_deadline_changes_nothing(self):
        pool = SupervisedPool(_square, _fast_config())
        results, report = pool.run([1, 2, 3], deadline=Deadline(300.0))
        assert results == [1, 4, 9]
        assert report.clean

    def test_expired_deadline_raises_with_partial_payload(self):
        deadline = Deadline(3600.0)
        deadline.cancel("cancelled by client")
        pool = SupervisedPool(_square, _fast_config())
        with pytest.raises(TimeBudgetExceeded) as excinfo:
            pool.run([1, 2, 3], deadline=deadline)
        exc = excinfo.value
        assert exc.reason == "cancelled by client"
        # Nothing ran: every task record carries the cancellation.
        assert len(exc.results) < 3
        assert any(
            any("cancelled" in f for f in task.failures)
            for task in exc.report.tasks
        )

    def test_deadline_bounds_a_wedged_worker(self):
        # timeout_s is far beyond the budget: only the deadline-derived
        # per-shard clamp can end this within the bound.
        pool = SupervisedPool(
            _hang,
            _fast_config(max_workers=2, timeout_s=600.0, max_retries=0),
        )
        began = time.monotonic()
        with pytest.raises(TimeBudgetExceeded):
            pool.run([1, 2], deadline=Deadline(1.0))
        assert time.monotonic() - began < 30.0

    def test_pool_survives_a_blown_budget(self):
        # The deadline is run-local: the same pool must serve the next
        # run cleanly (unlike request_shutdown, which is sticky).
        pool = SupervisedPool(
            _square, _fast_config(), persistent=True
        )
        expired = Deadline(3600.0)
        expired.cancel("first run cancelled")
        with pytest.raises(TimeBudgetExceeded):
            pool.run([1, 2], deadline=expired)
        try:
            results, report = pool.run([5, 6])
            assert results == [25, 36]
            assert report.clean
        finally:
            pool.close()
