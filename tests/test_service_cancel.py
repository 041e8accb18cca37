"""Deadlines, cancellation, requeue and the circuit breaker in the service.

Executor-level behaviours use gated ``execute_job`` stand-ins (as in
``test_service_app.py``) so nothing here waits on a real simulation; they
run in the job's worker process and never check a deadline, so a cancel
or a budget must end them by killing that worker.  The breaker is driven
with an injected clock so state transitions are deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.service.app as app_module
from repro.errors import JobRejected, ServiceError
from repro.service import ServiceConfig, create_app
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.store import ACCEPTED, CANCELLED, DONE, FAILED, JobStore

from tests.gates import Flag


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


SIM = {"kind": "simulate", "experiment": "imbalance"}


class _Gate:
    """Blocks until released, and raises ``boom`` while ``fail`` is set."""

    def __init__(self):
        self.release = Flag()
        self.started = Flag()
        self.fail = Flag()

    def __call__(self, spec, *, pool=None, progress=None, deadline=None):
        self.started.set()
        if self.fail.is_set():
            raise RuntimeError("boom")
        if not self.release.wait(timeout=60):
            raise RuntimeError("gate never released")
        return {"kind": spec["kind"], "echo": spec["seed"]}, None


@pytest.fixture
def config(tmp_path):
    return ServiceConfig(
        store_path=str(tmp_path / "jobs.jsonl"),
        queue_limit=4,
        pool_workers=1,
        default_jobs=1,
        drain_grace_s=5.0,
    )


class TestBreakerUnit:
    def test_threshold_opens_and_cooldown_half_opens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=lambda: clock[0])
        assert breaker.allow() is None
        breaker.record_failure("one")
        assert breaker.state == CLOSED
        breaker.record_failure("two")
        assert breaker.state == OPEN
        retry = breaker.allow()
        assert retry is not None and 0 < retry <= 10.0
        # Cooldown elapses: exactly one probe admitted, the rest wait.
        clock[0] = 11.0
        assert breaker.allow() is None
        assert breaker.state == HALF_OPEN
        assert breaker.allow() is not None
        # The probe succeeds: closed, counters reset.
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() is None

    def test_failed_probe_reopens_for_full_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0, clock=lambda: clock[0])
        breaker.record_failure("boom")
        clock[0] = 11.0
        assert breaker.allow() is None  # the probe
        breaker.record_failure("probe died")
        assert breaker.state == OPEN
        retry = breaker.allow()
        assert retry is not None and retry > 9.0

    def test_release_probe_frees_the_slot(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=lambda: clock[0])
        breaker.record_failure("boom")
        clock[0] = 6.0
        assert breaker.allow() is None
        assert breaker.allow() is not None  # probe slot taken
        breaker.release_probe()
        assert breaker.allow() is None  # next caller becomes the probe

    def test_snapshot_is_json_shaped(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=7.0)
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["threshold"] == 3
        assert snap["cooldown_s"] == 7.0
        breaker.record_failure("x")
        assert breaker.snapshot()["last_failure"] == "x"


class TestCancellation:
    def test_cancel_queued_job_is_journaled_terminal(self, config, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            running, _ = service.submit({**SIM, "seed": 1})
            gate.started.wait(timeout=10)
            queued, _ = service.submit({**SIM, "seed": 2})
            record, disposition = service.cancel(queued.key)
            assert disposition == "cancelled"
            assert record.status == CANCELLED
            assert record.error == "cancelled by client"
            gate.release.set()
            assert _wait(lambda: service.job(running.key).status == DONE)
            # The cancelled job never ran.
            assert service.job(queued.key).status == CANCELLED
        # And it stays cancelled across a restart: terminal states are
        # not recoverable.
        store = JobStore(config.store_path)
        try:
            assert [r.key for r in store.pending()] == []
        finally:
            store.close()

    def test_cancel_running_job_lands_within_grace(self, config, monkeypatch):
        gate = _Gate()  # never released: only the cancel can end it
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            gate.started.wait(timeout=10)
            began = time.monotonic()
            _, disposition = service.cancel(record.key)
            assert disposition == "cancelling"
            assert _wait(lambda: service.job(record.key).status == CANCELLED)
            assert time.monotonic() - began < 10.0
            final = service.job(record.key)
            assert "TimeBudgetExceeded" in final.error
            assert "cancelled by client" in final.error

    def test_cancel_terminal_and_unknown(self, config, monkeypatch):
        gate = _Gate()
        gate.release.set()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            assert _wait(lambda: service.job(record.key).status == DONE)
            _, disposition = service.cancel(record.key)
            assert disposition == "terminal"
            assert service.job(record.key).status == DONE  # untouched
            with pytest.raises(ServiceError, match="no job"):
                service.cancel("feedbead")

    def test_deadline_config_cancels_wedged_job(self, config, monkeypatch):
        gate = _Gate()  # wedged: only the deadline can end it
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit(
                {**SIM, "seed": 1, "config": {"deadline_s": 0.5}}
            )
            began = time.monotonic()
            assert _wait(lambda: service.job(record.key).status == CANCELLED)
            assert time.monotonic() - began < 10.0
            assert "deadline of 0.5s exceeded" in service.job(record.key).error

    def test_cancelled_job_can_be_resubmitted(self, config, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            running, _ = service.submit({**SIM, "seed": 1})
            gate.started.wait(timeout=10)
            queued, _ = service.submit({**SIM, "seed": 2})
            service.cancel(queued.key)
            again, disposition = service.submit({**SIM, "seed": 2})
            assert disposition == "retried"
            assert again.status == ACCEPTED
            gate.release.set()
            assert _wait(lambda: service.job(queued.key).status == DONE)


class TestRequeue:
    def test_requeue_quarantined_job(self, config, monkeypatch):
        gate = _Gate()
        gate.fail.set()
        gate.release.set()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            assert _wait(lambda: service.job(record.key).status == FAILED)
            gate.fail.clear()  # the warm worker runs the same stand-in, now healthy
            requeued = service.requeue(record.key)
            assert requeued.status == ACCEPTED
            assert requeued.attempts == 0
            assert requeued.phase == "re-queued by operator"
            assert _wait(lambda: service.job(record.key).status == DONE)

    def test_requeue_rejects_nonterminal_and_unknown(self, config, monkeypatch):
        gate = _Gate()
        gate.release.set()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            assert _wait(lambda: service.job(record.key).status == DONE)
            with pytest.raises(ServiceError, match="only failed or cancelled"):
                service.requeue(record.key)
            with pytest.raises(ServiceError, match="no job"):
                service.requeue("feedbead")


class TestBreakerInService:
    def test_blown_deadlines_open_the_breaker(self, config, monkeypatch):
        gate = _Gate()  # wedged forever: every job blows its deadline
        monkeypatch.setattr(app_module, "execute_job", gate)
        tight = ServiceConfig(
            store_path=config.store_path,
            queue_limit=8,
            pool_workers=1,
            default_jobs=1,
            drain_grace_s=5.0,
            job_deadline_s=0.2,
            breaker_threshold=2,
            breaker_cooldown_s=60.0,
        )
        with create_app(tight) as service:
            keys = [service.submit({**SIM, "seed": s})[0].key for s in (1, 2)]
            for key in keys:
                assert _wait(lambda k=key: service.job(k).status == CANCELLED)
            assert _wait(lambda: service.breaker.state == "open")
            with pytest.raises(JobRejected) as excinfo:
                service.submit({**SIM, "seed": 3})
            assert excinfo.value.status == 503
            assert 0 < excinfo.value.retry_after_s <= 60.0
            assert service.stats()["breaker"]["state"] == "open"

    def test_client_cancel_does_not_trip_breaker(self, config, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            gate.started.wait(timeout=10)
            service.cancel(record.key)
            assert _wait(lambda: service.job(record.key).status == CANCELLED)
            assert service.breaker.state == "closed"
            assert service.breaker.snapshot()["consecutive_failures"] == 0


class TestDrainRetryAfter:
    def test_drain_rejection_derives_from_remaining_grace(self, config):
        service = create_app(config).startup()
        service.shutdown()
        # Fully drained: retry-after is still bounded by the grace.
        with pytest.raises(JobRejected) as excinfo:
            service.submit({**SIM, "seed": 1})
        assert 0 < excinfo.value.retry_after_s <= config.drain_grace_s

    def test_retry_after_shrinks_as_drain_progresses(self, config, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        service = create_app(config).startup()
        try:
            service.submit({**SIM, "seed": 1})
            gate.started.wait(timeout=10)
            shutdown_thread = threading.Thread(
                target=service.shutdown, daemon=True
            )
            shutdown_thread.start()
            assert _wait(lambda: not service.accepting)
            first = service.drain_retry_after_s()
            time.sleep(0.3)
            second = service.drain_retry_after_s()
            assert second < first <= config.drain_grace_s
            gate.release.set()
            shutdown_thread.join(timeout=15)
        finally:
            gate.release.set()
            service.shutdown()
