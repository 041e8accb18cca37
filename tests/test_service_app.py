"""AnalysisService semantics: dedup, admission control, recovery, queries.

Timing-sensitive behaviours (queue-full, duplicate-while-queued) use a
gated stand-in for ``execute_job`` so the executor blocks deterministically;
end-to-end correctness of the real runners is covered by
``test_service_http.py`` and ``test_service_recovery.py``.  A job runs in
a worker process forked from the test, so the stand-ins' gates and
counters are the shared-memory ones of ``tests/gates.py``.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.request
from dataclasses import replace

import pytest

import repro.service.app as app_module
from repro.errors import JobRejected, JobValidationError, ServiceError
from repro.service import ServiceConfig, create_app
from repro.service.http import ServiceHTTPServer
from repro.service.runners import execute_job
from repro.service.store import (
    ACCEPTED,
    DONE,
    FAILED,
    JobRecord,
    JobStore,
    canonical_spec,
)

from tests.gates import Counter, Flag


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _wait_settled(service, key, timeout=60.0):
    assert _wait(
        lambda: service.job(key).status in (DONE, FAILED), timeout=timeout
    ), f"job {key} never settled: {service.job(key).status}"
    return service.job(key)


class _Gate:
    """Controllable execute_job replacement: blocks until released, and
    raises ``boom`` while ``fail`` is set."""

    def __init__(self):
        self.release = Flag()
        self.started = Flag()
        self.fail = Flag()
        self._calls = Counter()

    @property
    def calls(self):
        return self._calls.value

    def __call__(self, spec):
        self._calls.add()
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
        queue_limit=2,
        pool_workers=1,
        default_jobs=1,
        drain_grace_s=5.0,
    )


SIM = {"kind": "simulate", "experiment": "imbalance"}


class TestSubmission:
    def test_submit_runs_to_done(self, config):
        with create_app(config) as service:
            record, disposition = service.submit({**SIM, "seed": 1})
            assert disposition == "created"
            assert record.status == ACCEPTED
            final = _wait_settled(service, record.key)
            assert final.status == DONE
            assert service.result(record.key)["integrity_ok"] is True
            assert final.attempts == 1
            assert service.stats()["executed"] == 1

    def test_invalid_spec_rejected_without_side_effects(self, config):
        with create_app(config) as service:
            with pytest.raises(JobValidationError):
                service.submit({"kind": "nope", "experiment": "x"})
            assert service.jobs() == []

    def test_submit_before_startup_rejected(self, config):
        service = create_app(config)
        with pytest.raises(JobRejected):
            service.submit({**SIM, "seed": 1})

    def test_submit_while_draining_rejected(self, config):
        service = create_app(config).startup()
        service.shutdown()
        with pytest.raises(JobRejected):
            service.submit({**SIM, "seed": 1})


class TestIdempotency:
    def test_duplicate_while_queued(self, config, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            first, d1 = service.submit({**SIM, "seed": 1})
            second, d2 = service.submit({**SIM, "seed": 1})
            assert d1 == "created" and d2 == "duplicate"
            assert second.key == first.key
            assert len(service.jobs()) == 1
            gate.release.set()
            _wait_settled(service, first.key)
            assert gate.calls == 1  # submitted twice, computed once

    def test_finished_job_served_from_cache(self, config, monkeypatch):
        gate = _Gate()
        gate.release.set()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            _wait_settled(service, record.key)
            calls_before = gate.calls
            again, disposition = service.submit({**SIM, "seed": 1})
            assert disposition == "cached"
            assert json.loads(service.payload(again))["result"] == {"kind": "simulate", "echo": 1}
            time.sleep(0.2)  # would surface an accidental re-queue
            assert gate.calls == calls_before

    def test_failed_job_readmitted_on_resubmit(self, config, monkeypatch):
        gate = _Gate()
        gate.fail.set()
        gate.release.set()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            final = _wait_settled(service, record.key)
            assert final.status == FAILED
            assert "boom" in final.error
            gate.fail.clear()  # the warm worker runs the same stand-in, now healthy
            again, disposition = service.submit({**SIM, "seed": 1})
            assert disposition == "retried"
            final = _wait_settled(service, again.key)
            assert final.status == DONE
            assert final.error is None


class TestAdmissionControl:
    def test_queue_full_rejected_with_backpressure(self, config, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(config) as service:
            service.submit({**SIM, "seed": 1})
            gate.started.wait(timeout=10)  # seed 1 now in flight, not queued
            service.submit({**SIM, "seed": 2})
            service.submit({**SIM, "seed": 3})  # queue now at its limit of 2
            with pytest.raises(JobRejected) as excinfo:
                service.submit({**SIM, "seed": 4})
            assert excinfo.value.retry_after_s > 0
            gate.release.set()


class TestSlots:
    """Each of ``pool_workers`` slots computes one job in its own worker."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_overlap_only_with_two_slots(self, config, monkeypatch, workers):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(replace(config, pool_workers=workers)) as service:
            keys = [service.submit({**SIM, "seed": s})[0].key for s in (1, 2)]
            assert _wait(lambda: gate.calls == workers)
            gate.release.set()
            first, second = (_wait_settled(service, key) for key in keys)
        overlap = max(first.started_at, second.started_at) < min(
            first.finished_at, second.finished_at
        )
        assert overlap == (workers == 2)

    def test_stats_lists_every_running_job_in_submission_order(
        self, config, monkeypatch
    ):
        gate = _Gate()
        monkeypatch.setattr(app_module, "execute_job", gate)
        with create_app(replace(config, pool_workers=2, queue_limit=4)) as service:
            keys = [service.submit({**SIM, "seed": s})[0].key for s in (1, 2, 3)]
            assert _wait(lambda: gate.calls == 2)
            stats = service.stats()
            assert stats["running"] == keys[:2]
            assert stats["queued"] == 1
            gate.release.set()
            for key in keys:
                _wait_settled(service, key)
            assert service.stats()["running"] == []

    def test_shutdown_shares_one_grace_and_leaves_no_worker(self, config, monkeypatch):
        gate = _Gate()  # never released: both jobs outlive the grace
        monkeypatch.setattr(app_module, "execute_job", gate)
        grace = 1.0
        service = create_app(replace(config, pool_workers=2, drain_grace_s=grace)).startup()
        try:
            keys = [service.submit({**SIM, "seed": s})[0].key for s in (1, 2)]
            assert _wait(lambda: gate.calls == 2)
            began = time.monotonic()
            service.shutdown()
            assert time.monotonic() - began < 2 * grace  # one grace, not one per slot
        finally:
            gate.release.set()
            service.shutdown()
        assert multiprocessing.active_children() == []
        with JobStore(config.store_path) as store:
            assert [store.get(key).status for key in keys] == [ACCEPTED, ACCEPTED]


def test_a_job_is_its_spec_alone():
    """A slot's pool calls ``execute_job(spec)``; the job's budget comes
    from its config's ``deadline_s``, and nothing else is lent to it."""
    assert list(inspect.signature(execute_job).parameters) == ["spec"]


class _DiesOnce:
    """Hangs on its first call, in a worker the test then SIGKILLs; every
    later call records its process and is the real ``execute_job``."""

    def __init__(self):
        self.started = Flag()
        self.first_pid = multiprocessing.RawValue("i", 0)
        self.rerun_pid = multiprocessing.RawValue("i", 0)

    def __call__(self, spec):
        if not self.started.is_set():
            self.first_pid.value = os.getpid()
            self.started.set()
            time.sleep(60)
        self.rerun_pid.value = os.getpid()
        return execute_job(spec)


def _served(service, key):
    """``GET /jobs/<key>`` from an HTTP front end over *service*."""
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        with urllib.request.urlopen(f"http://{host}:{port}/jobs/{key}", timeout=30) as response:
            return json.loads(response.read())["job"]
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()


def _journaled(config, key):
    """The record of *key* as the store reads it back after the service stopped."""
    with JobStore(config.store_path) as store:
        return {**store.get(key).to_payload(), "result": store.result(key)}


class TestWorkerDeath:
    def test_killed_worker_reruns_the_job_on_a_fresh_worker(self, config, monkeypatch):
        stand_in = _DiesOnce()
        monkeypatch.setattr(app_module, "execute_job", stand_in)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            assert stand_in.started.wait(timeout=30)
            os.kill(stand_in.first_pid.value, signal.SIGKILL)
            final = _wait_settled(service, record.key)
            assert final.status == DONE, final.error
            assert stand_in.rerun_pid.value not in (0, os.getpid(), stand_in.first_pid.value)
            direct, _ = execute_job(canonical_spec({**SIM, "seed": 1}, default_jobs=1))
            assert json.dumps(service.result(record.key), sort_keys=True) == json.dumps(
                direct, sort_keys=True
            )
            after, _ = service.submit({**SIM, "seed": 2})
            assert _wait_settled(service, after.key).status == DONE
            served, clean = _served(service, record.key), _served(service, after.key)
        # The kill and the re-run sit beside the result, never inside it,
        # and a clean job's record carries no report at all.
        journaled = _journaled(config, record.key)
        for payload in (served, journaled):
            recovery = payload["recovery"]
            assert (recovery["attempts"], recovery["retries"], recovery["fallbacks"]) == (2, 1, 0)
            [task] = recovery["tasks"]
            assert not recovery["clean"] and len(task["failures"]) == 1, task
            assert payload["result"] == direct
        assert "recovery" not in clean and "recovery" not in _journaled(config, after.key)

    def test_a_job_every_worker_dies_on_runs_here_and_counts_as_a_failure(
        self, config, monkeypatch
    ):
        server = os.getpid()

        def dies_in_every_worker(spec):
            if os.getpid() != server:
                os.kill(os.getpid(), signal.SIGKILL)
            return {"kind": spec["kind"], "echo": spec["seed"]}, None

        monkeypatch.setattr(app_module, "execute_job", dies_in_every_worker)
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            final = _wait_settled(service, record.key)
            assert final.status == DONE
            assert service.result(record.key) == {"kind": "simulate", "echo": 1}
            breaker = service.breaker.snapshot()
            assert breaker["consecutive_failures"] == 1
            assert "every worker it had died" in breaker["last_failure"]
            served = _served(service, record.key)
        for payload in (served, _journaled(config, record.key)):
            recovery = payload["recovery"]
            assert recovery["fallbacks"] == 1 and not recovery["clean"]
            [task] = recovery["tasks"]
            assert task["fallback"] and len(task["failures"]) == task["attempts"] >= 2, task
            assert payload["result"] == {"kind": "simulate", "echo": 1}


class TestRecovery:
    def test_journaled_jobs_finish_after_restart(self, config):
        # A dead service's store: one queued job, one that was mid-run.
        with JobStore(config.store_path) as store:
            from repro.service.store import canonical_spec, job_key

            for seq, (seed, status) in enumerate([(1, "accepted"), (2, "running")], 1):
                spec = canonical_spec({**SIM, "seed": seed}, default_jobs=1)
                store.save(
                    JobRecord(key=job_key(spec), seq=seq, spec=spec, status=status)
                )
        with create_app(config) as service:
            records = service.jobs()
            assert len(records) == 2
            for record in records:
                final = _wait_settled(service, record.key)
                assert final.status == DONE
                assert service.result(record.key)["integrity_ok"] is True

    def test_crash_looping_job_quarantined(self, config):
        with JobStore(config.store_path) as store:
            from repro.service.store import canonical_spec, job_key

            spec = canonical_spec({**SIM, "seed": 1}, default_jobs=1)
            store.save(
                JobRecord(
                    key=job_key(spec), seq=1, spec=spec, status="running",
                    attempts=config.max_job_attempts,
                )
            )
        with create_app(config) as service:
            final = _wait_settled(service, service.jobs()[0].key)
            assert final.status == FAILED
            assert "gave up" in final.error


class TestSeverityQuery:
    def test_cube_queries(self, config):
        analyze = {
            "kind": "analyze",
            "experiment": "figure7",
            "seed": 3,
            "jobs": 1,
            "config": {"coupling_intervals": 2},
        }
        with create_app(config) as service:
            record, _ = service.submit(analyze)
            final = _wait_settled(service, record.key, timeout=120)
            assert final.status == DONE, final.error
            overview = service.severity(record.key)
            assert "late-sender" in overview["metrics"]
            assert overview["total_time"] > 0
            detail = service.severity(record.key, metric="late-sender")
            assert detail["total"] >= 0
            assert detail["by_rank"] and detail["by_callpath"]
            assert detail["total"] == pytest.approx(
                sum(detail["by_rank"].values())
            )
            with pytest.raises(ServiceError):
                service.severity(record.key, metric="no-such-metric")
            with pytest.raises(ServiceError):
                service.severity("missing-key")

    def test_simulate_jobs_have_no_cube(self, config):
        with create_app(config) as service:
            record, _ = service.submit({**SIM, "seed": 1})
            _wait_settled(service, record.key)
            with pytest.raises(ServiceError):
                service.severity(record.key)
