"""The analysis service: lifecycle, admission control, execution.

:class:`AnalysisService` owns exactly three long-lived things:

* one :class:`~repro.service.store.JobStore` (durable state — the only
  thing that must survive a crash),
* the in-memory run queue, drained in submission order,
* ``pool_workers`` slots, each an executor thread and a persistent
  one-worker :class:`~repro.resilience.pool.SupervisedPool` (task
  function ``execute_job``, whose result the worker encodes): a job runs
  whole in its slot's warm worker process, so the server process keeps
  only HTTP, the queue, the journal and the breaker, and handles a result
  only as bytes.  A slot's worker is forked at its first job.

Crash-safety protocol (the order matters):

1. :meth:`submit` journals the accepted record *before* acknowledging —
   an acknowledged job is durable by construction.
2. A slot journals the ``running`` transition before dispatching the job
   to its worker, so a SIGKILL mid-compute is distinguishable from
   never-started; each job is journaled ``done`` / ``failed`` /
   ``cancelled`` when its own pool run settles.
3. On :meth:`startup`, every journaled job still in a recoverable state
   is re-queued (in original submission order) and runs to completion;
   since each job is deterministic in its canonical spec, the recovered
   result is byte-identical to the one the uninterrupted service would
   have produced.
4. A graceful shutdown (SIGTERM → :meth:`shutdown`) stops admission,
   gives the in-flight jobs together ``drain_grace_s`` to finish, cuts
   each remaining one through its pool past that (killing its worker),
   and leaves everything unfinished journaled as ``accepted`` for the
   next start.

Admission control is a bounded queue: past ``queue_limit`` waiting jobs,
:meth:`submit` raises :class:`~repro.errors.JobRejected` (HTTP 429)
rather than buffering unbounded work it may never get to.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis.request import AnalysisRequest, FieldTable, declare, rule_of
from repro.errors import (
    JobRejected,
    PoolShutdown,
    ServiceError,
    TimeBudgetExceeded,
)
from repro.resilience.deadline import Deadline
from repro.resilience.pool import PoolConfig, SupervisedPool
from repro.service.breaker import CircuitBreaker
from repro.service.runners import execute_job
from repro.service.store import (
    ACCEPTED,
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    TERMINAL,
    JobRecord,
    JobStore,
    canonical_spec,
    job_key,
    splice,
)
from repro.wallclock import wallclock

__all__ = ["ServiceConfig", "AnalysisService", "create_app"]

#: A slot's supervision: one warm worker; no per-attempt timeout, as a
#: job's only bound is its deadline; no drain of its own, as the service's
#: shared grace is the drain.  Slots run on executor threads, so signals
#: stay with the serve loop.
_SLOT_POOL = PoolConfig(max_workers=1, timeout_s=math.inf, drain_grace_s=0.0)


def _execute_encoded(spec: Dict[str, Any]) -> Tuple[bytes, Optional[Dict[str, Any]]]:
    """A slot's task: run the job and encode its result in the worker, once."""
    result, execution = execute_job(spec)  # looked up now, so a stand-in applies
    return json.dumps(result, sort_keys=True).encode(), execution


@dataclass(frozen=True)
class ServiceConfig(FieldTable):
    """Tunables of one service instance.

    Each field's meaning, bounds, default and ``repro serve`` flag are its
    declaration; ``docs/SERVICE.md`` lists them.
    """

    store_path: str = declare(
        ".repro-jobs.jsonl", "text", "journal file backing the job store", flag="--store"
    )
    host: str = declare("127.0.0.1", "text", "interface the HTTP front end binds", flag="--host")
    port: int = declare(
        8137, "count", "TCP port; 0 lets the OS pick (announced on stdout and via --ready-file)",
        flag="--port", high=65535, why="the largest TCP port",
    )
    queue_limit: int = declare(
        16, "count", "waiting jobs admitted before submissions get 429", flag="--queue-limit",
        low=1, high=4096, why="a cancel scans the waiting queue under the service lock",
    )
    pool_workers: int = declare(
        2, "count", "jobs computed at once, each in its own warm worker process",
        flag="--pool-workers", low=1, high=64,
        why="each is an executor thread plus a warm worker process",
    )
    default_jobs: int = declare(
        2, rule_of(AnalysisRequest, "jobs"),
        "jobs of a submission that sets none: 1=serial, 0=one per core", flag="--default-jobs",
    )
    drain_grace_s: float = declare(
        30.0, "seconds", "graceful-shutdown budget shared by the in-flight jobs",
        flag="--drain-grace", finite=True,
    )
    max_job_attempts: int = declare(
        3, "count", "journaled attempts after which a job is declared crash-looping", low=1
    )
    job_deadline_s: Optional[float] = declare(
        None, rule_of(AnalysisRequest, "deadline_s"),
        "wall-clock budget of a job whose config sets no deadline_s", flag="--job-deadline",
    )
    breaker_threshold: int = declare(
        3, "count", "consecutive worker failures before the circuit breaker opens (503s)",
        flag="--breaker-threshold", low=1,
    )
    breaker_cooldown_s: float = declare(
        30.0, "seconds", "open-breaker cooldown before a half-open probe",
        flag="--breaker-cooldown", finite=True,
    )


class AnalysisService:
    """Crash-safe async job execution over :mod:`repro.api`.

    Use as a context manager, or pair :meth:`startup` / :meth:`shutdown`
    explicitly.  All public methods are thread-safe (the HTTP front end
    calls them from handler threads).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: Deque[str] = deque()
        self._accepting = False
        self._stopping = False
        #: Each running job's deadline and its slot's pool, by key.
        self._running: Dict[str, Tuple[Deadline, SupervisedPool]] = {}
        self._cancel_requested: set = set()
        self._drain_started: Optional[float] = None
        self._executed = 0  # jobs computed by this service instance
        self.store: Optional[JobStore] = None
        self._executors: List[threading.Thread] = []
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )

    # -- lifecycle -------------------------------------------------------------

    def startup(self) -> "AnalysisService":
        """Open the store, recover journaled work, start the executor threads."""
        if self.store is not None:
            return self
        self.store = JobStore(self.config.store_path)
        with self._lock:
            recovered = self.store.pending()
            for record in recovered:
                # A job found ``running`` was killed mid-compute; both
                # recoverable states simply re-enter the queue.
                record.status = ACCEPTED
                record.phase = "recovered from journal"
                self.store.save(record)
                self._queue.append(record.key)
            self._accepting = True
            self._wakeup.notify_all()
        self._executors = [
            threading.Thread(
                target=self._run_jobs, name=f"repro-service-executor-{slot}", daemon=True
            )
            for slot in range(self.config.pool_workers)
        ]
        for thread in self._executors:
            thread.start()
        return self

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, settle the in-flight jobs, release everything.

        ``drain=True`` gives the running jobs together ``drain_grace_s``
        to finish cleanly; past the grace (or with ``drain=False``) each
        remaining job is cut through its pool, which kills its worker, and
        is journaled back to ``accepted`` for the next start.  Queued jobs
        always stay journaled as ``accepted``.  Every slot reaps its
        worker before this returns.  Idempotent.
        """
        if self.store is None:
            return
        with self._lock:
            self._accepting = False
            self._stopping = True
            if self._drain_started is None:
                self._drain_started = time.monotonic()
            self._wakeup.notify_all()
        if not drain:
            self._cut("service shutdown (no drain)")
        grace_ends = time.monotonic() + (self.config.drain_grace_s if drain else 5.0)
        for thread in self._executors:
            thread.join(timeout=max(0.0, grace_ends - time.monotonic()))
        if any(thread.is_alive() for thread in self._executors):
            self._cut("drain grace exceeded")
            for thread in self._executors:
                thread.join(timeout=10.0)
        self._executors = []
        store, self.store = self.store, None
        store.close()

    def __enter__(self) -> "AnalysisService":
        return self.startup()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ------------------------------------------------------------

    def submit(self, raw: Dict[str, Any]) -> Tuple[JobRecord, str]:
        """Accept (or dedup) one submission; returns ``(record, disposition)``.

        Dispositions: ``created`` (new work journaled), ``duplicate``
        (same job already queued or running), ``cached`` (already done —
        the stored result is authoritative, nothing recomputes),
        ``retried`` (a previously failed or cancelled job re-admitted).
        """
        spec = canonical_spec(raw, default_jobs=self.config.default_jobs)
        key = job_key(spec)
        with self._lock:
            if not self._accepting:
                raise JobRejected(
                    "service is draining and not accepting jobs",
                    retry_after_s=self.drain_retry_after_s(),
                )
            assert self.store is not None
            existing = self.store.get(key)
            if existing is not None and existing.status == DONE:
                return existing, "cached"
            if existing is not None and existing.status in (ACCEPTED, RUNNING):
                return existing, "duplicate"
            if len(self._queue) >= self.config.queue_limit:
                raise JobRejected(
                    f"job queue is full ({self.config.queue_limit} waiting); "
                    "retry later",
                    retry_after_s=2.0,
                )
            # Cached and duplicate answers cost nothing, so they are
            # served even while the breaker is open; only *new compute*
            # is gated.  Checked after the queue bound so a rejected
            # submission never consumes the half-open probe slot.
            retry_after = self.breaker.allow()
            if retry_after is not None:
                raise JobRejected(
                    "circuit breaker is open after repeated worker "
                    "failures; retry later",
                    retry_after_s=retry_after,
                    status=503,
                )
            if existing is not None:  # a failed/cancelled job, resubmitted
                self._readmit(existing, f"re-admitted after {existing.status}")
                return existing, "retried"
            record = JobRecord(
                key=key,
                seq=self.store.next_seq(),
                spec=spec,
                status=ACCEPTED,
                submitted_at=wallclock(),
            )
            # Durability before acknowledgement: the fsync'd journal
            # write happens inside save(), before the caller sees a key.
            self.store.save(record)
            self._queue.append(key)
            self._wakeup.notify_all()
            return record, "created"

    def cancel(
        self, key: str, *, reason: str = "cancelled by client"
    ) -> Tuple[JobRecord, str]:
        """Cancel a queued or running job; returns ``(record, disposition)``.

        Dispositions: ``cancelled`` (a queued job, journaled terminal
        immediately), ``cancelling`` (a running job — its deadline is
        cancelled, its pool kills its worker at once and the slot journals
        the ``cancelled`` state),
        ``terminal`` (already done/failed/cancelled; nothing to do).
        Raises :class:`~repro.errors.ServiceError` for unknown keys.
        """
        with self._lock:
            if self.store is None:
                raise ServiceError("service is not running")
            record = self.store.get(key)
            if record is None:
                raise ServiceError(f"no job {key}")
            if record.status in TERMINAL:
                return record, "terminal"
            if key in self._running:
                self._cancel_requested.add(key)
                self._running[key][0].cancel(reason)
                record.phase = "cancellation requested"
                return record, "cancelling"
            try:
                self._queue.remove(key)
            except ValueError:  # pragma: no cover - queue/store drift guard
                pass
            self._finish(record, CANCELLED, error=reason)
            return record, "cancelled"

    def requeue(self, key: str) -> JobRecord:
        """Re-admit a quarantined (failed) or cancelled job.

        An explicit operator action, so it bypasses the circuit breaker
        — requeueing *is* how you probe a quarantined job after fixing
        the underlying problem — but still honours the queue bound and
        the draining state.
        """
        with self._lock:
            if self.store is None:
                raise ServiceError("service is not running")
            if not self._accepting:
                raise JobRejected(
                    "service is draining and not accepting jobs",
                    retry_after_s=self.drain_retry_after_s(),
                )
            record = self.store.get(key)
            if record is None:
                raise ServiceError(f"no job {key}")
            if record.status not in (FAILED, CANCELLED):
                raise ServiceError(
                    f"job {key} is {record.status}; only failed or "
                    "cancelled jobs can be re-queued"
                )
            if len(self._queue) >= self.config.queue_limit:
                raise JobRejected(
                    f"job queue is full ({self.config.queue_limit} waiting); "
                    "retry later",
                    retry_after_s=2.0,
                )
            self._readmit(record, "re-queued by operator")
            return record

    def drain_retry_after_s(self) -> float:
        """Seconds a client should wait while the service drains.

        Derived from the remaining drain grace — a drain that started
        ``t`` seconds ago will either finish its in-flight job or cancel
        it within ``drain_grace_s - t``, after which a restarted
        instance can take the retry.  Never less than one second.
        """
        with self._lock:
            if self._drain_started is None:
                return self.config.drain_grace_s
            elapsed = time.monotonic() - self._drain_started
            return max(1.0, self.config.drain_grace_s - elapsed)

    # -- introspection ---------------------------------------------------------

    def job(self, key: str) -> Optional[JobRecord]:
        with self._lock:
            return self.store.get(key) if self.store is not None else None

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return self.store.records() if self.store is not None else []

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    @property
    def ready(self) -> bool:
        with self._lock:
            return self._accepting and any(t.is_alive() for t in self._executors)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "accepting": self._accepting,
                "queued": len(self._queue),
                "running": sorted(self._running, key=lambda k: self.store.get(k).seq),
                "executed": self._executed,
                "jobs_total": len(self.store) if self.store is not None else 0,
                "store": self.store.path if self.store is not None else None,
                "pool_workers": self.config.pool_workers,
                "breaker": self.breaker.snapshot(),
            }

    def result_bytes(self, key: str) -> bytes:
        """A done job's result as the JSON bytes the store holds."""
        with self._lock:  # a save may compact the journal and move its lines
            record = self.store.get(key) if self.store is not None else None
            if record is None:
                raise ServiceError(f"no job {key}")
            if record.status != DONE:
                raise ServiceError(f"job {key} is {record.status}; no result to query")
            return self.store.result_bytes(key)

    def result(self, key: str) -> Dict[str, Any]:
        """A done job's result, parsed: what the severity queries read."""
        return json.loads(self.result_bytes(key))

    def payload(self, record: JobRecord) -> bytes:
        """*record* as a client sees it, encoded: a done job carries its result."""
        result = self.result_bytes(record.key) if record.status == DONE else b"null"
        return splice(record.to_payload(), "result", result)

    def severity(
        self, key: str, *, metric: Optional[str] = None
    ) -> Dict[str, Any]:
        """Query the severity cube of a finished ``analyze`` job.

        Without ``metric``: the available metrics and cube metadata.
        With ``metric``: total severity plus by-rank and by-callpath
        aggregations of that metric's cells.
        """
        result = self.result(key)
        cube = result.get("severity")
        if not cube:
            raise ServiceError(
                f"job {key} is a {result.get('kind')} job; "
                "only analyze jobs carry a severity cube"
            )
        # Imported here: the server never loads it unless a client asks.
        from repro.report.serialize import experiment_from_dict

        data = experiment_from_dict(cube)
        metrics = data.metrics()
        if metric is None:
            return {
                "job": key,
                "metrics": metrics,
                "total_time": cube.get("total_time"),
                "scheme": cube.get("scheme"),
                "machine_names": cube.get("machine_names"),
            }
        if metric not in metrics:
            known = ", ".join(metrics)
            raise ServiceError(f"metric {metric!r} not in cube; available: {known}")
        return {
            "job": key,
            "metric": metric,
            "total": data.metric_total(metric),
            "by_rank": {str(rank): v for rank, v in data.by_rank(metric).items()},
            "by_callpath": {"/".join(path): v for path, v in data.by_path(metric).items()},
        }

    def severity_timeline(
        self, key: str, *, metric: Optional[str] = None
    ) -> Dict[str, Any]:
        """Window-resolved severity series of a finished ``analyze`` job.

        Requires the job to have been submitted with config
        ``{"timeline": true}``; without ``metric`` the full payload (every
        recorded metric's rolling-window series, peak window and per-rank
        breakdown), with ``metric`` just that metric's entry.
        """
        result = self.result(key)
        if result.get("kind") != "analyze":
            raise ServiceError(
                f"job {key} is a {result.get('kind')} job; "
                "only analyze jobs carry a severity timeline"
            )
        payload = result.get("timeline")
        if not payload:
            raise ServiceError(
                f"job {key} did not record a timeline; submit with "
                'config {"timeline": true} to get time-resolved severity'
            )
        if metric is None:
            return {"job": key, **payload}
        entry = payload.get("metrics", {}).get(metric)
        if entry is None:
            known = ", ".join(sorted(payload.get("metrics", {})))
            raise ServiceError(
                f"metric {metric!r} not in timeline; available: {known}"
            )
        return {
            "job": key,
            "window_s": payload["window_s"],
            "stride_s": payload["stride_s"],
            "metrics": {metric: entry},
        }

    # -- the executor slots ----------------------------------------------------

    def _run_jobs(self) -> None:
        """One slot: run queued jobs, each whole in this slot's warm worker."""
        pool: Optional[SupervisedPool] = None
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._stopping:
                        self._wakeup.wait(timeout=0.2)
                    if self._stopping:
                        return
                    key = self._queue.popleft()
                    assert self.store is not None
                    record = self.store.get(key)
                    if record is None:  # pragma: no cover - queue/store drift guard
                        continue
                    record.attempts += 1
                    if record.attempts > self.config.max_job_attempts:
                        # The job has now crashed the service repeatedly;
                        # quarantine it instead of crash-looping forever.
                        gave_up = f"gave up after {record.attempts - 1} interrupted attempts"
                        self._finish(record, FAILED, error=gave_up)
                        self.breaker.record_failure(
                            f"job {key} quarantined after crash-looping"
                        )
                        continue
                    record.status = RUNNING
                    record.started_at = wallclock()
                    record.phase = "computing in a worker process"
                    self.store.save(record)
                    # One Deadline per job: the budget from the job's config
                    # (falling back to the service default), and always a
                    # handle — an unbounded deadline is still the channel a
                    # client cancel travels through.
                    budget = record.spec.get("config", {}).get("deadline_s")
                    if budget is None:
                        budget = self.config.job_deadline_s
                    deadline = Deadline(budget)
                    if pool is None:
                        pool = SupervisedPool(_execute_encoded, _SLOT_POOL, persistent=True)
                    self._running[key] = (deadline, pool)
                self._settle(record, pool, deadline)
        finally:
            if pool is not None:
                pool.close()

    def _settle(self, record: JobRecord, pool: SupervisedPool, deadline: Deadline) -> None:
        """Run *record* in *pool*'s worker under *deadline*; journal the outcome."""
        key = record.key
        try:
            [(result, execution)], report = pool.run([record.spec], deadline=deadline)
        except PoolShutdown:
            # Shutdown cut the job: put it back to ``accepted`` so the
            # next start finishes it; the slot then observes ``_stopping``
            # and exits.
            with self._lock:
                record.status = ACCEPTED
                record.phase = "interrupted by shutdown; resumes on restart"
                self.store.save(record)
                self._clear_running(key)
            return
        except TimeBudgetExceeded as exc:
            # Budget expired or a client cancelled: terminal ``cancelled``
            # state; the partial result is discarded so the
            # content-addressed cache only ever holds complete answers.
            with self._lock:
                client = key in self._cancel_requested
                self._finish(record, CANCELLED, error=f"TimeBudgetExceeded: {exc.reason}")
            if client:
                # A client cancel says nothing about service health:
                # don't count it, but do free the half-open probe
                # slot if this job happened to be the probe.
                self.breaker.release_probe()
            else:
                self.breaker.record_failure(
                    f"job {key} exceeded its time budget: {exc.reason}"
                )
            return
        except Exception as exc:
            with self._lock:
                self._finish(record, FAILED, error=f"{type(exc).__name__}: {exc}")
            # A deterministic application error from a healthy worker
            # proves the infrastructure works; it resets the breaker
            # rather than tripping it.
            self.breaker.record_success()
            return
        with self._lock:
            # A run that was not clean (its worker died and it re-ran, or it
            # ran here) journals the slot's report beside the result.
            recovery = None if report.clean else report.to_dict()
            self._finish(record, DONE, result=result, execution=execution, recovery=recovery)
            self._executed += 1
        if report.fallbacks:
            self.breaker.record_failure(f"job {key} ran in the server: every worker it had died")
        else:
            self.breaker.record_success()

    def _cut(self, reason: str) -> None:
        """Shut down every in-flight job's pool: its worker is killed and
        its slot journals it back to ``accepted``."""
        with self._lock:
            pools = [pool for _deadline, pool in self._running.values()]
        for pool in pools:
            pool.request_shutdown(reason)

    def _finish(
        self,
        record: JobRecord,
        status: str,
        *,
        error: Optional[str] = None,
        result: Optional[bytes] = None,
        execution: Optional[Dict[str, Any]] = None,
        recovery: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Journal *record* settled in *status*, a done one with its encoded *result*."""
        record.status = status
        record.error = error
        record.execution = execution
        record.recovery = recovery
        record.finished_at = wallclock()
        record.phase = ""
        self.store.save(record, result)
        self._clear_running(record.key)

    def _readmit(self, record: JobRecord, phase: str) -> None:
        """Journal a settled *record* back to ``accepted`` and queue it
        (caller holds the lock)."""
        record.status = ACCEPTED
        record.phase = phase
        record.error = None
        record.attempts = 0
        record.finished_at = None
        self.store.save(record)
        self._queue.append(record.key)
        self._wakeup.notify_all()

    def _clear_running(self, key: str) -> None:
        """Drop one job's running bookkeeping (caller holds the lock)."""
        self._running.pop(key, None)
        self._cancel_requested.discard(key)


def create_app(config: Optional[ServiceConfig] = None) -> AnalysisService:
    """Build an (un-started) service — the app-factory entry point.

    Call :meth:`AnalysisService.startup` (or enter the context manager,
    or hand it to :func:`repro.service.http.serve`) to open the store,
    recover journaled jobs and start executing.
    """
    return AnalysisService(config)
