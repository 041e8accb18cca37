"""The analysis service: lifecycle, admission control, execution.

:class:`AnalysisService` owns exactly three long-lived things:

* one :class:`~repro.service.store.JobStore` (durable state — the only
  thing that must survive a crash),
* one warm persistent :class:`~repro.resilience.pool.SupervisedPool`
  of ``analyze_shard`` workers, lent to every analysis job instead of
  spawning a pool per request,
* one executor thread draining the in-memory run queue in submission
  order.

Crash-safety protocol (the order matters):

1. :meth:`submit` journals the accepted record *before* acknowledging —
   an acknowledged job is durable by construction.
2. The executor journals the ``running`` transition before computing,
   so a SIGKILL mid-compute is distinguishable from never-started.
3. On :meth:`startup`, every journaled job still in a recoverable state
   is re-queued (in original submission order) and runs to completion;
   since each job is deterministic in its canonical spec, the recovered
   result is byte-identical to the one the uninterrupted service would
   have produced.
4. A graceful shutdown (SIGTERM → :meth:`shutdown`) stops admission,
   lets the in-flight job finish within ``drain_grace_s``, cancels it
   through the pool past that, and leaves everything unfinished
   journaled as ``accepted`` for the next start.

Admission control is a bounded queue: past ``queue_limit`` waiting jobs,
:meth:`submit` raises :class:`~repro.errors.JobRejected` (HTTP 429)
rather than buffering unbounded work it may never get to.
"""

from __future__ import annotations

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
)
from repro.wallclock import wallclock

__all__ = ["ServiceConfig", "AnalysisService", "create_app"]


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
        2, "count", "workers in the shared analysis pool", flag="--pool-workers", low=1,
        high=rule_of(AnalysisRequest, "jobs").high, why="the jobs bound: no job has more shards",
    )
    default_jobs: int = declare(
        2, rule_of(AnalysisRequest, "jobs"),
        "jobs of a submission that sets none: 1=serial, 0=one per core", flag="--default-jobs",
    )
    drain_grace_s: float = declare(
        30.0, "seconds", "graceful-shutdown budget for the in-flight job",
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
        self._running_key: Optional[str] = None
        self._running_deadline: Optional[Deadline] = None
        self._cancel_requested: set = set()
        self._drain_started: Optional[float] = None
        self._executed = 0  # jobs actually computed by this process
        self.store: Optional[JobStore] = None
        self.pool = None
        self._executor: Optional[threading.Thread] = None
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )

    # -- lifecycle -------------------------------------------------------------

    def startup(self) -> "AnalysisService":
        """Open the store, recover journaled work, start pool + executor."""
        if self.store is not None:
            return self
        from repro.analysis.parallel import analyze_shard
        from repro.resilience.pool import PoolConfig, SupervisedPool

        self.store = JobStore(self.config.store_path)
        supervision = PoolConfig(
            max_workers=self.config.pool_workers,
            handle_signals=False,  # the serve loop owns signal handling
        )
        self.pool = SupervisedPool(analyze_shard, supervision, persistent=True)
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
        self._executor = threading.Thread(
            target=self._run_jobs, name="repro-service-executor", daemon=True
        )
        self._executor.start()
        return self

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, settle the in-flight job, release everything.

        ``drain=True`` gives the running job ``drain_grace_s`` to finish
        cleanly; past the grace (or with ``drain=False``) the job is
        cancelled through the pool, journaled back to ``accepted`` and
        left for the next start.  Queued jobs always stay journaled as
        ``accepted``.  Idempotent.
        """
        if self.store is None:
            return
        with self._lock:
            self._accepting = False
            self._stopping = True
            if self._drain_started is None:
                self._drain_started = time.monotonic()
            self._wakeup.notify_all()
        if self.pool is not None and not drain:
            self.pool.request_shutdown("service shutdown (no drain)")
        if self._executor is not None:
            grace = self.config.drain_grace_s if drain else 5.0
            self._executor.join(timeout=grace)
            if self._executor.is_alive() and self.pool is not None:
                # Drain grace exceeded: cancel the in-flight analysis.
                self.pool.request_shutdown("drain grace exceeded")
                self._executor.join(timeout=10.0)
            self._executor = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None
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
        immediately), ``cancelling`` (the running job — its deadline is
        cancelled and the executor journals the ``cancelled`` state as
        soon as the analysis reaches its next cooperative check),
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
            if key == self._running_key:
                self._cancel_requested.add(key)
                if self._running_deadline is not None:
                    self._running_deadline.cancel(reason)
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
            return (
                self._accepting
                and self._executor is not None
                and self._executor.is_alive()
            )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "accepting": self._accepting,
                "queued": len(self._queue),
                "running": self._running_key,
                "executed": self._executed,
                "jobs_total": len(self.store) if self.store is not None else 0,
                "store": self.store.path if self.store is not None else None,
                "pool_workers": self.config.pool_workers,
                "breaker": self.breaker.snapshot(),
            }

    def _done_result(self, key: str) -> Dict[str, Any]:
        """The stored result of a finished job, or why there is none."""
        record = self.job(key)
        if record is None:
            raise ServiceError(f"no job {key}")
        if record.status != DONE or not record.result:
            raise ServiceError(f"job {key} is {record.status}; no result to query")
        return record.result

    def severity(
        self, key: str, *, metric: Optional[str] = None
    ) -> Dict[str, Any]:
        """Query the severity cube of a finished ``analyze`` job.

        Without ``metric``: the available metrics and cube metadata.
        With ``metric``: total severity plus by-rank and by-callpath
        aggregations of that metric's cells.
        """
        result = self._done_result(key)
        cube = result.get("severity")
        if not cube:
            raise ServiceError(
                f"job {key} is a {result.get('kind')} job; "
                "only analyze jobs carry a severity cube"
            )
        cells = cube.get("cells", [])
        if metric is None:
            return {
                "job": key,
                "metrics": sorted({c["metric"] for c in cells}),
                "total_time": cube.get("total_time"),
                "scheme": cube.get("scheme"),
                "machine_names": cube.get("machine_names"),
            }
        chosen = [c for c in cells if c["metric"] == metric]
        if not chosen:
            known = ", ".join(sorted({c["metric"] for c in cells}))
            raise ServiceError(f"metric {metric!r} not in cube; available: {known}")
        by_rank: Dict[str, float] = {}
        by_callpath: Dict[str, float] = {}
        total = 0.0
        for cell in chosen:
            value = float(cell["value"])
            total += value
            rank = str(cell["rank"])
            path = "/".join(cell["path"])
            by_rank[rank] = by_rank.get(rank, 0.0) + value
            by_callpath[path] = by_callpath.get(path, 0.0) + value
        return {
            "job": key,
            "metric": metric,
            "total": total,
            "by_rank": by_rank,
            "by_callpath": by_callpath,
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
        result = self._done_result(key)
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

    # -- the executor ----------------------------------------------------------

    def _set_phase(self, key: str, phase: str) -> None:
        with self._lock:
            record = self.store.get(key) if self.store is not None else None
            if record is not None:
                record.phase = phase  # in-memory progress; journaled on transitions

    def _run_jobs(self) -> None:
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
                record.phase = "starting"
                self.store.save(record)
                self._running_key = key
                # One Deadline per job: the budget from the job's config
                # (falling back to the service default), and always a
                # handle — an unbounded deadline is still the channel a
                # client cancel travels through.
                budget = record.spec.get("config", {}).get("deadline_s")
                if budget is None:
                    budget = self.config.job_deadline_s
                deadline = Deadline(budget)
                self._running_deadline = deadline
                pool = self.pool
            try:
                result, execution = execute_job(
                    record.spec,
                    pool=pool,
                    progress=lambda phase: self._set_phase(key, phase),
                    deadline=deadline,
                )
            except PoolShutdown:
                # Shutdown raced the job: put it back to ``accepted`` so
                # the next start finishes it; the loop then observes
                # ``_stopping`` and exits.
                with self._lock:
                    record.status = ACCEPTED
                    record.phase = "interrupted by shutdown; resumes on restart"
                    self.store.save(record)
                    self._clear_running(key)
                continue
            except TimeBudgetExceeded as exc:
                # Budget expired or a client cancelled: terminal
                # ``cancelled`` state; the partial result is discarded so
                # the content-addressed cache only ever holds complete
                # answers.
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
                continue
            except Exception as exc:
                with self._lock:
                    self._finish(record, FAILED, error=f"{type(exc).__name__}: {exc}")
                # A deterministic application error from a healthy worker
                # proves the infrastructure works; it resets the breaker
                # rather than tripping it.
                self.breaker.record_success()
                continue
            with self._lock:
                self._finish(record, DONE, result=result, execution=execution)
                self._executed += 1
            self.breaker.record_success()

    def _finish(
        self,
        record: JobRecord,
        status: str,
        *,
        error: Optional[str] = None,
        result: Optional[Dict[str, Any]] = None,
        execution: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Journal *record* settled in terminal *status* (caller holds the lock)."""
        record.status = status
        record.error = error
        record.result = result
        record.execution = execution
        record.finished_at = wallclock()
        record.phase = ""
        self.store.save(record)
        if record.key == self._running_key:
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
        """Drop the running-job bookkeeping (caller holds the lock)."""
        self._running_key = None
        self._running_deadline = None
        self._cancel_requested.discard(key)


def create_app(config: Optional[ServiceConfig] = None) -> AnalysisService:
    """Build an (un-started) service — the app-factory entry point.

    Call :meth:`AnalysisService.startup` (or enter the context manager,
    or hand it to :func:`repro.service.http.serve`) to open the store,
    recover journaled jobs and start executing.
    """
    return AnalysisService(config)
