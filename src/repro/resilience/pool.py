"""A supervised worker pool for re-runnable analysis tasks.

``multiprocessing.Pool`` gives no recourse when a worker dies: ``map``
blocks forever waiting for a result that will never arrive, and the caller
learns nothing about which task was lost.  On a metacomputer — the paper's
operating assumption — *no* component may be trusted that far, least of
all the analysis processes themselves (they are the first victims of node
OOM kills and batch-system preemption).

:class:`SupervisedPool` dispatches each task to a worker process and
actively supervises it:

* **crash detection** — a worker that exits without delivering a result
  (segfault, SIGKILL, OOM) wakes the supervisor at once: it blocks on
  the running workers' result pipes and process sentinels, never on a
  timer alone;
* **hang detection** — each task has a wall-clock *deadline*, and each
  worker carries a heartbeat thread; a worker whose heartbeat goes stale
  (process alive but wedged, e.g. SIGSTOP or a hung syscall) is killed
  before its deadline expires;
* **bounded retry** — an infrastructure failure re-dispatches the task to
  a *fresh* worker after exponential backoff, up to ``max_retries`` times
  (safe because shard analysis is pure and deterministically re-runnable —
  the replay-clock property);
* **quarantine** — a task that keeps killing workers is declared poisoned
  and executed serially in the supervising process as a last resort;
* **determinism** — results are returned in task order, application
  exceptions are re-raised for the lowest-indexed failing task, and a
  run with zero infrastructure failures is observably identical to a
  plain ``Pool.map``.

Workers run a task loop, so one pool can serve many :meth:`run` calls.  A
worker spawned for a task is handed it as its process argument (under
fork it is never pickled); a warm worker's next task crosses its pipe.
The supervising process may run a task of its own while its workers run
theirs (:meth:`run`'s ``local``).  A pool constructed with
``persistent=True`` keeps its healthy workers warm between runs — the
serving-layer configuration, where respawning a pool per job would
dominate small-job latency — until :meth:`close` reaps them; a
non-persistent pool (the default) reaps everything at the end of each
run, preserving the original one-shot behaviour.

Interruption is first-class: :meth:`request_shutdown` (called directly,
from another thread, or by the SIGTERM/SIGINT handlers the pool installs
around main-thread runs) drains in-flight tasks for a bounded grace
period, kills and reaps what remains — no orphaned workers — and raises
:class:`~repro.errors.PoolShutdown` carrying the partial results and the
final :class:`ExecutionReport`.

Every dispatch, failure, retry, and fallback is recorded in an
:class:`ExecutionReport` so callers can attach the recovery story to their
results instead of silently absorbing it.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PoolShutdown, ReproError, TimeBudgetExceeded
from repro.resilience.deadline import Deadline

__all__ = [
    "PoolConfig",
    "TaskExecution",
    "ExecutionReport",
    "SupervisedPool",
]


@dataclass(frozen=True)
class PoolConfig:
    """Supervision parameters of a :class:`SupervisedPool`.

    The defaults suit shard replay analysis: shards finish in seconds, so
    a five-minute deadline only ever fires on a genuinely wedged worker,
    and two retries absorb transient kills without stalling a poisoned
    shard for long.
    """

    #: Maximum concurrently running worker processes.
    max_workers: int = 2
    #: Per-task wall-clock deadline (seconds) before the worker is killed.
    timeout_s: float = 300.0
    #: Re-dispatches allowed after an infrastructure failure, per task.
    max_retries: int = 2
    #: First retry backoff; doubles per further retry.
    backoff_base_s: float = 0.05
    #: Worker heartbeat period.
    heartbeat_interval_s: float = 0.5
    #: Stale-heartbeat window after which a live worker counts as wedged.
    heartbeat_grace_s: float = 30.0
    #: Longest the supervisor blocks before re-checking deadlines and
    #: heartbeats; a result or a worker death wakes it sooner.
    poll_interval_s: float = 0.02
    #: How long a graceful shutdown waits for in-flight tasks to finish
    #: before killing their workers.
    drain_grace_s: float = 10.0
    #: Test-only fault hook, run inside the worker before the task function
    #: (chaos harnesses use it to SIGKILL/SIGSTOP/stall the worker).
    chaos_hook: Optional[Callable[[Any], None]] = None


@dataclass
class TaskExecution:
    """How one task was executed: every dispatch, failure, and recovery."""

    index: int
    #: Worker dispatches (1 for a clean run; retries add one each).
    attempts: int = 0
    #: The task exhausted its retries and ran serially in the supervisor.
    fallback: bool = False
    #: One human-readable entry per infrastructure failure.
    failures: List[str] = field(default_factory=list)
    #: First dispatch → final settlement, wall seconds.
    wall_time_s: float = 0.0

    @property
    def retries(self) -> int:
        """Re-dispatches to a fresh worker after a failure."""
        return max(0, self.attempts - 1)

    @property
    def clean(self) -> bool:
        return not self.failures and not self.fallback


@dataclass
class ExecutionReport:
    """Aggregate account of one supervised pool run.

    Attached to :class:`~repro.analysis.result.AnalysisResult` by the
    analyzer after a pool run so a recovered analysis carries the evidence
    of its recovery.
    """

    tasks: List[TaskExecution] = field(default_factory=list)
    workers: int = 0
    wall_time_s: float = 0.0

    @property
    def attempts(self) -> int:
        return sum(t.attempts for t in self.tasks)

    @property
    def retries(self) -> int:
        return sum(t.retries for t in self.tasks)

    @property
    def fallbacks(self) -> int:
        return sum(1 for t in self.tasks if t.fallback)

    @property
    def failures(self) -> List[str]:
        """All infrastructure failures, in task order."""
        return [msg for t in self.tasks for msg in t.failures]

    @property
    def clean(self) -> bool:
        """True when no worker failed — the execution was uneventful."""
        return all(t.clean for t in self.tasks)

    def summary(self) -> str:
        slowest = max((t.wall_time_s for t in self.tasks), default=0.0)
        return (
            f"{len(self.tasks)} task(s) on {self.workers} worker(s): "
            f"{self.attempts} attempt(s), {self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
            f"{self.fallbacks} serial fallback(s); "
            f"wall {self.wall_time_s:.2f}s (slowest task {slowest:.2f}s)"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (job stores persist this with results)."""
        return {
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "attempts": self.attempts,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "clean": self.clean,
            "summary": self.summary(),
            "tasks": [
                {
                    "index": t.index,
                    "attempts": t.attempts,
                    "fallback": t.fallback,
                    "failures": list(t.failures),
                    "wall_time_s": t.wall_time_s,
                }
                for t in self.tasks
            ],
        }


def _heartbeat_loop(beat, interval_s: float, stop: threading.Event) -> None:
    """Worker-side daemon thread: bump the shared counter until told to stop.

    A worker whose supervisor died (it was re-parented) exits here:
    nobody reads its result, and as it holds both ends of its own pipe it
    would otherwise wait for a next task forever.
    """
    supervisor = os.getppid()
    while not stop.wait(interval_s):
        if os.getppid() != supervisor:
            os._exit(1)
        with beat.get_lock():
            beat.value += 1


def _worker_main(fn, conn, beat, interval_s, chaos_hook, message) -> None:
    """Worker entry point: loop over tasks, send back ("ok"|"error", value).

    The first task is *message*, the one-tuple the worker was spawned for
    (under fork it is never pickled); later tasks arrive over the duplex
    pipe as one-tuples, and ``None`` there is the graceful-exit sentinel.
    Application exceptions travel back over the pipe as values — only the
    *infrastructure* (process death, deadline, heartbeat loss) is the
    supervisor's business.  The heartbeat thread is a daemon: it dies with
    the process, which is exactly the signal the supervisor listens for.

    The worker is daemonic to its supervisor (an exiting supervisor
    terminates it) but may start processes of its own: a service job
    worker runs a ``jobs=N`` analysis with a pool of its own.
    """
    multiprocessing.current_process().daemon = False
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop, args=(beat, interval_s, stop), daemon=True
    ).start()
    try:
        while message is not None:
            (task,) = message
            try:
                if chaos_hook is not None:
                    chaos_hook(task)
                payload = ("ok", fn(task))
            except BaseException as exc:  # noqa: BLE001 - forwarded, not swallowed
                payload = ("error", exc)
            try:
                conn.send(payload)
            except Exception as exc:  # unpicklable result/exception
                conn.send(("error", ReproError(f"task payload not picklable: {exc!r}")))
            try:
                # check: allow CON303: worker child process idles in its task loop by design;
                # the supervisor owns liveness (heartbeat + process kill), so an untimed recv
                # here cannot wedge the parent
                message = conn.recv()
            except (EOFError, OSError):
                break
    finally:
        stop.set()
        conn.close()


@dataclass
class _Worker:
    """One live worker process and its supervisor-side plumbing."""

    process: Any
    conn: Any
    beat: Any


@dataclass
class _Attempt:
    """Supervisor-side state of one dispatched task."""

    worker: _Worker
    started: float
    last_beat_value: int = 0
    last_beat_seen: float = 0.0


class SupervisedPool:
    """Run ``fn`` over tasks with crash/hang supervision and bounded retry.

    ``fn`` must be a module-level callable (it crosses the process
    boundary) and pure with respect to each task: a retry re-runs it from
    scratch and must produce the same result.

    ``persistent=True`` keeps healthy workers warm between :meth:`run`
    calls so a long-lived owner (the analysis service) pays the spawn cost
    once; call :meth:`close` (or use the pool as a context manager) to
    reap them.  The default reaps all workers at the end of every run.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        config: Optional[PoolConfig] = None,
        *,
        persistent: bool = False,
    ):
        self.fn = fn
        self.config = config or PoolConfig()
        self.persistent = persistent
        self._idle: List[_Worker] = []
        self._shutdown = threading.Event()
        self._shutdown_reason = "shutdown requested"

    # -- lifecycle -------------------------------------------------------------

    def request_shutdown(self, reason: str = "shutdown requested") -> None:
        """Ask the active run to drain and stop (thread- and signal-safe).

        The run drains in-flight tasks for ``drain_grace_s``, kills and
        reaps whatever is still running, and raises
        :class:`~repro.errors.PoolShutdown` unless every task had already
        settled.  The request is sticky: a subsequent :meth:`run` raises
        immediately.
        """
        self._shutdown_reason = reason
        self._shutdown.set()

    def close(self) -> None:
        """Reap every warm worker.  Idempotent."""
        idle, self._idle = self._idle, []
        # Sentinels first, joins after: the workers exit side by side.
        for worker in idle:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in idle:
            self._release(worker)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self, ctx, task: Any) -> _Worker:
        """A new worker whose first task is *task*: a process argument, so
        free under fork and pickled once under spawn."""
        parent_conn, child_conn = ctx.Pipe()
        beat = ctx.Value("Q", 0)
        process = ctx.Process(
            target=_worker_main,
            args=(
                self.fn,
                child_conn,
                beat,
                self.config.heartbeat_interval_s,
                self.config.chaos_hook,
                (task,),
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn, beat=beat)

    def _dispatch(self, ctx, task: Any, fresh: bool) -> _Attempt:
        """Send *task* to a live warm worker over its pipe, or spawn one for it.

        ``fresh=True`` always spawns — retries go to a worker whose runtime
        state cannot have been poisoned by the failed attempt.
        """
        # Stamped here, not at the top of the supervisor's pass: the spawn
        # and send of the tasks dispatched before this one are not its time.
        now = time.monotonic()
        while not fresh and self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                try:
                    worker.conn.send((task,))
                    break
                except (OSError, ValueError):
                    pass
            # The warm worker died while idle: retire it.
            self._release(worker, kill=True)
        else:  # no warm worker took it
            worker = self._spawn(ctx, task)
        return _Attempt(
            worker=worker,
            started=now,
            last_beat_value=worker.beat.value,
            last_beat_seen=now,
        )

    @staticmethod
    def _release(worker: _Worker, kill: bool = False) -> None:
        """Retire one worker: join it (:meth:`close` sent its sentinel) or kill it."""
        if not kill:
            worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _receive(self, attempt: _Attempt) -> Tuple[str, Any]:
        """Drain the worker's result pipe; pipe damage is a failure."""
        try:
            # check: allow CON303: recv() runs only after conn.poll() reported data waiting
            # (see _poll), so it returns immediately; a dead worker's closed pipe reads as
            # instant EOF, which is the crash signal
            kind, value = attempt.worker.conn.recv()
        except EOFError:
            # A dead worker's closed pipe reads as EOF before is_alive()
            # notices the exit: this *is* the crash signal.
            attempt.worker.process.join(timeout=5.0)
            return ("failed", self._death_reason(attempt))
        except (OSError, ValueError, ImportError, AttributeError) as exc:
            return ("failed", f"worker result unreadable: {exc!r}")
        return (kind, value)

    @staticmethod
    def _death_reason(attempt: _Attempt) -> str:
        code = attempt.worker.process.exitcode
        death = f"signal {-code}" if code is not None and code < 0 else f"exit code {code}"
        return f"worker died before returning a result ({death})"

    def _poll(
        self, attempt: _Attempt, now: float, config: PoolConfig
    ) -> Optional[Tuple[str, Any]]:
        """One supervision pass over a running worker.

        Returns None while the worker is healthy and still running, else
        ``("ok", result)``, ``("error", exception)``, or
        ``("failed", reason)`` for an infrastructure failure.
        """
        if attempt.worker.conn.poll():
            return self._receive(attempt)
        if not attempt.worker.process.is_alive():
            # The result may have raced the exit notification.
            if attempt.worker.conn.poll():
                return self._receive(attempt)
            return ("failed", self._death_reason(attempt))
        if now - attempt.started > config.timeout_s:
            return (
                "failed",
                f"deadline of {config.timeout_s:g}s exceeded "
                f"(worker killed after {now - attempt.started:.1f}s)",
            )
        beat_value = attempt.worker.beat.value
        if beat_value != attempt.last_beat_value:
            attempt.last_beat_value = beat_value
            attempt.last_beat_seen = now
        elif now - attempt.last_beat_seen > config.heartbeat_grace_s:
            return (
                "failed",
                f"heartbeat lost for {now - attempt.last_beat_seen:.1f}s "
                "(worker presumed wedged)",
            )
        return None

    def _wait(self, running: Dict[int, _Attempt], pending: list, config: PoolConfig) -> None:
        """Block until a result or a worker's death (its pipe, its sentinel)
        or — with nothing in flight — a shutdown request, for at most
        ``poll_interval_s``: the cadence of the deadline, timeout, heartbeat
        and drain checks.  A backed-off retry with a free slot cuts it short."""
        timeout = config.poll_interval_s
        if pending and len(running) < config.max_workers and not self._shutdown.is_set():
            timeout = min(timeout, max(0.0, min(pending)[0] - time.monotonic()))
        workers = [attempt.worker for attempt in running.values()]
        if workers:
            multiprocessing.connection.wait(
                [w.conn for w in workers] + [w.process.sentinel for w in workers], timeout
            )
        else:
            self._shutdown.wait(timeout)

    # -- signal wiring ---------------------------------------------------------

    def _install_signal_handlers(self):
        """SIGTERM/SIGINT → graceful drain, for main-thread runs only: an
        interrupted parent drains and reaps its workers instead of orphaning
        them, and a run on another thread leaves signals to its owner."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def on_signal(signum, frame):
            self.request_shutdown(f"signal {signum} ({signal.Signals(signum).name})")

        previous = {}
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum, on_signal)
        except (ValueError, OSError):  # pragma: no cover - exotic embedding
            for signum, old in previous.items():
                signal.signal(signum, old)
            return None
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        if previous:
            for signum, old in previous.items():
                signal.signal(signum, old)

    # -- the supervisor loop ---------------------------------------------------

    def run(
        self,
        tasks: Sequence[Any],
        *,
        timeout_s: Optional[float] = None,
        max_retries: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        local: Optional[Callable[[], Any]] = None,
    ) -> Tuple[List[Any], ExecutionReport]:
        """Execute every task; returns ``(results in task order, report)``.

        ``local`` is the supervisor's own task, run here once the first
        dispatch pass has handed the workers theirs: it is task 0 of the
        results and the report (one attempt, never retried or timed out),
        and *tasks* follow from index 1.  It runs even when the budget or a
        shutdown stops the dispatch, and the run is cut only after it; if
        it raises, the in-flight workers are killed and its error
        propagates.

        ``timeout_s`` and ``max_retries`` override the pool's configured
        deadline/retry budget for this run only: an analysis request's
        ``timeout``/``max_retries`` reach the pool this way, whether
        ``analyze`` built it or it was lent.
        ``deadline`` bounds the *whole run*: per-attempt timeouts are
        clamped to the remaining budget, and when it expires (or is
        cancelled) in-flight workers are killed immediately and
        :class:`~repro.errors.TimeBudgetExceeded` carries out whatever
        settled — unlike :meth:`request_shutdown`, the run is cut without
        a drain grace and the pool itself stays usable.

        Application exceptions (raised by ``fn``) abort the run once every
        lower-indexed task has settled, re-raising the lowest-indexed one —
        the serial executor's semantics.  Infrastructure failures never
        raise; they are retried, then quarantined to a serial fallback.  A
        shutdown request (signal or :meth:`request_shutdown`) drains, reaps,
        and raises :class:`~repro.errors.PoolShutdown`.
        """
        first = 0 if local is None else 1
        tasks = [local, *tasks] if first else list(tasks)
        config = self.config
        if timeout_s is not None:
            config = replace(config, timeout_s=float(timeout_s))
        if max_retries is not None:
            config = replace(config, max_retries=int(max_retries))
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining != float("inf"):
                # Per-shard budgets derive from what is left end to end:
                # no single attempt may outlive the request's deadline.
                config = replace(
                    config, timeout_s=min(config.timeout_s, max(remaining, 0.001))
                )
        began = time.monotonic()
        report = ExecutionReport(
            tasks=[TaskExecution(index=i) for i in range(len(tasks))],
            workers=min(config.max_workers, len(tasks) - first),
        )
        if not tasks:
            return [], report

        ctx = multiprocessing.get_context()
        results: Dict[int, Any] = {}
        errors: Dict[int, BaseException] = {}
        first_dispatch: Dict[int, float] = {}
        #: (not-before time, task index, needs-fresh-worker) — failed tasks
        #: re-enter with backoff and a fresh worker.
        pending: List[Tuple[float, int, bool]] = [
            (began, i, False) for i in range(first, len(tasks))
        ]
        running: Dict[int, _Attempt] = {}
        drain_deadline: Optional[float] = None
        budget_reason: Optional[str] = None

        def settle(index: int) -> None:
            report.tasks[index].wall_time_s = time.monotonic() - first_dispatch[index]

        def run_fallback(index: int) -> None:
            """Quarantine: the task poisoned its workers; run it here."""
            record = report.tasks[index]
            record.fallback = True
            try:
                results[index] = self.fn(tasks[index])
            except BaseException as exc:  # noqa: BLE001 - application error
                errors[index] = exc
            settle(index)

        def on_failure(index: int, reason: str, attempt: _Attempt) -> None:
            self._release(attempt.worker, kill=True)
            record = report.tasks[index]
            record.failures.append(reason)
            if record.retries < config.max_retries:
                delay = config.backoff_base_s * 2 ** (record.attempts - 1)
                pending.append((time.monotonic() + delay, index, True))
            else:
                run_fallback(index)

        previous_handlers = self._install_signal_handlers()
        try:
            while len(results) + len(errors) < len(tasks):
                now = time.monotonic()
                if deadline is not None and budget_reason is None:
                    budget_reason = deadline.reason()
                if budget_reason is not None:
                    if local is None:
                        # The budget IS the bound: no drain grace — kill
                        # in-flight attempts (finally block) and report
                        # what settled.
                        break
                elif self._shutdown.is_set():
                    # Drain: no new dispatches; give in-flight tasks one
                    # bounded grace window, then stop.
                    if drain_deadline is None:
                        drain_deadline = now + config.drain_grace_s
                    if local is None and (not running or now >= drain_deadline):
                        break
                else:
                    # Dispatch ready pending tasks into free worker slots.
                    while pending and len(running) < config.max_workers:
                        ready = [p for p in pending if p[0] <= now]
                        if not ready:
                            break
                        entry = min(ready)
                        pending.remove(entry)
                        _not_before, index, fresh = entry
                        report.tasks[index].attempts += 1
                        attempt = self._dispatch(ctx, tasks[index], fresh)
                        first_dispatch.setdefault(index, attempt.started)
                        running[index] = attempt
                if local is not None:
                    report.tasks[0].attempts = 1
                    first_dispatch[0] = time.monotonic()
                    results[0] = local()
                    local = None
                    settle(0)
                    continue

                progressed = False
                for index in list(running):
                    attempt = running[index]
                    outcome = self._poll(attempt, now, config)
                    if outcome is None:
                        continue
                    progressed = True
                    kind, value = outcome
                    del running[index]
                    if kind == "failed":
                        on_failure(index, value, attempt)
                        continue
                    # The worker answered and is healthy: keep it warm.
                    self._idle.append(attempt.worker)
                    if kind == "ok":
                        results[index] = value
                    else:
                        errors[index] = value
                    settle(index)

                if errors:
                    lowest = min(errors)
                    if all(
                        i in results or i in errors for i in range(lowest)
                    ):
                        # Everything that could preempt this error has
                        # settled: cancel the rest and raise it.
                        break
                if not progressed:
                    self._wait(running, pending, config)
        finally:
            for attempt in running.values():
                self._release(attempt.worker, kill=True)
            running.clear()
            if not self.persistent:
                self.close()
            report.wall_time_s = time.monotonic() - began
            self._restore_signal_handlers(previous_handlers)

        if budget_reason is not None and len(results) + len(errors) < len(tasks):
            for record in report.tasks:
                if record.index not in results and record.index not in errors:
                    record.failures.append(f"cancelled: {budget_reason}")
            raise TimeBudgetExceeded(budget_reason, results=results, report=report)
        if self._shutdown.is_set() and len(results) + len(errors) < len(tasks):
            for record in report.tasks:
                if record.index not in results and record.index not in errors:
                    record.failures.append(f"cancelled: {self._shutdown_reason}")
            raise PoolShutdown(self._shutdown_reason, results=results, report=report)
        if errors:
            raise errors[min(errors)]
        return [results[i] for i in range(len(tasks))], report
