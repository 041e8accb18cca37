"""The supervised worker pool: crash/hang recovery, retry, and fallback.

Chaos hooks run *inside* the worker process before the task function —
they are module-level (with :func:`functools.partial` for state) so they
survive the process boundary.  Cross-process "fail only once" state lives
in marker files created with ``O_EXCL`` so concurrent workers cannot both
claim the first-victim slot.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.analysis.parallel import analyze_shard
from repro.api import AnalysisRequest, analyze, verify_archives
from repro.apps.imbalance import make_imbalance_app
from repro.errors import PartialTraceWarning, PoolShutdown
from repro.faults import FaultPlan, TraceCorruption
from repro.resilience import ExecutionReport, PoolConfig, SupervisedPool
from repro.topology.presets import uniform_metacomputer

from tests.conftest import run_app
from tests.test_parallel_analysis import assert_identical

# -- worker-side task functions and chaos hooks (must be module-level) ---------


def _square(x):
    return x * x


def _boom_on_two(x):
    if x == 2:
        raise ValueError("task 2 is broken")
    return x * x


def _kill_self(task):
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_once(marker_dir, task):
    """SIGKILL the worker the first time it sees each task value."""
    marker = os.path.join(marker_dir, f"killed-{task}")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_first(marker_dir, task):
    """SIGKILL exactly one worker across the whole run, whatever its task."""
    marker = os.path.join(marker_dir, "killed")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _hang(task):
    time.sleep(120.0)


def _sigstop_self(task):
    os.kill(os.getpid(), signal.SIGSTOP)


def _sigstop_first(marker_dir, task):
    """SIGSTOP exactly one worker across the whole run, whatever its task."""
    marker = os.path.join(marker_dir, "stopped")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGSTOP)


class _SlowToSend:
    """A task whose pickling — the parent's blocking ``send`` — takes 0.15 s."""

    def __reduce__(self):
        time.sleep(0.15)
        return (_SlowToSend, ())


def _zero(task):
    return 0


class _CountsItsPickling:
    """A task that counts, in the process that pickles it, its picklings."""

    pickled = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        type(self).pickled += 1
        return (_CountsItsPickling, (self.value,))


def _value_of(task):
    return task.value


def _square_shortly(x):
    time.sleep(0.05)  # not done yet when the dispatching pass polls it
    return x * x


def _fast_config(**overrides) -> PoolConfig:
    defaults = dict(
        max_workers=2,
        timeout_s=30.0,
        max_retries=2,
        backoff_base_s=0.01,
        poll_interval_s=0.01,
        heartbeat_interval_s=0.05,
        heartbeat_grace_s=10.0,
    )
    defaults.update(overrides)
    return PoolConfig(**defaults)


# -- pure pool behaviour -------------------------------------------------------


class TestCleanRuns:
    def test_map_in_task_order(self):
        pool = SupervisedPool(_square, _fast_config(max_workers=3))
        results, report = pool.run([3, 1, 4, 1, 5])
        assert results == [9, 1, 16, 1, 25]
        assert report.clean
        assert report.attempts == 5
        assert report.retries == 0
        assert report.fallbacks == 0
        assert all(t.wall_time_s >= 0.0 for t in report.tasks)

    def test_empty_task_list(self):
        results, report = SupervisedPool(_square, _fast_config()).run([])
        assert results == []
        assert report.clean
        assert report.tasks == []

    def test_summary_mentions_counts(self):
        _results, report = SupervisedPool(_square, _fast_config()).run([1, 2])
        text = report.summary()
        assert "2 task(s)" in text
        assert "2 attempt(s)" in text
        assert "0 serial fallback(s)" in text


class TestTaskTransport:
    def test_the_supervisors_own_task_is_task_zero(self):
        pool = SupervisedPool(_square, _fast_config(max_workers=3))
        results, report = pool.run([2, 3], local=lambda: "here")
        assert results == ["here", 4, 9]
        assert [task.index for task in report.tasks] == [0, 1, 2]
        assert [task.attempts for task in report.tasks] == [1, 1, 1]
        assert report.workers == 2 and report.clean

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="a task handed over at fork is what the test counts",
    )
    def test_a_spawned_worker_gets_its_task_at_fork(self, monkeypatch):
        """A worker spawned for a task is handed it as its process argument —
        under fork, never pickled — and a warm worker's task crosses its pipe."""
        monkeypatch.setattr(_CountsItsPickling, "pickled", 0)
        with SupervisedPool(_value_of, _fast_config(), persistent=True) as pool:
            cold, _ = pool.run([_CountsItsPickling(1), _CountsItsPickling(2)])
            assert cold == [1, 2] and _CountsItsPickling.pickled == 0
            warm, _ = pool.run([_CountsItsPickling(3), _CountsItsPickling(4)])
            assert warm == [3, 4] and _CountsItsPickling.pickled == 2


class TestApplicationErrors:
    def test_lowest_index_error_is_raised(self):
        pool = SupervisedPool(_boom_on_two, _fast_config(max_workers=2))
        with pytest.raises(ValueError, match="task 2 is broken"):
            pool.run([0, 1, 2, 3])

    def test_error_not_retried(self):
        pool = SupervisedPool(_boom_on_two, _fast_config(max_workers=1))
        try:
            pool.run([2])
        except ValueError:
            pass
        # An application error is the task's answer, not an infrastructure
        # failure: exactly one dispatch, no retry, no fallback.


class TestCrashRecovery:
    def test_sigkill_once_recovers_by_retry(self, tmp_path):
        hook = functools.partial(_kill_once, str(tmp_path))
        pool = SupervisedPool(_square, _fast_config(chaos_hook=hook))
        results, report = pool.run([2, 3, 4])
        assert results == [4, 9, 16]
        assert not report.clean
        assert report.retries == 3  # every task's first worker was shot
        assert report.fallbacks == 0
        for task in report.tasks:
            assert task.attempts == 2
            assert len(task.failures) == 1
            assert "died" in task.failures[0]
            assert "signal 9" in task.failures[0]

    def test_poisoned_task_falls_back_to_serial(self):
        # Every worker dies, so after max_retries the supervisor must run
        # the task in-process — and still produce the right answer.
        pool = SupervisedPool(
            _square, _fast_config(max_retries=1, chaos_hook=_kill_self)
        )
        results, report = pool.run([7])
        assert results == [49]
        task = report.tasks[0]
        assert task.fallback
        assert task.attempts == 2  # dispatches only; the fallback is local
        assert len(task.failures) == 2
        assert report.fallbacks == 1


class TestHangRecovery:
    def test_deadline_kills_hung_worker(self):
        # The silent-hang regression: a worker that never returns must not
        # stall the pool.  With retries exhausted by more hanging, the
        # fallback answers — well inside a bound far below the hang time.
        began = time.monotonic()
        pool = SupervisedPool(
            _square,
            _fast_config(max_retries=0, timeout_s=0.4, chaos_hook=_hang),
        )
        results, report = pool.run([6])
        elapsed = time.monotonic() - began
        assert results == [36]
        assert elapsed < 30.0
        task = report.tasks[0]
        assert task.fallback
        assert any("deadline" in f for f in task.failures)

    def test_stale_heartbeat_detected_before_deadline(self):
        # SIGSTOP leaves the process alive but silent: only the heartbeat
        # notices.  The deadline is set far out so the test proves the
        # heartbeat path, not the deadline path.
        pool = SupervisedPool(
            _square,
            _fast_config(
                max_retries=0,
                timeout_s=60.0,
                heartbeat_interval_s=0.05,
                heartbeat_grace_s=0.3,
                chaos_hook=_sigstop_self,
            ),
        )
        began = time.monotonic()
        results, report = pool.run([5])
        elapsed = time.monotonic() - began
        assert results == [25]
        assert elapsed < 30.0
        assert any("heartbeat" in f for f in report.tasks[0].failures)


class TestSupervisorWaitsOnItsWorkers:
    """``poll_interval_s`` only bounds how late a deadline or heartbeat check
    can run.  With it at five seconds, anything below that is an event having
    woken the supervisor: a result, a worker's death, a shutdown request."""

    def test_results_are_seen_when_they_arrive(self):
        pool = SupervisedPool(_square_shortly, _fast_config(poll_interval_s=5.0))
        began = time.monotonic()
        results, report = pool.run([1, 2, 3, 4, 5, 6])
        assert time.monotonic() - began < 1.0
        assert results == [1, 4, 9, 16, 25, 36]
        assert report.clean

    def test_worker_death_is_seen_and_retried_at_once(self, tmp_path):
        hook = functools.partial(_kill_once, str(tmp_path))
        pool = SupervisedPool(
            _square, _fast_config(poll_interval_s=5.0, chaos_hook=hook)
        )
        began = time.monotonic()
        results, report = pool.run([2, 3])
        assert time.monotonic() - began < 1.0
        assert results == [4, 9]
        assert [task.attempts for task in report.tasks] == [2, 2]
        assert all("signal 9" in task.failures[0] for task in report.tasks)

    def test_shutdown_during_retry_backoff_is_honoured_at_once(self, tmp_path):
        # The only task's worker shoots itself; the retry is 30 s away, so
        # nothing is in flight and the supervisor waits on the shutdown event.
        hook = functools.partial(_kill_once, str(tmp_path))
        pool = SupervisedPool(
            _square,
            _fast_config(
                max_workers=1,
                poll_interval_s=5.0,
                backoff_base_s=30.0,
                chaos_hook=hook,
            ),
        )
        requested = []

        def stop_once_backing_off():
            while not os.path.exists(tmp_path / "killed-7"):
                time.sleep(0.01)
            time.sleep(0.2)  # the death has been noticed; the backoff runs
            requested.append(time.monotonic())
            pool.request_shutdown("stop during backoff")

        stopper = threading.Thread(target=stop_once_backing_off, daemon=True)
        stopper.start()
        with pytest.raises(PoolShutdown) as excinfo:
            pool.run([7])
        raised = time.monotonic()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert raised - requested[0] < 1.0
        assert excinfo.value.results == {}
        assert excinfo.value.report.tasks[0].attempts == 1

    def test_a_task_is_not_charged_its_predecessors_dispatch(self):
        """Each dispatch to a warm worker blocks the supervisor for 0.15 s
        (the send); task 2 is dispatched third, and its clock starts with its
        own send.  The pool is warmed first: a worker spawned for its task
        gets it at fork, unpickled, so only a warm worker's send is slow."""
        with SupervisedPool(_zero, _fast_config(max_workers=3), persistent=True) as pool:
            pool.run([0, 0, 0])
            _results, report = pool.run([_SlowToSend(), _SlowToSend(), _SlowToSend()])
        assert report.clean
        assert 0.15 <= report.tasks[2].wall_time_s < 0.40


# -- recovery inside the parallel analyzer ------------------------------------


def _small_run(fault_plan=None, seed=5):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    work = {r: 0.005 * (1 + r % 3) for r in range(8)}
    return run_app(
        mc, 8, make_imbalance_app(work, iterations=3), seed=seed,
        fault_plan=fault_plan,
    )


class TestAnalyzerChaos:
    def test_worker_killed_mid_analysis_recovers(self, tmp_path):
        """The silent-hang satellite: SIGKILL one analysis worker and the
        analyzer must still deliver — bit-identical to serial — within the
        supervision deadline, with the recovery on the record."""
        run = _small_run()
        serial = analyze(run)
        pool = SupervisedPool(analyze_shard, _fast_config(
            max_workers=4,
            chaos_hook=functools.partial(_kill_first, str(tmp_path)),
        ))
        began = time.monotonic()
        recovered = analyze(run, AnalysisRequest(jobs=4), pool=pool)
        assert time.monotonic() - began < 60.0
        assert not multiprocessing.active_children()
        assert_identical(serial, recovered)
        report = recovered.execution
        assert isinstance(report, ExecutionReport)
        assert report.retries >= 1
        assert any("signal 9" in failure for failure in report.failures)

    def test_chaos_acceptance_kill_plus_corruption(self, tmp_path):
        """The issue's chaos criterion: a SIGKILLed worker *and* a corrupted
        archive block in the same jobs=4 analysis — completes via retry,
        matches the serial degraded result, and the ExecutionReport shows
        the recovery."""
        plan = FaultPlan(
            name="bitrot",
            seed=3,
            specs=(TraceCorruption(rank=3, at_fraction=0.5, length=8),),
        )
        run = _small_run(fault_plan=plan, seed=3)
        assert not verify_archives(run).ok, "injected corruption went undetected"
        with pytest.warns(PartialTraceWarning, match="rank 3 excluded"):
            serial = analyze(run, AnalysisRequest(degraded=True))
        pool = SupervisedPool(analyze_shard, _fast_config(
            max_workers=4,
            chaos_hook=functools.partial(_kill_first, str(tmp_path)),
        ))
        with pytest.warns(PartialTraceWarning, match="rank 3 excluded"):
            recovered = analyze(run, AnalysisRequest(degraded=True, jobs=4), pool=pool)
        assert_identical(serial, recovered)
        assert recovered.execution is not None
        assert not recovered.execution.clean
        assert recovered.execution.retries >= 1

    def test_sigstopped_worker_during_degraded_analysis(self, tmp_path):
        """A SIGSTOPped (wedged, not dead) worker during a *degraded-mode*
        parallel analysis: the heartbeat detects the stall, the retry
        redoes the shard, and the result still matches the serial degraded
        run bit for bit."""
        plan = FaultPlan(
            name="bitrot",
            seed=3,
            specs=(TraceCorruption(rank=3, at_fraction=0.5, length=8),),
        )
        run = _small_run(fault_plan=plan, seed=3)
        with pytest.warns(PartialTraceWarning, match="rank 3 excluded"):
            serial = analyze(run, AnalysisRequest(degraded=True))
        pool = SupervisedPool(analyze_shard, _fast_config(
            max_workers=4,
            timeout_s=60.0,
            heartbeat_interval_s=0.05,
            heartbeat_grace_s=0.3,
            chaos_hook=functools.partial(_sigstop_first, str(tmp_path)),
        ))
        began = time.monotonic()
        with pytest.warns(PartialTraceWarning, match="rank 3 excluded"):
            recovered = analyze(run, AnalysisRequest(degraded=True, jobs=4), pool=pool)
        assert time.monotonic() - began < 60.0
        assert_identical(serial, recovered)
        assert recovered.execution is not None
        assert not recovered.execution.clean
        assert any("heartbeat" in f for f in recovered.execution.failures)

    def test_clean_parallel_run_reports_clean_execution(self):
        run = _small_run()
        result = analyze(run, AnalysisRequest(jobs=4))
        assert result.execution is not None
        assert result.execution.clean
        assert result.execution.retries == 0
        assert result.execution.fallbacks == 0

    def test_serial_run_has_no_execution_report(self):
        run = _small_run()
        assert analyze(run).execution is None

    def test_timeout_and_retries_reach_the_pool(self):
        run = _small_run()
        result = analyze(run, AnalysisRequest(jobs=2, timeout=123.0, max_retries=5))
        assert result.execution is not None
        assert result.execution.clean
