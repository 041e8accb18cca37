"""Persistent-pool lifecycle: warm reuse, graceful shutdown, signals."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import PoolShutdown, TimeBudgetExceeded
from repro.resilience.deadline import Deadline
from repro.resilience.pool import PoolConfig, SupervisedPool


def _worker_pid(task):
    return os.getpid()


def _sleep_then_echo(task):
    time.sleep(task)
    return task


class TestPersistentReuse:
    def test_workers_stay_warm_across_runs(self):
        pool = SupervisedPool(
            _worker_pid, PoolConfig(max_workers=2),
            persistent=True,
        )
        try:
            first, report1 = pool.run([0, 1, 2, 3])
            second, report2 = pool.run([0, 1, 2, 3])
            assert report1.clean and report2.clean
            # The second run reused (at least one of) the first run's
            # worker processes instead of respawning.
            assert set(first) & set(second)
        finally:
            pool.close()

    def test_non_persistent_pool_respawns(self):
        config = PoolConfig(max_workers=1)
        first, _ = SupervisedPool(_worker_pid, config).run([0])
        second, _ = SupervisedPool(_worker_pid, config).run([0])
        assert set(first) != set(second)

    def test_close_reaps_idle_workers(self):
        pool = SupervisedPool(
            _worker_pid, PoolConfig(max_workers=2),
            persistent=True,
        )
        pids, _ = pool.run([0, 1])
        assert pool._idle  # warm workers parked
        pool.close()
        assert not pool._idle
        deadline = time.monotonic() + 10
        for pid in set(pids):
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} still alive after close()")

    def test_close_is_idempotent_and_pool_reusable_before_close(self):
        pool = SupervisedPool(
            _worker_pid, PoolConfig(max_workers=1),
            persistent=True,
        )
        pool.run([0])
        pool.close()
        pool.close()
        # A closed (but not shut down) pool can still run; it just spawns anew.
        results, _ = pool.run([0])
        assert len(results) == 1
        pool.close()


class TestGracefulShutdown:
    def test_shutdown_mid_run_raises_with_partial_results(self):
        pool = SupervisedPool(
            _sleep_then_echo,
            PoolConfig(max_workers=1, drain_grace_s=0.2),
            persistent=True,
        )
        timer = threading.Timer(0.5, pool.request_shutdown, args=("test stop",))
        timer.start()
        try:
            with pytest.raises(PoolShutdown) as excinfo:
                pool.run([0.01, 30.0])
            shutdown = excinfo.value
            assert shutdown.reason == "test stop"
            assert shutdown.results.get(0) == 0.01
            assert 1 not in shutdown.results
            cancelled = shutdown.report.tasks[1].failures
            assert any("cancelled: test stop" in msg for msg in cancelled)
        finally:
            timer.cancel()
            pool.close()

    def test_shutdown_request_is_sticky(self):
        pool = SupervisedPool(
            _sleep_then_echo,
            PoolConfig(max_workers=1, drain_grace_s=0.1),
        )
        pool.request_shutdown("pre-emptive")
        with pytest.raises(PoolShutdown) as excinfo:
            pool.run([0.01])
        assert excinfo.value.reason == "pre-emptive"
        assert excinfo.value.results == {}

    def test_completed_run_does_not_raise_after_late_request(self):
        pool = SupervisedPool(
            _sleep_then_echo, PoolConfig(max_workers=1)
        )
        results, report = pool.run([0.0])
        pool.request_shutdown("after the fact")
        assert results == [0.0]
        assert report.clean

    def test_shutdown_reaps_inflight_workers(self):
        pool = SupervisedPool(
            _sleep_then_echo,
            PoolConfig(max_workers=2, drain_grace_s=0.1),
        )
        timer = threading.Timer(0.3, pool.request_shutdown)
        timer.start()
        try:
            with pytest.raises(PoolShutdown):
                pool.run([30.0, 30.0])
        finally:
            timer.cancel()
        # No orphans: multiprocessing's live-children registry is empty.
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()


def _hang_recording_pid(pid):
    pid.value = os.getpid()
    time.sleep(60)


def _run_inner_pool(pid):
    """A task with a pool of its own, as a service job worker has for a
    ``jobs=N`` analysis."""
    inner = SupervisedPool(_hang_recording_pid, PoolConfig(max_workers=1))
    inner.run([pid])


def _alive(pid):
    """*pid* runs; a zombie its new parent has not reaped yet counts as gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestNestedPools:
    def test_a_workers_own_workers_die_with_it(self):
        grandchild = multiprocessing.RawValue("i", 0)
        deadline = Deadline()
        pool = SupervisedPool(_run_inner_pool, PoolConfig(max_workers=1))
        outcome = {}

        def run():
            try:
                pool.run([grandchild], deadline=deadline)
            except TimeBudgetExceeded as exc:
                outcome["cut"] = exc.reason
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                outcome["error"] = repr(exc)

        runner = threading.Thread(target=run)
        runner.start()
        give_up = time.monotonic() + 30
        while not grandchild.value and runner.is_alive() and time.monotonic() < give_up:
            time.sleep(0.01)
        assert grandchild.value, f"the worker could not run a pool of its own: {outcome}"
        deadline.cancel("cut by the test")  # the pool SIGKILLs its worker
        runner.join(timeout=10)
        assert outcome == {"cut": "cut by the test"}
        give_up = time.monotonic() + 5
        while _alive(grandchild.value) and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not _alive(grandchild.value), "the killed worker's own worker outlived it"


class TestSignalHandling:
    def test_sigterm_drains_and_raises_pool_shutdown(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys, time
            from repro.errors import PoolShutdown
            from repro.resilience.pool import PoolConfig, SupervisedPool
            from tests.test_pool_lifecycle import _sleep_then_echo

            pool = SupervisedPool(
                _sleep_then_echo,
                PoolConfig(max_workers=1, drain_grace_s=0.2),
            )
            print("READY", flush=True)
            try:
                pool.run([60.0])
            except PoolShutdown as exc:
                print(f"SHUTDOWN {exc.reason}", flush=True)
                sys.exit(3)
            sys.exit(0)
            """
        )
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(0.5)  # let the task dispatch
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 3
        assert "SHUTDOWN signal 15 (SIGTERM)" in out
