"""Single-writer discipline of the checkpoint journal (advisory fcntl lock)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.errors import CheckpointLockError
from repro.resilience.checkpoint import CheckpointJournal


class TestExclusiveOpen:
    def test_second_exclusive_writer_fails_fast(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path, exclusive=True):
            with pytest.raises(CheckpointLockError) as excinfo:
                CheckpointJournal(path, exclusive=True)
            assert excinfo.value.path == path
            assert excinfo.value.holder == str(os.getpid())
            assert "already has a writer" in str(excinfo.value)

    def test_close_releases_the_lock(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = CheckpointJournal(path, exclusive=True)
        first.close()
        with CheckpointJournal(path, exclusive=True) as second:
            assert second.get({"a": 1}) is None

    def test_close_is_idempotent(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"), exclusive=True)
        journal.close()
        journal.close()


class TestLazyLock:
    def test_two_lazy_journals_can_open(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        a = CheckpointJournal(path)
        b = CheckpointJournal(path)
        a.close()
        b.close()

    def test_second_writer_fails_on_first_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as a, CheckpointJournal(path) as b:
            a.record({"cell": 1}, "one")
            with pytest.raises(CheckpointLockError):
                b.record({"cell": 2}, "two")
            # The store was not corrupted by the failed writer.
            assert a.get({"cell": 1}) == "one"

    def test_pure_readers_never_lock(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path, exclusive=True) as writer:
            writer.record({"cell": 1}, "one")
            reader = CheckpointJournal(path)
            assert reader.get({"cell": 1}) == "one"
            assert len(reader.cells()) == 1
            reader.close()

    def test_writer_can_reacquire_after_contender_closes(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        a = CheckpointJournal(path, exclusive=True)
        a.record({"cell": 1}, "one")
        a.close()
        with CheckpointJournal(path) as b:
            b.record({"cell": 2}, "two")
            assert b.get({"cell": 1}) == "one"


class TestCrossProcess:
    def test_contention_against_another_process(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        script = textwrap.dedent(
            """
            import os, sys, time
            from repro.resilience.checkpoint import CheckpointJournal
            journal = CheckpointJournal(sys.argv[1], exclusive=True)
            print(os.getpid(), flush=True)
            time.sleep(30)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", script, path],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            holder_pid = holder.stdout.readline().strip()
            assert holder_pid
            with pytest.raises(CheckpointLockError) as excinfo:
                CheckpointJournal(path, exclusive=True)
            assert excinfo.value.holder == holder_pid
        finally:
            holder.kill()
            holder.wait(timeout=10)
        # The dead holder's lock is released by the kernel: we can write now.
        with CheckpointJournal(path, exclusive=True) as journal:
            journal.record({"cell": 1}, "one")

    def test_a_forked_worker_does_not_keep_a_dead_writers_lock(self, tmp_path):
        """A worker forked from the writer (a service job worker) shares the
        lock's open file description; it must not hold the lock once the
        writer is gone, or a restarted writer would be refused."""
        path = str(tmp_path / "j.jsonl")
        script = textwrap.dedent(
            """
            import multiprocessing, os, sys, time
            from repro.resilience.checkpoint import CheckpointJournal

            def nap(ready):
                ready.set()
                time.sleep(30)

            journal = CheckpointJournal(sys.argv[1], exclusive=True)
            ready = multiprocessing.Event()
            worker = multiprocessing.Process(target=nap, args=(ready,), daemon=True)
            worker.start()
            ready.wait(10)
            print(worker.pid, flush=True)
            time.sleep(30)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", script, path], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            worker_pid = int(holder.stdout.readline())
        finally:
            holder.kill()
            holder.wait(timeout=10)
        try:
            os.kill(worker_pid, 0)  # the worker outlives the writer ...
            with CheckpointJournal(path, exclusive=True) as journal:  # ... not its lock
                journal.record({"cell": 1}, "one")
        finally:
            os.kill(worker_pid, signal.SIGKILL)
