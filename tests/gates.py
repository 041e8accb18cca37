"""Shared flags for ``execute_job`` stand-ins in the service tests.

A service job runs in a worker process forked from the test, so a gate
must be shared memory the fork inherits.  The service may also kill that
worker (a cancel, a blown deadline, a shutdown, a test's SIGKILL), and a
``multiprocessing.Event`` whose waiter dies leaves its condition waiting
for that waiter forever, so a flag here is one shared byte, polled.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Optional


class Flag:
    """A kill-safe stand-in for ``threading.Event`` across a fork."""

    def __init__(self) -> None:
        self._value = multiprocessing.RawValue("b", 0)

    def set(self) -> None:
        self._value.value = 1

    def clear(self) -> None:
        self._value.value = 0

    def is_set(self) -> bool:
        return bool(self._value.value)

    def wait(self, timeout: Optional[float] = None) -> bool:
        give_up = None if timeout is None else time.monotonic() + timeout
        while not self._value.value:
            if give_up is not None and time.monotonic() >= give_up:
                return False
            time.sleep(0.005)
        return True


class Counter:
    """Calls counted across workers; bumped before a stand-in blocks, so a
    kill never lands while its lock is held."""

    def __init__(self) -> None:
        self._value = multiprocessing.Value("i", 0)

    def add(self) -> None:
        with self._value.get_lock():
            self._value.value += 1

    @property
    def value(self) -> int:
        return self._value.value
