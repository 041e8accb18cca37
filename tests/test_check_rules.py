"""Rule-family fixtures for :mod:`repro.check` — positive and negative.

Every rule id gets at least one snippet that must trigger it and one
near-miss that must not: the near-misses are what keep the checker
useful (a linter that cries wolf gets baselined into silence).  Snippets
run through :func:`repro.check.engine.check_source`, the same pipeline
``repro check`` uses, with the ``rel_file`` path choosing the package
whose rules apply.
"""

from __future__ import annotations

import ast
import textwrap

from repro.check import check_source
from repro.check.api_drift import check_api_surface, check_deprecations
from repro.check.visitors import Module, import_table, resolve


def rules_of(source, rel_file):
    return [f.rule for f in check_source(textwrap.dedent(source), rel_file)]


def module_of(source, rel_file):
    src = textwrap.dedent(source)
    return Module(file=rel_file, tree=ast.parse(src), lines=src.splitlines())


class TestDET101Unseeded:
    def test_unseeded_default_rng_flagged(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert rules_of(src, "repro/sim/fx.py") == ["DET101"]

    def test_seeded_default_rng_clean(self):
        src = """
        import numpy as np
        def make(seed):
            return np.random.default_rng(seed)
        """
        assert rules_of(src, "repro/sim/fx.py") == []

    def test_legacy_global_distributions_flagged(self):
        src = """
        import numpy as np
        x = np.random.rand(3)
        """
        assert rules_of(src, "repro/analysis/fx.py") == ["DET101"]

    def test_stdlib_random_flagged_even_outside_result_packages(self):
        src = """
        import random
        jitter = random.random()
        """
        assert rules_of(src, "repro/service/fx.py") == ["DET101"]

    def test_import_alias_resolution(self):
        # The rule matches meaning, not spelling.
        src = """
        from numpy.random import default_rng as make_rng
        rng = make_rng()
        """
        assert rules_of(src, "repro/sim/fx.py") == ["DET101"]


class TestDET102ClocksInResultPackages:
    def test_time_time_flagged(self):
        src = """
        import time
        stamp = time.time()
        """
        assert rules_of(src, "repro/analysis/fx.py") == ["DET102"]

    def test_monotonic_flagged_too(self):
        # Result packages may not read ANY clock, interval or wall.
        src = """
        import time
        t0 = time.monotonic()
        """
        assert rules_of(src, "repro/trace/fx.py") == ["DET102"]

    def test_wallclock_helper_also_banned_in_result_packages(self):
        src = """
        from repro.wallclock import wallclock
        now = wallclock()
        """
        assert rules_of(src, "repro/report/fx.py") == ["DET102"]

    def test_datetime_now_flagged(self):
        src = """
        import datetime
        when = datetime.datetime.now()
        """
        assert rules_of(src, "repro/sim/fx.py") == ["DET102"]


class TestDET103WallclockRouting:
    def test_direct_wall_clock_in_service_flagged(self):
        src = """
        import time
        started = time.time()
        """
        assert rules_of(src, "repro/service/fx.py") == ["DET103"]

    def test_monotonic_in_service_clean(self):
        # Interval measurement is not wall-clock.
        src = """
        import time
        t0 = time.monotonic()
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_wallclock_helper_clean(self):
        src = """
        from repro.wallclock import wallclock
        started = wallclock()
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_wallclock_module_itself_exempt(self):
        src = """
        import time
        def wallclock():
            return time.time()
        """
        assert rules_of(src, "repro/wallclock.py") == []


class TestDET104OrderUnstableIteration:
    def test_set_literal_iteration_flagged(self):
        src = """
        def f(xs):
            for x in {repr(v) for v in xs}:
                yield x
        """
        assert rules_of(src, "repro/report/fx.py") == ["DET104"]

    def test_set_union_iteration_flagged(self):
        src = """
        def f(a, b):
            for key in set(a) | set(b):
                yield key
        """
        assert rules_of(src, "repro/report/fx.py") == ["DET104"]

    def test_sorted_wrapper_clean(self):
        src = """
        def f(a, b):
            for key in sorted(set(a) | set(b)):
                yield key
        """
        assert rules_of(src, "repro/report/fx.py") == []

    def test_set_bound_name_tracked(self):
        src = """
        def f(xs):
            pending = set(xs)
            for x in pending:
                yield x
        """
        assert rules_of(src, "repro/analysis/fx.py") == ["DET104"]

    def test_listdir_iteration_flagged(self):
        src = """
        import os
        def f(path):
            return [n for n in os.listdir(path)]
        """
        assert rules_of(src, "repro/trace/fx.py") == ["DET104"]

    def test_outside_result_packages_clean(self):
        src = """
        def f(xs):
            for x in set(xs):
                yield x
        """
        assert rules_of(src, "repro/service/fx.py") == []


class TestATM2Atomicity:
    def test_bare_write_open_in_durable_package_flagged(self):
        src = """
        def save(path, data):
            with open(path, "w") as handle:
                handle.write(data)
        """
        assert rules_of(src, "repro/trace/fx.py") == ["ATM201"]

    def test_read_open_clean(self):
        src = """
        def load(path):
            with open(path, "r") as handle:
                return handle.read()
        """
        assert rules_of(src, "repro/trace/fx.py") == []

    def test_mode_keyword_matched(self):
        src = """
        def save(path, data):
            with open(path, mode="wb") as handle:
                handle.write(data)
        """
        assert rules_of(src, "repro/fs/fx.py") == ["ATM201"]

    def test_fdopen_atomic_idiom_clean(self):
        src = """
        import os
        import tempfile
        def save(path, data):
            fd, tmp = tempfile.mkstemp(dir=".")
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_write_open_outside_durable_packages_clean(self):
        src = """
        def save(path, data):
            with open(path, "w") as handle:
                handle.write(data)
        """
        assert rules_of(src, "repro/report/fx.py") == []

    def test_os_open_for_append_flagged(self):
        src = """
        import os
        def append(path, line):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            os.write(fd, line)
            os.close(fd)
        """
        findings = check_source(textwrap.dedent(src), "repro/resilience/fx.py")
        assert [f.rule for f in findings] == ["ATM201"]
        assert "os.open(..., O_WRONLY|O_APPEND)" in findings[0].message

    def test_os_open_flags_resolve_through_imports(self):
        src = """
        from os import O_TRUNC, O_RDWR, open as os_open
        def clobber(path):
            return os_open(path, flags=O_RDWR | O_TRUNC)
        """
        assert rules_of(src, "repro/service/fx.py") == ["ATM201"]

    def test_os_open_without_write_flags_clean(self):
        src = """
        import os
        def lock(path, directory):
            os.open(path, os.O_CREAT | os.O_RDWR, 0o644)  # advisory lock sidecar
            os.open(directory, os.O_RDONLY)  # directory fsync
            os.open(path)
        """
        assert rules_of(src, "repro/resilience/fx.py") == []

    def test_os_open_outside_durable_packages_clean(self):
        src = """
        import os
        def silence():
            return os.open(os.devnull, os.O_WRONLY)
        """
        assert rules_of(src, "repro/chaos/fx.py") == []

    def test_os_rename_flagged_everywhere(self):
        src = """
        import os
        def move(a, b):
            os.rename(a, b)
        """
        assert rules_of(src, "repro/report/fx.py") == ["ATM202"]


class TestCON301LockOrder:
    def test_opposite_nesting_is_a_cycle(self):
        src = """
        import threading
        A = threading.Lock()
        B = threading.Lock()
        def f():
            with A:
                with B:
                    pass
        def g():
            with B:
                with A:
                    pass
        """
        assert rules_of(src, "repro/service/fx.py") == ["CON301"]

    def test_consistent_nesting_clean(self):
        src = """
        import threading
        A = threading.Lock()
        B = threading.Lock()
        def f():
            with A:
                with B:
                    pass
        def g():
            with A:
                with B:
                    pass
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_condition_aliases_its_wrapped_lock(self):
        # Condition(self._lock) is the same resource as self._lock —
        # nesting them must not read as a two-lock edge.
        src = """
        import threading
        class S:
            def __init__(self):
                self._lock = threading.RLock()
                self._cv = threading.Condition(self._lock)
            def kick(self):
                with self._lock:
                    with self._cv:
                        self._cv.wait(0.1)
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_acquire_release_pairs_tracked(self):
        src = """
        import threading
        A = threading.Lock()
        B = threading.Lock()
        def f():
            A.acquire()
            with B:
                pass
            A.release()
        def g():
            with B:
                A.acquire()
                A.release()
        """
        assert rules_of(src, "repro/service/fx.py") == ["CON301"]


class TestCON302BlockingUnderLock:
    def test_untimed_get_under_lock_flagged(self):
        src = """
        import queue
        import threading
        lock = threading.Lock()
        q = queue.Queue()
        def f():
            with lock:
                return q.get()
        """
        assert rules_of(src, "repro/service/fx.py") == ["CON302"]

    def test_timed_get_under_lock_clean(self):
        src = """
        import queue
        import threading
        lock = threading.Lock()
        q = queue.Queue()
        def f():
            with lock:
                return q.get(timeout=1.0)
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_nested_def_not_under_outer_lock(self):
        # A function *defined* under a with-block does not run there.
        src = """
        import threading
        lock = threading.Lock()
        def f(q):
            with lock:
                def later():
                    return q.get()
                return later
        """
        assert rules_of(src, "repro/service/fx.py") == ["CON303"]


class TestCON303UntimedBlocking:
    def test_untimed_recv_flagged(self):
        src = """
        def pump(conn):
            return conn.recv()
        """
        assert rules_of(src, "repro/resilience/fx.py") == ["CON303"]

    def test_timed_wait_clean(self):
        src = """
        import threading
        stop = threading.Event()
        def loop():
            while not stop.is_set():
                stop.wait(timeout=0.5)
        """
        assert rules_of(src, "repro/service/fx.py") == []

    def test_outside_concurrency_packages_not_checked(self):
        src = """
        def pump(conn):
            return conn.recv()
        """
        assert rules_of(src, "repro/report/fx.py") == []


class TestCON304ThreadDaemonStory:
    def test_thread_without_daemon_flagged(self):
        src = """
        import threading
        def start(fn):
            t = threading.Thread(target=fn)
            t.start()
            return t
        """
        assert rules_of(src, "repro/service/fx.py") == ["CON304"]

    def test_thread_with_daemon_clean(self):
        src = """
        import threading
        def start(fn):
            t = threading.Thread(target=fn, daemon=True)
            t.start()
            return t
        """
        assert rules_of(src, "repro/service/fx.py") == []


class TestAPI401Surface:
    SNAPSHOT = {"api_all": ["alpha", "beta"]}

    def test_matching_all_clean(self):
        module = module_of('__all__ = ["alpha", "beta"]', "repro/api.py")
        assert check_api_surface([module], self.SNAPSHOT) == []

    def test_missing_name_flagged(self):
        module = module_of('__all__ = ["alpha"]', "repro/api.py")
        findings = check_api_surface([module], self.SNAPSHOT)
        assert [f.rule for f in findings] == ["API401"]
        assert "beta" in findings[0].message

    def test_unregistered_name_flagged(self):
        module = module_of(
            '__all__ = ["alpha", "beta", "gamma"]', "repro/api.py"
        )
        findings = check_api_surface([module], self.SNAPSHOT)
        assert [f.rule for f in findings] == ["API401"]
        assert "gamma" in findings[0].message

    def test_absent_api_module_skipped(self):
        module = module_of("x = 1", "repro/sim/fx.py")
        assert check_api_surface([module], self.SNAPSHOT) == []


class TestAPI402Deprecations:
    SHIM = """
    import warnings
    def old(x):
        warnings.warn("old is deprecated", DeprecationWarning, stacklevel=2)
        return x
    """

    def entry(self, remove_by):
        return {
            "file": "repro/analysis/fx.py",
            "symbol": "old",
            "added_in": "1.0.0",
            "remove_by": remove_by,
            "reason": "test",
        }

    def test_registered_inside_window_clean(self):
        module = module_of(self.SHIM, "repro/analysis/fx.py")
        snapshot = {"deprecations": [self.entry("1.1.0")]}
        assert check_deprecations([module], snapshot, "1.0.0") == []

    def test_unregistered_shim_flagged(self):
        module = module_of(self.SHIM, "repro/analysis/fx.py")
        findings = check_deprecations([module], {"deprecations": []}, "1.0.0")
        assert [f.rule for f in findings] == ["API402"]
        assert "not registered" in findings[0].message

    def test_expired_window_flagged(self):
        module = module_of(self.SHIM, "repro/analysis/fx.py")
        snapshot = {"deprecations": [self.entry("1.0.0")]}
        findings = check_deprecations([module], snapshot, "1.0.0")
        assert [f.rule for f in findings] == ["API402"]
        assert "expired" in findings[0].message

    def test_stale_registry_entry_flagged(self):
        module = module_of("x = 1", "repro/analysis/fx.py")
        snapshot = {"deprecations": [self.entry("1.1.0")]}
        findings = check_deprecations([module], snapshot, "1.0.0")
        assert [f.rule for f in findings] == ["API402"]
        assert "stale" in findings[0].message


class TestImportResolution:
    def test_aliases_resolve_to_canonical_names(self):
        tree = ast.parse(
            "import numpy as np\n"
            "from time import time as now\n"
            "from repro.wallclock import wallclock\n"
        )
        imports = import_table(tree)
        call = ast.parse("np.random.default_rng").body[0].value
        assert resolve(call, imports) == "numpy.random.default_rng"
        name = ast.parse("now").body[0].value
        assert resolve(name, imports) == "time.time"
        name = ast.parse("wallclock").body[0].value
        assert resolve(name, imports) == "repro.wallclock.wallclock"
