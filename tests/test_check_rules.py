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
import os
import re
import subprocess
import textwrap
from collections import Counter
from dataclasses import replace

import pytest

from repro.check import RULES, check_source
from repro.check.api_drift import check_api_surface, check_deprecations
from repro.check.architecture import REMOVED, ROWS, SKIPPED, check_file
from repro.check.visitors import Module, import_table, resolve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    def test_relative_wallclock_import_flagged(self):
        # The relative spelling is the same import as the absolute one.
        src = """
        from ..wallclock import wallclock
        now = wallclock()
        """
        assert rules_of(src, "repro/analysis/fx.py") == ["DET102"]

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

    def test_relative_imports_resolve_against_the_package(self):
        tree = ast.parse(
            "from ..wallclock import wallclock\n"
            "from . import streaming as s\n"
            "from .optable import build_tables\n"
            "from .... import too_far\n"
        )
        imports = import_table(tree, "repro.analysis")
        assert imports == {
            "wallclock": "repro.wallclock.wallclock",
            "s": "repro.analysis.streaming",
            "build_tables": "repro.analysis.optable.build_tables",
        }

    def test_package_init_is_its_own_anchor(self):
        module = module_of("from . import streaming", "repro/analysis/__init__.py")
        assert module.dotted_package == "repro.analysis"
        assert module_of("x = 1", "repro/analysis/fx.py").dotted_package == "repro.analysis"


def arc_rules(source, path):
    """Rule ids *source* draws at repository *path*: a package module goes
    through ``check_source`` with its real ``rel_file``, any other file
    through ``check_file``."""
    if path.startswith("src/repro/") and path.endswith(".py"):
        return [f.rule for f in check_source(source, path[len("src/"):])]
    return [f.rule for f in check_file(path, source)]


#: A package init's lazy export table around *entries*.
_EXPORTS = (
    "from repro.exports import lazy_exports\n\n"
    "__all__, __getattr__, __dir__ = lazy_exports(__name__, {%s})\n"
)


class TestARCAliasBypasses:
    """Spellings the text guards let through: each is the same import or call."""

    @pytest.mark.parametrize(
        "source, path, rule",
        [
            ("from repro.analysis import ReplayAnalyzer\n", "src/repro/report/timeline.py",
             "ARC508"),
            ("from repro.analysis import streaming\n", "src/repro/analysis/parallel.py",
             "ARC507"),
            ("from . import streaming\n", "src/repro/analysis/parallel.py", "ARC507"),
            ("from gc import freeze\nfreeze()\n", "src/repro/sim/engine.py", "ARC501"),
            ("from time import sleep\nsleep(0.1)\n", "src/repro/resilience/pool.py", "ARC524"),
            ("from repro.analysis import MPIOpInstance\n", "src/repro/analysis/stats.py",
             "ARC508"),
            ("from .matching import SendRecord\n", "src/repro/analysis/instances.py", "ARC508"),
            (_EXPORTS % '"repro.analysis.replay": ("ReplayAnalyzer",)', "src/repro/report/__init__.py",
             "ARC508"),
            ("from importlib import import_module as load\nload('repro.analysis.replay')\n",
             "src/repro/report/render.py", "ARC526"),
            ("from repro.sim.engine import Engine\n", "src/repro/sim/mpi.py", "ARC528"),
            ("from . import world\n", "src/repro/sim/mpi.py", "ARC528"),
        ],
    )
    def test_alias_fires(self, source, path, rule):
        assert arc_rules(source, path) == [rule]

    @pytest.mark.parametrize(
        "source, path",
        [
            ("from repro.analysis import AnalysisResult\n", "src/repro/report/timeline.py"),
            ("from repro.analysis.optable import build_tables\n",
             "src/repro/analysis/parallel.py"),
            ("import gc\ngc.collect()\n", "src/repro/sim/engine.py"),
            ("import time\nt0 = time.monotonic()\n", "src/repro/resilience/pool.py"),
            ("from repro.analysis.instances import OpTable\n", "src/repro/analysis/stats.py"),
            ("def f(engine, t, proc):\n    engine.call_at(t, proc.step, proc)\n",
             "src/repro/sim/mpi.py"),
            (_EXPORTS % '"repro.analysis.result": ("AnalysisResult",)', "src/repro/report/__init__.py"),
            ("import importlib\nimportlib.import_module(name)\n", "src/repro/exports.py"),
            ("from repro.sim.process import SimProcess\n", "src/repro/sim/mpi.py"),
            ("from repro.sim.engine import Engine\n", "src/repro/sim/world.py"),
        ],
    )
    def test_near_miss_clean(self, source, path):
        assert arc_rules(source, path) == []


def _repository_files():
    """Tracked files by repository path (a walk where git is unavailable)."""
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True, timeout=60
        ).stdout.decode("utf-8")
        paths = [p for p in listing.split("\0") if p]
    except (OSError, subprocess.SubprocessError):
        paths = []
        for dirpath, dirnames, filenames in os.walk(ROOT):
            dirnames[:] = [
                d for d in dirnames
                if d in (".github", ".claude") or not (
                    d.startswith(".") or d in ("__pycache__", "build", "dist")
                    or d.endswith(".egg-info")
                )
            ]
            rel = os.path.relpath(dirpath, ROOT).replace(os.sep, "/")
            paths += [f if rel == "." else f"{rel}/{f}" for f in filenames]
    return sorted(p for p in paths if os.path.isfile(os.path.join(ROOT, p)))


FILES = _repository_files()
PY_FILES = sorted(
    (p for p in FILES if p.endswith(".py")), key=lambda p: (not p.startswith("src/repro/"), p)
)


def _planted(row):
    """The row's own pattern, one source per name it matches."""
    def split(name):
        head, _, last = name.rpartition(".")
        return head, last

    plant = {
        "text": lambda n: f"# {n}\n",
        "import": lambda n: "from %s import %s\n"
        % (split(n) if "." in n else ("repro.analysis", n)),
        "call": lambda n: (
            "from %s import %s as planted\nplanted()\n" % split(n) if "." in n else f"{n}()\n"
        ),
        "lambda": lambda n: f"def f(engine, t):\n    engine.{n}(t, lambda: None)\n",
        "param": lambda n: f"def {row.within}planted(request, {n}=None):\n    return request\n",
        "field": lambda n: f"class Planted:\n    {n}: float = 1.0\n",
        "flag": lambda n: f'parser.add_argument("{n}")\n',
        "words": lambda n: f"def {row.within}(args):\n    return args.{n}\n",
    }
    if row.kind == "loops":
        return ["while False:\n    pass\n" * (row.limit + 1)]
    return [plant[row.kind](name) for name in row.words()]


#: Every row by its id, and every retired id of a removed-name row as the row
#: that took its words, narrowed to just those words.
CASES = {row.rule: row for row in ROWS}
CASES.update(
    (old, replace(CASES[rule], names=words))
    for rule, groups in REMOVED.items()
    for old, words in groups.items()
    if old != rule
)


@pytest.mark.parametrize("row", CASES.values(), ids=CASES.keys())
def test_row_fires_on_its_path_only(row):
    """Plant the row's own pattern in a real module the row covers: its id
    fires.  Plant it in the first module the row does not cover (at worst one
    it skips): nothing does."""
    inside = next(p for p in PY_FILES if row.covers(p))
    outside = next(p for p in [*PY_FILES, *SKIPPED] if not row.covers(p))
    for source in _planted(row):
        assert row.rule in arc_rules(source, inside), (source, inside)
        assert arc_rules(source, outside) == [], (source, outside)


def test_every_row_has_a_fixture_and_a_contract():
    docs = open(os.path.join(ROOT, "docs", "CHECKS.md"), encoding="utf-8").read()
    assert len({row.rule for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert _planted(row), row.rule
        assert any(row.covers(p) for p in PY_FILES), row.rule
        assert row.rule in RULES and f"### {row.rule}" in docs, row.rule


def test_repository_files_keep_the_architecture_rules():
    """Every row over every tracked file: the rows that reach beyond the
    package (tests, docs, benchmarks, CI, or every file) are checked here
    only, the package's modules by ``repro check`` too."""
    assert "src/repro/check/architecture.py" in SKIPPED
    findings = []
    for path in FILES:
        with open(os.path.join(ROOT, path), "rb") as handle:
            text = handle.read().decode("utf-8", errors="replace")
        findings += [f"{f.location()}: {f.rule} {f.message}" for f in check_file(path, text)]
    assert findings == []


#: Public functions and methods of ``src/repro`` that only the tests call,
#: each kept on purpose.  Any other public name must have a caller (or a
#: mention) in ``src/``, ``benchmarks/``, ``examples/`` or ``docs/``.
TEST_ONLY = {
    "slack_s": "a stamp's receive-minus-send gap: the clock condition as a number",
    "crosses_nodes": "whether a stamped message left its node, for the violation split",
    "error_s": "an offset measurement's signed error against the true offset",
    "creation_attempts": "how often the archive protocol tried to create a directory",
    "is_metacomputing": "the paper's definition: more than one machine",
    "ranks_on_machine": "a placement's ranks on one machine, for placement layouts",
    "processed_events": "the engine's callback count behind the event budgets",
    "write_trace": "object-wise archive write; leaves src/ with the object-wise decode path",
    "read_trace": "object-wise archive read; leaves src/ with the object-wise decode path",
}

#: Methods a framework calls by name: ``http.server`` (``do_*``,
#: ``log_message``) and ``ast.NodeVisitor`` (``visit_*``).
_PROTOCOL = re.compile(r"do_\w+|visit_\w+|log_message")


def _public_defs(path, text):
    """Module-level functions and (nested) class methods with public names."""
    body = list(ast.parse(text, filename=path).body)
    while body:
        node = body.pop()
        if isinstance(node, ast.ClassDef):
            body += node.body
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_") and not _PROTOCOL.fullmatch(node.name):
                yield node.name


def _program_texts():
    """The tracked program, benchmarks, examples and docs, by path."""
    texts = {}
    for path in FILES:
        if path.split("/")[0] in ("src", "benchmarks", "examples", "docs"):
            with open(os.path.join(ROOT, path), "rb") as handle:
                texts[path] = handle.read().decode("utf-8", errors="replace")
    return texts


def test_no_public_helper_only_the_tests_call():
    """A public name defined in ``src/repro`` appears outside its own
    ``def`` in the tracked program, benchmarks, examples or docs, or it is
    one of :data:`TEST_ONLY`: a helper that only tests call belongs in
    ``tests/``."""
    texts = _program_texts()
    corpus = "\n".join(texts.values())
    words = Counter(re.findall(r"\w+", corpus))
    words.subtract(re.findall(r"\bdef\s+(\w+)", corpus))
    defined = {
        name
        for path, text in texts.items()
        if path.startswith("src/repro/") and path.endswith(".py")
        for name in _public_defs(path, text)
    }
    test_only = {name for name in defined if words[name] <= 0}
    extra = sorted(test_only - TEST_ONLY.keys())
    assert not extra, f"only tests call {extra}: move them into tests/"
    stale = sorted(TEST_ONLY.keys() - test_only)
    assert not stale, f"{stale} have callers outside tests/: drop them from TEST_ONLY"


def _module_constants(path, text):
    """Every name a module-level statement of *path* assigns, once per assignment."""
    for node in ast.parse(text, filename=path).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in getattr(target, "elts", [target]):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id


def test_no_module_constant_nothing_reads():
    """A name assigned at module level in ``src/repro`` appears besides its
    own assignment in the tracked program, benchmarks, examples or docs: a
    constant that only tests read, or nothing, is dead weight."""
    texts = _program_texts()
    words = Counter(re.findall(r"\w+", "\n".join(texts.values())))
    assigned = Counter(
        name
        for path, text in texts.items()
        if path.startswith("src/repro/") and path.endswith(".py")
        for name in _module_constants(path, text)
    )
    unread = sorted(name for name, count in assigned.items() if words[name] <= count)
    assert not unread, f"nothing reads {unread}: delete them"
