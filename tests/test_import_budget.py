"""What the light entry points import, and that every lazy export resolves.

``repro serve``, ``repro submit/status/jobs/--help`` and the service's
modules must not load numpy, the simulator, the codec or the analyzer: the
server keeps HTTP and the journal, and the compute stack is imported by
each slot's worker at its first job.  Each probe runs in a fresh
interpreter, since this test process has long imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Modules no light entry point may load.
HEAVY = (
    "numpy", "repro.api", "repro.sim.mpi", "repro.sim.p2p", "repro.sim.world",
    "repro.analysis.streaming", "repro.trace.encoding",
)


def _python(code: str, *, cwd: str = ROOT) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process: subprocess.Popen) -> str:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return out


def _tables():
    """Package → its init's lazy export table (defining module → names),
    read from the source, and the init's imports."""
    tables, imports = {}, {}
    for dirpath, _dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        if "__init__.py" not in filenames:
            continue
        path = os.path.join(dirpath, "__init__.py")
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        tree = ast.parse(open(path, encoding="utf-8").read())
        imports[package] = [
            ast.unparse(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports"
        ]
        if calls:
            tables[package] = ast.literal_eval(calls[0].args[1])
    return tables, imports


#: A finished ``analyze`` job's result with a one-cell severity cube.
_CUBE_RESULT = {
    "kind": "analyze",
    "severity": {
        "name": "figure6", "total_time": 2.0, "machine_names": ["A"],
        "machine_of_rank": {"0": 0}, "scheme": "hierarchical",
        "cells": [{"metric": "late-sender", "path": ["main", "MPI_Recv"], "rank": 0,
                   "value": 0.5}],
    },
}


def test_light_entry_points_load_no_compute_stack(tmp_path):
    """At each point the heavy modules are still absent: after ``import
    repro.cli``; after the HTTP front end and the store; after a service
    started (its slot workers fork at their first job); after a severity
    query of a finished job the store holds."""
    out = _finish(_python(f"""
        import json, os, sys
        HEAVY = {HEAVY!r}
        seen = {{}}
        def point(name):
            seen[name] = sorted(m for m in HEAVY if m in sys.modules)
        import repro.cli
        point("import repro.cli")
        import repro.service.http
        from repro.service.store import DONE, JobRecord, JobStore
        point("import repro.service.http, repro.service.store")
        path = {str(tmp_path / "jobs.jsonl")!r}
        with JobStore(path) as store:
            store.save(JobRecord("k", 1, {{"kind": "analyze"}}, DONE, result={_CUBE_RESULT!r}))
        from repro.service.app import AnalysisService, ServiceConfig
        service = AnalysisService(ServiceConfig(store_path=path))
        service.startup()
        point("AnalysisService.startup()")
        detail = service.severity("k", metric="late-sender")
        assert detail["by_callpath"] == {{"main/MPI_Recv": 0.5}}, detail
        point("AnalysisService.severity(key, metric=...)")
        service.shutdown()
        print(json.dumps(seen))
    """))
    seen = json.loads(out)
    assert len(seen) == 4
    assert seen == {point: [] for point in seen}


def test_every_lazy_export_resolves_as_the_first_import():
    """Each name of each package's ``__all__`` is importable as the first
    import of a fresh interpreter (a cycle the eager order hid would raise
    here: ``from repro import FaultPlan`` once did).  One interpreter per
    defining module, its names imported through every package exporting them."""
    tables, imports = _tables()
    assert {"repro", "repro.sim", "repro.faults", "repro.analysis", "repro.service"} <= set(tables)
    for package, lines in imports.items():
        assert lines == ["from repro.exports import lazy_exports"], (package, lines)
    batches = defaultdict(list)
    for package, table in tables.items():
        for module, names in table.items():
            batches[module] += [f"from {package} import {name}" for name in names]
    scripts = ["\n".join(lines) for lines in batches.values()]
    for first in range(0, len(scripts), 4):  # four interpreters at a time
        for process in [_python(script) for script in scripts[first:first + 4]]:
            _finish(process)


def test_star_import_and_dir_cover_all():
    out = _finish(_python("""
        import json
        namespace = {}
        exec("from repro import *", namespace)
        import repro
        print(json.dumps([sorted(repro.__all__), sorted(namespace), dir(repro)]))
    """))
    exported, imported, listed = json.loads(out)
    assert "__version__" in exported and "FaultPlan" in exported
    assert set(exported) <= set(imported) and set(exported) <= set(listed)
