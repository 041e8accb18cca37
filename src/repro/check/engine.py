"""The check engine: walk the tree, run every rule family, apply baseline.

:func:`run_checks` is the one entry point the CLI and :mod:`repro.api`
expose.  It walks the scanned package (by default the installed
``repro`` tree itself), parses every ``.py`` file once, runs the
per-module rule families (determinism, atomicity, concurrency,
architecture), then the tree-wide ones (API surface, deprecation
registry), applies the checked-in baseline, and returns a
:class:`~repro.check.findings.CheckReport`.

File ordering is sorted, findings are sorted, and nothing consults a
clock or an environment variable: two runs over the same tree produce
byte-identical reports — the linter holds itself to the determinism
rules it enforces.

:func:`check_source` runs the per-module families over a single source
string, which is how the rule-family tests feed fixture snippets through
the real pipeline without materialising trees on disk.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Any, Dict, List, Optional

from repro.check.api_drift import API_MODULE, check_api_surface, check_deprecations
from repro.check.architecture import check_architecture
from repro.check.atomicity import check_atomicity
from repro.check.baseline import Baseline, BaselineError
from repro.check.concurrency import check_concurrency
from repro.check.determinism import check_determinism
from repro.check.findings import CheckReport, Finding
from repro.check.visitors import Module, import_table

_HERE = os.path.dirname(os.path.abspath(__file__))

#: The shipped suppression baseline (package data, next to this module).
DEFAULT_BASELINE_PATH = os.path.join(_HERE, "checks_baseline.json")

#: The shipped API surface + deprecation registry snapshot.
DEFAULT_SNAPSHOT_PATH = os.path.join(_HERE, "api_snapshot.json")


def default_root() -> str:
    """The installed ``repro`` package directory."""
    return os.path.dirname(_HERE)


def _iter_source_files(root: str) -> List[str]:
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    return paths


def _parse_module(path: str, rel_file: str) -> Module:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=rel_file)
    return Module(file=rel_file, tree=tree, lines=source.splitlines())


def load_snapshot(path: str) -> Optional[Dict[str, Any]]:
    """The API snapshot, or None when the file does not exist."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise BaselineError(f"snapshot {path} must be a JSON object")
    return payload


def _module_findings(module: Module) -> List[Finding]:
    imports = import_table(module.tree, module.dotted_package)
    findings: List[Finding] = []
    findings.extend(check_determinism(module, imports))
    findings.extend(check_atomicity(module, imports))
    findings.extend(check_concurrency(module, imports))
    findings.extend(check_architecture(module, imports))
    return findings


def check_source(source: str, rel_file: str) -> List[Finding]:
    """Run the per-module rule families over one source string.

    ``rel_file`` decides which package rules apply — pass paths like
    ``"repro/sim/fixture.py"`` to place the snippet inside a package.
    """
    tree = ast.parse(source, filename=rel_file)
    module = Module(file=rel_file, tree=tree, lines=source.splitlines())
    return _module_findings(module)


def run_checks(
    root: Optional[str] = None,
    baseline_path: Optional[str] = DEFAULT_BASELINE_PATH,
    snapshot_path: Optional[str] = DEFAULT_SNAPSHOT_PATH,
    update_baseline: bool = False,
    version: Optional[str] = None,
) -> CheckReport:
    """Run every rule family over a source tree.

    Parameters
    ----------
    root:
        Directory to scan (default: the installed ``repro`` package).
    baseline_path:
        Suppression baseline to apply; ``None`` disables baselining.
    snapshot_path:
        API snapshot to enforce; ``None`` (or a missing file) skips the
        API-drift rules.
    update_baseline:
        Rewrite ``baseline_path`` to accept every current finding,
        carrying existing reasons forward.  New entries get an empty
        reason and therefore still fail with ``BASE002`` until someone
        writes the justification down.
    version:
        Current release version for the deprecation-window rule
        (default: :data:`repro.__version__`).
    """
    scan_root = os.path.abspath(root or default_root())
    rel_base = os.path.dirname(scan_root)
    modules: List[Module] = []
    for path in _iter_source_files(scan_root):
        rel_file = os.path.relpath(path, rel_base).replace(os.sep, "/")
        modules.append(_parse_module(path, rel_file))

    findings: List[Finding] = []
    for module in modules:
        findings.extend(_module_findings(module))

    snapshot = load_snapshot(snapshot_path) if snapshot_path else None
    has_facade = any(m.file == API_MODULE for m in modules)
    if snapshot is not None and has_facade:
        # The snapshot describes the real tree; a fixture tree without
        # the facade is not in drift, it is out of scope.
        if version is None:
            from repro import __version__ as version  # noqa: F811
        findings.extend(check_api_surface(modules, snapshot))
        findings.extend(check_deprecations(modules, snapshot, version))

    report = CheckReport(root=os.path.basename(scan_root))
    if baseline_path is None:
        report.findings = findings
    elif update_baseline:
        previous = Baseline.load(baseline_path)
        fresh = Baseline.from_findings(findings, path=baseline_path)
        fresh.merge_reasons(previous)
        fresh.save(baseline_path)
        report.findings, report.suppressed = fresh.apply(findings)
    else:
        baseline = Baseline.load(baseline_path)
        report.findings, report.suppressed = baseline.apply(findings)
    report.sort()
    return report
