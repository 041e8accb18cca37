"""The check engine: walk the tree, run every rule family, apply allow comments.

:func:`run_checks` is the one entry point the CLI and :mod:`repro.api`
expose.  It walks the scanned package (by default the installed
``repro`` tree itself), parses every ``.py`` file once, runs the rule
families (determinism, atomicity, concurrency, deprecations, architecture)
over each module, applies that module's allow comments, and returns a
:class:`~repro.check.findings.CheckReport`.

An accepted exception sits beside the code it excuses: a whole-line
comment ``# check: allow RULE: reason`` excuses findings of RULE on the
next line that is not a comment, so the reason may run on over further
comment lines.  An allow comment that excuses nothing is itself a
finding (BASE001), and so is one without a reason (BASE002): a stale or
unjustified exception fails the run.

File ordering is sorted, findings are sorted, and nothing consults a
clock or an environment variable: two runs over the same tree produce
byte-identical reports — the linter holds itself to the determinism
rules it enforces.

:func:`check_source` runs the same per-module pass over a single source
string, which is how the rule-family tests feed fixture snippets through
the real pipeline without materialising trees on disk.
"""

from __future__ import annotations

import ast
import os
import re
from typing import List, Optional, Tuple

from repro.check.api_drift import check_deprecations
from repro.check.architecture import check_architecture
from repro.check.atomicity import check_atomicity
from repro.check.concurrency import check_concurrency
from repro.check.determinism import check_determinism
from repro.check.findings import RULES, CheckReport, Finding
from repro.check.visitors import Module, import_table

_ALLOW = re.compile(r"#\s*check:\s*allow\s+(\w+)\s*(?::(.*))?")


def default_root() -> str:
    """The installed ``repro`` package directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def _allowed(module: Module, findings: List[Finding]) -> Tuple[List[Finding], List[Finding]]:
    """Split one module's findings into (active, allowed) by its allow comments,
    adding BASE001 / BASE002 for each comment that is stale or gives no reason."""
    lines = [line.strip() for line in module.lines]
    allows = []  # (rule, reason, comment line, excused line)
    for number, text in enumerate(lines, 1):
        match = _ALLOW.fullmatch(text)
        if match:
            target = number + 1
            while target <= len(lines) and lines[target - 1].startswith("#"):
                target += 1
            allows.append((match[1], (match[2] or "").strip(), number, target))
    excused = {(rule, target) for rule, _, _, target in allows}
    active = [f for f in findings if (f.rule, f.line) not in excused]
    allowed = [f for f in findings if (f.rule, f.line) in excused]
    hit = {(f.rule, f.line) for f in allowed}
    for rule, reason, number, target in allows:
        if (rule, target) not in hit:
            meta, message = "BASE001", f"allow comment excuses no {rule} finding on line {target}"
        elif not reason:
            meta, message = "BASE002", f"allow comment for {rule} gives no reason"
        else:
            continue
        active.append(Finding(meta, module.file, number, "", message,
                              RULES[meta], lines[number - 1]))
    return active, allowed


def _checked(module: Module) -> Tuple[List[Finding], List[Finding]]:
    """Every rule family over one module, then its allow comments."""
    imports = import_table(module.tree, module.dotted_package)
    findings: List[Finding] = []
    findings.extend(check_determinism(module, imports))
    findings.extend(check_atomicity(module, imports))
    findings.extend(check_concurrency(module, imports))
    findings.extend(check_deprecations(module, imports))
    findings.extend(check_architecture(module, imports))
    return _allowed(module, findings)


def _parse(source: str, rel_file: str) -> Module:
    tree = ast.parse(source, filename=rel_file)
    return Module(file=rel_file, tree=tree, lines=source.splitlines())


def check_source(source: str, rel_file: str) -> List[Finding]:
    """The active findings of one source string, allow comments applied.

    ``rel_file`` decides which package rules apply — pass paths like
    ``"repro/sim/fixture.py"`` to place the snippet inside a package.
    """
    return _checked(_parse(source, rel_file))[0]


def run_checks(root: Optional[str] = None) -> CheckReport:
    """Run every rule family over a source tree (default: the installed
    ``repro`` package) and apply each module's allow comments."""
    scan_root = os.path.abspath(root or default_root())
    rel_base = os.path.dirname(scan_root)
    report = CheckReport(root=os.path.basename(scan_root))
    for path in _iter_source_files(scan_root):
        rel_file = os.path.relpath(path, rel_base).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            active, allowed = _checked(_parse(handle.read(), rel_file))
        report.findings.extend(active)
        report.suppressed.extend(allowed)
    report.sort()
    return report
