"""Shared AST plumbing for the rule families.

The rules all need the same three capabilities:

* **dotted-name resolution** — turning ``np.random.default_rng`` back
  into ``numpy.random.default_rng`` through the module's import table, so
  rules match *meaning*, not spelling (``import numpy``, ``import numpy
  as np`` and ``from numpy import random`` all resolve identically);
* **scope tracking** — every finding names its enclosing function/class
  qualname;
* **module context** — which package a file belongs to decides which
  rules apply to it.

:class:`RuleVisitor` bundles all three; rule families subclass it and
call :meth:`RuleVisitor.add` to report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.check.findings import Finding


@dataclass
class Module:
    """One parsed source file handed to every rule family."""

    file: str  # posix-style path, e.g. "repro/service/app.py"
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """First package segment under the scan root ("" for top-level)."""
        parts = self.file.split("/")
        return parts[1] if len(parts) > 2 else ""

    @property
    def module_name(self) -> str:
        """Dotted module path, e.g. ``repro.service.app``."""
        trimmed = self.file[:-3] if self.file.endswith(".py") else self.file
        parts = trimmed.split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @property
    def dotted_package(self) -> str:
        """The package a relative import in this file starts from."""
        if self.file.endswith("/__init__.py"):
            return self.module_name
        return self.module_name.rpartition(".")[0]

    def snippet(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def imported_names(
    tree: ast.Module, package: str = ""
) -> Iterator[Tuple[ast.stmt, ast.alias, str]]:
    """``(statement, alias, dotted name imported)`` for every import.

    ``import a.b`` imports ``a.b``; ``from m import n as k`` imports
    ``m.n``.  A relative import is resolved against *package*, the dotted
    package the module sits in, so ``from ..wallclock import wallclock`` in
    ``repro.analysis`` imports ``repro.wallclock.wallclock``; one that
    climbs above *package* is skipped.  Function-local imports are included
    too — a deferred import changes *when* a name binds, not what it means.
    A package init's lazy export table (``lazy_exports(__name__, {module:
    (name, ...)})``) imports ``module.name`` for each of its names.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                if node.level > len(anchor):
                    continue
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias, f"{base}.{alias.name}" if base else alias.name
        elif _export_table(node):
            for module, names in zip(node.args[1].keys, node.args[1].values):
                for name in names.elts:
                    yield node, ast.alias(name=name.value), f"{module.value}.{name.value}"


def _export_table(node: ast.AST) -> bool:
    """*node* is a ``lazy_exports`` call with a literal table of string names."""
    table = node.args[1] if isinstance(node, ast.Call) and len(node.args) > 1 else None
    if not isinstance(table, ast.Dict):
        return False
    strings = [*table.keys, *(n for v in table.values for n in getattr(v, "elts", [None]))]
    return (dotted_name(node.func) or "").rpartition(".")[2] == "lazy_exports" and all(
        isinstance(s, ast.Constant) and isinstance(s.value, str) for s in strings
    )


def import_table(tree: ast.Module, package: str = "") -> Dict[str, str]:
    """Local name → canonical dotted prefix, from the module's imports.

    ``import numpy as np`` maps ``np → numpy``; ``from numpy import
    random as nprand`` maps ``nprand → numpy.random``; ``from time import
    time`` maps ``time → time.time``; ``import os.path`` binds only ``os``.
    Relative imports resolve against *package* (:func:`imported_names`).
    """
    table: Dict[str, str] = {}
    for node, alias, name in imported_names(tree, package):
        if isinstance(node, ast.Import) and not alias.asname:
            head = name.split(".")[0]
            table[head] = head
        else:
            table[alias.asname or alias.name] = name
    return table


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of an expression through the import table.

    Returns e.g. ``numpy.random.default_rng`` for ``np.random.default_rng``
    under ``import numpy as np``, or the literal dotted path when the head
    is not an imported name (``self._lock`` stays ``self._lock``).
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    base = imports.get(head)
    if base is None:
        return name
    return f"{base}.{rest}" if rest else base


def call_keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def has_timeout_argument(node: ast.Call) -> bool:
    """True when a call passes any positional argument or a timeout= kw.

    The blocking primitives this checker cares about (``Queue.get``,
    ``Event.wait``, ``Thread.join``, ``Popen.wait``, ``Condition.wait``)
    all take their timeout as the first positional or as ``timeout=`` —
    a call with neither blocks indefinitely.
    """
    return bool(node.args) or call_keyword(node, "timeout") is not None


class RuleVisitor(ast.NodeVisitor):
    """Base visitor: scope tracking + finding collection for one module."""

    def __init__(self, module: Module, imports: Dict[str, str]) -> None:
        self.module = module
        self.imports = imports
        self.findings: List[Finding] = []
        self._scope: List[str] = []

    # -- scope bookkeeping -------------------------------------------------

    @property
    def symbol(self) -> str:
        return ".".join(self._scope)

    @property
    def enclosing_class(self) -> Optional[str]:
        for name in reversed(self._scope):
            if name[:1].isupper():  # repo convention: classes are CapWords
                return name
        return None

    def _enter(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node, node.name)

    # -- reporting ---------------------------------------------------------

    def add(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                file=self.module.file,
                line=getattr(node, "lineno", 0),
                symbol=self.symbol,
                message=message,
                hint=hint,
                snippet=self.module.snippet(node),
            )
        )

    def run(self) -> List[Finding]:
        self.visit(self.module.tree)
        return self.findings

