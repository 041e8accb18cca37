"""API-drift rules (``API4xx``).

The public surface of :mod:`repro.api` is a contract: downstream
notebooks and the service layer import from it by name.  Two rules pin
it:

* ``API401`` — the literal ``__all__`` list in ``repro/api.py`` must
  equal the ``api_all`` list in the checked-in snapshot
  (``api_snapshot.json``).  Adding a name is a one-line snapshot update
  made *in the same commit* — the rule exists so the surface never
  changes silently, not so it never changes.
* ``API402`` — every ``warnings.warn(..., DeprecationWarning)`` site
  must appear in the snapshot's ``deprecations`` registry with an
  ``added_in``/``remove_by`` version window.  A shim whose ``remove_by``
  is ≤ the current :data:`repro.__version__` has overstayed its
  one-release welcome and must be deleted; a registry entry matching no
  site is stale and must be removed.

Both rules are tree-wide, not per-module, so they run once per scan in
the engine rather than inside the per-module rule loop.  When the
scanned tree has no ``repro/api.py`` (rule-family fixture trees), API401
is skipped rather than failed — absence of the facade is not drift.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.check.findings import Finding
from repro.check.visitors import Module, RuleVisitor, import_table, resolve

API_MODULE = "repro/api.py"


def _parse_version(text: str) -> Tuple[int, ...]:
    parts = []
    for chunk in text.split("."):
        digits = "".join(ch for ch in chunk if ch.isdigit())
        parts.append(int(digits) if digits else 0)
    return tuple(parts)


def _literal_all(tree: ast.Module) -> Optional[List[str]]:
    """The ``__all__`` list literal of a module, if statically present."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                try:
                    names = ast.literal_eval(value)
                except (ValueError, SyntaxError):
                    return None
                if isinstance(names, (list, tuple)):
                    return [str(n) for n in names]
    return None


def check_api_surface(
    modules: Iterable[Module], snapshot: Dict[str, Any]
) -> List[Finding]:
    """API401: ``repro.api.__all__`` vs the snapshot contract."""
    api_module = next((m for m in modules if m.file == API_MODULE), None)
    if api_module is None:
        return []
    findings: List[Finding] = []
    declared = _literal_all(api_module.tree)
    if declared is None:
        findings.append(
            Finding(
                rule="API401",
                file=API_MODULE,
                line=1,
                symbol="",
                message="repro.api.__all__ is not a static list literal",
                hint="keep __all__ a plain list of strings so the surface "
                "is statically checkable",
                snippet="",
            )
        )
        return findings
    expected = list(snapshot.get("api_all", []))
    missing = sorted(set(expected) - set(declared))
    unregistered = sorted(set(declared) - set(expected))
    anchor_line = 1
    for node in api_module.tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            anchor_line = node.lineno
            break
    for name in missing:
        findings.append(
            Finding(
                rule="API401",
                file=API_MODULE,
                line=anchor_line,
                symbol="",
                message=f"public name {name!r} in the snapshot contract is "
                "missing from __all__",
                hint="removing a public name is a breaking change: "
                "deprecate it first, then update api_snapshot.json in the "
                "removal commit",
                snippet=f"__all__ missing {name}",
            )
        )
    for name in unregistered:
        findings.append(
            Finding(
                rule="API401",
                file=API_MODULE,
                line=anchor_line,
                symbol="",
                message=f"public name {name!r} is not in the snapshot "
                "contract",
                hint="add the name to api_snapshot.json in the same commit "
                "that exports it",
                snippet=f"__all__ added {name}",
            )
        )
    return findings


class _DeprecationSites(RuleVisitor):
    """Collect every ``warnings.warn(..., DeprecationWarning)`` site."""

    def __init__(self, module: Module, imports: Dict[str, str]) -> None:
        super().__init__(module, imports)
        self.sites: List[Tuple[str, str, ast.Call]] = []

    def visit_Call(self, node: ast.Call) -> None:
        name = resolve(node.func, self.imports)
        if name == "warnings.warn":
            category = None
            if len(node.args) >= 2:
                category = resolve(node.args[1], self.imports)
            for keyword in node.keywords:
                if keyword.arg == "category":
                    category = resolve(keyword.value, self.imports)
            if category in ("DeprecationWarning", "FutureWarning"):
                self.sites.append((self.module.file, self.symbol, node))
        self.generic_visit(node)


def check_deprecations(
    modules: Iterable[Module],
    snapshot: Dict[str, Any],
    current_version: str,
) -> List[Finding]:
    """API402: deprecation shims vs the snapshot registry."""
    registry: List[Dict[str, Any]] = list(snapshot.get("deprecations", []))
    now = _parse_version(current_version)
    findings: List[Finding] = []
    matched = [False] * len(registry)
    for module in modules:
        collector = _DeprecationSites(module, import_table(module.tree, module.dotted_package))
        collector.visit(module.tree)
        for file, symbol, node in collector.sites:
            entry = None
            for index, candidate in enumerate(registry):
                if candidate.get("file") == file and symbol.startswith(
                    str(candidate.get("symbol", ""))
                ):
                    entry = candidate
                    matched[index] = True
                    break
            if entry is None:
                findings.append(
                    Finding(
                        rule="API402",
                        file=file,
                        line=node.lineno,
                        symbol=symbol,
                        message="DeprecationWarning shim is not registered "
                        "in api_snapshot.json",
                        hint="add a deprecations entry with added_in / "
                        "remove_by (one minor release later) / reason",
                        snippet=module.snippet(node),
                    )
                )
                continue
            remove_by = _parse_version(str(entry.get("remove_by", "0")))
            if remove_by <= now:
                findings.append(
                    Finding(
                        rule="API402",
                        file=file,
                        line=node.lineno,
                        symbol=symbol,
                        message=(
                            f"deprecation window expired: remove_by "
                            f"{entry.get('remove_by')} <= current version "
                            f"{current_version}"
                        ),
                        hint="the one-release compatibility window is "
                        "over — delete the shim and its registry entry",
                        snippet=module.snippet(node),
                    )
                )
    for index, entry in enumerate(registry):
        if not matched[index]:
            findings.append(
                Finding(
                    rule="API402",
                    file=str(entry.get("file", "")),
                    line=0,
                    symbol=str(entry.get("symbol", "")),
                    message="registry entry matches no DeprecationWarning "
                    "site — the shim is gone, the entry is stale",
                    hint="remove the entry from api_snapshot.json",
                    snippet="",
                )
            )
    return findings
