"""Atomicity rules (``ATM2xx``).

The crash-safety story (SIGKILL at any instant leaves loadable state)
rests on two sanctioned durable-write idioms: a file is written to a
same-directory temp file and moved into place with ``os.replace``, or one
line is appended and fsync'd to a log whose loader tolerates a torn tail.
Two rules keep every write site honest:

* ``ATM201`` — in the packages that own durable files
  (:data:`DURABLE_PACKAGES`: the trace archive, the simulated file
  systems, the job store/journal layers), calling the builtin
  ``open(path, "w"/"wb"/"a"/"x")`` directly, or ``os.open`` with
  ``O_WRONLY``/``O_APPEND``/``O_TRUNC``, is flagged: a crash mid-write
  leaves a torn file at its final path.  The sanctioned helpers
  (``MountNamespace.write_file_atomic``, ``CheckpointJournal._flush``)
  build on ``tempfile.mkstemp`` + ``os.fdopen`` + ``os.replace`` and are
  not matched by this rule; the one append site
  (``CheckpointJournal._append``) is baselined with its reason.
* ``ATM202`` — ``os.rename`` is flagged everywhere: it raises on
  cross-device moves and on Windows on existing targets; ``os.replace``
  has the atomic-overwrite semantics every call site here wants.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.check.findings import Finding
from repro.check.visitors import Module, RuleVisitor, call_keyword, resolve

#: Packages whose files must survive a crash loadable.
DURABLE_PACKAGES = frozenset({"trace", "fs", "service", "resilience"})

_WRITE_MODE_CHARS = set("wax+")
_WRITE_FLAGS = ("O_WRONLY", "O_APPEND", "O_TRUNC")


def _write_mode(node: ast.Call) -> str:
    """The literal write mode of an ``open`` call, quoted, or "" when read-only."""
    mode_node = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        mode_node = call_keyword(node, "mode")
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        if _WRITE_MODE_CHARS & set(mode_node.value):
            return repr(mode_node.value)
    return ""


def _write_flags(node: ast.Call, imports: Dict[str, str]) -> str:
    """The write flags an ``os.open`` call names, or "" when it names none."""
    flags_node = node.args[1] if len(node.args) >= 2 else call_keyword(node, "flags")
    named = {resolve(sub, imports) for sub in ast.walk(flags_node)} if flags_node else set()
    return "|".join(flag for flag in _WRITE_FLAGS if f"os.{flag}" in named)


class AtomicityVisitor(RuleVisitor):
    def __init__(self, module: Module, imports: Dict[str, str]) -> None:
        super().__init__(module, imports)
        self.in_durable_package = module.package in DURABLE_PACKAGES

    def visit_Call(self, node: ast.Call) -> None:
        name = resolve(node.func, self.imports)
        if name in ("open", "os.open") and self.in_durable_package:
            mode = _write_mode(node) if name == "open" else _write_flags(node, self.imports)
            if mode:
                self.add(
                    "ATM201",
                    node,
                    f"bare {name}(..., {mode}) in durable-file package "
                    f"{self.module.package!r} — a crash mid-write leaves a "
                    "torn file at its final path",
                    "write to a same-directory temp file and os.replace() "
                    "it into place (see MountNamespace.write_file_atomic / "
                    "CheckpointJournal._flush)",
                )
        elif name == "os.rename":
            self.add(
                "ATM202",
                node,
                "os.rename is not atomic-overwrite on every platform",
                "use os.replace, which overwrites atomically everywhere",
            )
        self.generic_visit(node)


def check_atomicity(module: Module, imports: Dict[str, str]) -> List[Finding]:
    return AtomicityVisitor(module, imports).run()
