"""Deprecation rule (``API402``): a shim names the release that removes it.

Every ``warnings.warn(..., DeprecationWarning | FutureWarning)`` site must
pass a string-literal message that says ``removed in X.Y.Z``, with X.Y.Z
later than the current :data:`repro.__version__`.  The warning the user
reads is then the registry: a shim whose named release has come has
overstayed its welcome and must be deleted, and a message built at run time
cannot be checked, so it is refused.

The public surface itself, ``repro.api.__all__``, is pinned once, by
``tests/test_api.py``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Tuple

from repro import __version__
from repro.check.findings import Finding
from repro.check.visitors import Module, RuleVisitor, call_keyword, resolve

_REMOVED_IN = re.compile(r"removed in (\d+\.\d+\.\d+)")


def _release(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in re.findall(r"\d+", text)[:3])


class _Deprecations(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        category = node.args[1] if len(node.args) > 1 else call_keyword(node, "category")
        if resolve(node.func, self.imports) == "warnings.warn" and category is not None and (
            resolve(category, self.imports) in ("DeprecationWarning", "FutureWarning")
        ):
            message = node.args[0] if node.args else call_keyword(node, "message")
            text = getattr(message, "value", None)
            removal = _REMOVED_IN.search(text) if isinstance(text, str) else None
            if not isinstance(text, str):
                problem = "the deprecation message is not a string literal"
            elif removal is None:
                problem = "the deprecation message names no 'removed in X.Y.Z' release"
            elif _release(removal[1]) <= _release(__version__):
                problem = (f"deprecation window expired: {removal[0]} <= "
                           f"current version {__version__}")
            else:
                problem = ""
            if problem:
                self.add("API402", node, problem,
                         "a live shim says 'removed in X.Y.Z' for a release after the "
                         "current one, in a literal message; a lapsed one is deleted")
        self.generic_visit(node)


def check_deprecations(module: Module, imports: Dict[str, str]) -> List[Finding]:
    """API402 findings for one module, against :data:`repro.__version__`."""
    return _Deprecations(module, imports).run()
