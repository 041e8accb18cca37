"""Concurrency rules (``CON3xx``) for the threaded packages.

The service and resilience layers are the only places this repository
runs threads, and their liveness story is simple to state: lock
acquisition order is acyclic, nothing blocks forever (every wait carries
a timeout), and no thread outlives its owner silently.  Four rules check
it mechanically, per module:

* ``CON301`` — a lock-acquisition graph is built from ``with <lock>:``
  nesting and explicit ``acquire()``/``release()`` pairs: an edge A → B
  means B was acquired while A was held.  A cycle in the graph is a
  deadlock waiting for the right interleaving.
  ``threading.Condition(existing_lock)`` aliases the wrapped lock, so a
  condition and its lock do not read as two resources.
* ``CON302`` — a blocking call (zero-argument ``.get()`` / ``.wait()`` /
  ``.join()`` / ``.recv()``) while holding a lock stalls every other
  thread contending for it; the timeout that bounds the wait must be
  explicit.
* ``CON303`` — the same zero-argument blocking calls *outside* any lock
  are still flagged in these packages: an untimed wait is an unbounded
  hang when the peer dies.  Deliberate blocking sites (a worker's task
  loop) carry an allow comment with their justification.
* ``CON304`` — ``threading.Thread(...)`` without an explicit ``daemon=``
  keyword: the daemon/join story must be visible at the creation site.

Scope: :data:`CONCURRENCY_PACKAGES`.  The analysis itself is per module
and flow-insensitive by design — it reads straight-line acquisition
structure, not every interleaving — which is exactly what makes its
verdicts stable and reviewable.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.check.visitors import (
    Module,
    RuleVisitor,
    has_timeout_argument,
    resolve,
)

#: The packages that run threads (and the chaos harness that pokes them).
CONCURRENCY_PACKAGES = frozenset({"service", "resilience", "chaos"})

#: Factories whose result is a mutex-like resource.
_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

_CONDITION_FACTORY = "threading.Condition"

#: Method names whose zero-argument form blocks indefinitely.
_BLOCKING_METHODS = {"get", "wait", "join", "recv"}


def _lock_key(dotted: Optional[str], owner: Optional[str]) -> Optional[str]:
    """Canonical lock id for an expression like ``self._lock`` or ``LOCK``."""
    if dotted is None:
        return None
    if dotted.startswith("self."):
        cls = owner or "<module>"
        return f"{cls}.{dotted[len('self.'):]}"
    return dotted


class _LockDefinitions(RuleVisitor):
    """First pass: which names are locks, and which alias which."""

    def __init__(self, module: Module, imports: Dict[str, str]) -> None:
        super().__init__(module, imports)
        self.locks: Dict[str, str] = {}  # lock key -> factory name

    def _canonical(self, key: str) -> str:
        seen = set()
        while key in self.locks and self.locks[key] in self.locks and key not in seen:
            seen.add(key)
            key = self.locks[key]
        return key

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            factory = resolve(value.func, self.imports)
            keys = [
                _lock_key(resolve(t, self.imports), self.enclosing_class)
                for t in node.targets
            ]
            if factory in _LOCK_FACTORIES:
                for key in keys:
                    if key:
                        self.locks[key] = factory
            elif factory == _CONDITION_FACTORY:
                # Condition(lock) shares the wrapped lock; Condition()
                # owns a private one.
                wrapped = None
                if value.args:
                    wrapped = _lock_key(
                        resolve(value.args[0], self.imports),
                        self.enclosing_class,
                    )
                for key in keys:
                    if not key:
                        continue
                    if wrapped and wrapped in self.locks:
                        self.locks[key] = wrapped  # alias
                    else:
                        self.locks[key] = factory
        self.generic_visit(node)

    def resolve_lock(self, expr: ast.expr, owner: Optional[str]) -> Optional[str]:
        """Lock key of an acquisition expression, following aliases."""
        key = _lock_key(resolve(expr, self.imports), owner)
        if key is None:
            return None
        if key in self.locks:
            canonical = self.locks[key]
            return canonical if canonical in self.locks else key
        return None


class ConcurrencyVisitor(RuleVisitor):
    def __init__(
        self,
        module: Module,
        imports: Dict[str, str],
        definitions: _LockDefinitions,
    ) -> None:
        super().__init__(module, imports)
        self.defs = definitions
        self._held: List[str] = []
        #: (held lock, acquired lock) -> node of the first occurrence.
        self.edges: Dict[Tuple[str, str], ast.AST] = {}

    # -- lock state --------------------------------------------------------

    def _acquire(self, key: str, node: ast.AST) -> None:
        for held in self._held:
            if held != key:
                self.edges.setdefault((held, key), node)
        self._held.append(key)

    def _release(self, key: str) -> None:
        if key in self._held:
            self._held.reverse()
            self._held.remove(key)
            self._held.reverse()

    def _with_lock_keys(self, node: ast.With) -> List[str]:
        keys = []
        for item in node.items:
            expr = item.context_expr
            key = self.defs.resolve_lock(expr, self.enclosing_class)
            if key is None and isinstance(expr, ast.Call):
                # ``with value.get_lock():`` — multiprocessing shared
                # values expose their lock through a call.
                if (
                    isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "get_lock"
                ):
                    key = f"{self.module.module_name}.<get_lock>"
            if key is not None:
                keys.append(key)
        return keys

    def visit_With(self, node: ast.With) -> None:
        keys = self._with_lock_keys(node)
        for key in keys:
            self._acquire(key, node)
        self.generic_visit(node)
        for key in reversed(keys):
            self._release(key)

    # -- function boundaries reset lock state ------------------------------

    def _enter_function(self, node) -> None:
        held, self._held = self._held, []
        self._enter(node, node.name)
        self._held = held

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # -- calls: acquire/release, blocking, thread creation ------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = resolve(node.func, self.imports)
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("acquire", "release"):
                key = self.defs.resolve_lock(
                    node.func.value, self.enclosing_class
                )
                if key is not None:
                    if attr == "acquire":
                        self._acquire(key, node)
                    else:
                        self._release(key)
                self.generic_visit(node)
                return
            if attr in _BLOCKING_METHODS and not has_timeout_argument(node):
                receiver = resolve(node.func.value, self.imports) or "<expr>"
                if self._held:
                    self.add(
                        "CON302",
                        node,
                        f"untimed blocking call {receiver}.{attr}() while "
                        f"holding lock {self._held[-1]}",
                        "pass an explicit timeout and handle expiry; a "
                        "wedged peer must not stall every thread behind "
                        "this lock",
                    )
                else:
                    self.add(
                        "CON303",
                        node,
                        f"untimed blocking call {receiver}.{attr}()",
                        "pass an explicit timeout (or put an allow comment "
                        "above this site with the reason it may block forever)",
                    )
        if name == "threading.Thread":
            if not any(kw.arg == "daemon" for kw in node.keywords):
                self.add(
                    "CON304",
                    node,
                    "threading.Thread without an explicit daemon= story",
                    "pass daemon=True (supervised helper threads) or "
                    "daemon=False with a visible join on every exit path",
                )
        self.generic_visit(node)


def _find_cycles(edges: Dict[Tuple[str, str], ast.AST]) -> List[List[str]]:
    """Every elementary cycle (deduplicated by node set), as node paths."""
    graph: Dict[str, Set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
    cycles: List[List[str]] = []
    seen_sets: Set[frozenset] = set()

    def dfs(start: str, node: str, path: List[str]) -> None:
        for succ in sorted(graph.get(node, ())):
            if succ == start:
                signature = frozenset(path)
                if signature not in seen_sets:
                    seen_sets.add(signature)
                    cycles.append(path + [start])
            elif succ not in path:
                dfs(start, succ, path + [succ])

    for start in sorted(graph):
        dfs(start, start, [start])
    return cycles


def check_concurrency(module: Module, imports: Dict[str, str]) -> List[Finding]:
    if module.package not in CONCURRENCY_PACKAGES:
        return []
    definitions = _LockDefinitions(module, imports)
    definitions.visit(module.tree)
    visitor = ConcurrencyVisitor(module, imports, definitions)
    findings = visitor.run()
    for cycle in _find_cycles(visitor.edges):
        # Anchor the finding at the first recorded edge of the cycle.
        first_edge = None
        for src, dst in zip(cycle, cycle[1:]):
            if (src, dst) in visitor.edges:
                first_edge = visitor.edges[(src, dst)]
                break
        anchor = first_edge if first_edge is not None else module.tree
        findings.append(
            Finding(
                rule="CON301",
                file=module.file,
                line=getattr(anchor, "lineno", 0),
                symbol="",
                message=(
                    "lock-order cycle: " + " -> ".join(cycle)
                ),
                hint=(
                    "impose one global acquisition order (acquire the "
                    "locks in a fixed sequence everywhere) or collapse "
                    "them into one lock"
                ),
                snippet=module.snippet(anchor),
            )
        )
    return findings
