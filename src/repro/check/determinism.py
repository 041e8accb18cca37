"""Determinism rules (``DET1xx``).

The replay-clock property — same seed, byte-identical results — only
holds if result-bearing code never consults an unseeded entropy source.
Four rules encode that:

* ``DET101`` — ``np.random.default_rng()`` without a seed, the legacy
  module-level ``np.random.*`` distributions, and the stdlib ``random``
  module are banned everywhere in the tree.  Every generator must be
  constructed from an explicit seed argument.
* ``DET102`` — result-bearing packages (:data:`RESULT_PACKAGES`) may not
  read any clock at all: no ``time.time``/``monotonic``/``perf_counter``,
  no ``datetime.now``.  Simulated time is the only time they know.
* ``DET103`` — outside the result-bearing packages (the service,
  resilience and chaos layers legitimately need wall time for job
  records and drain bookkeeping), wall-clock reads must route through
  :func:`repro.wallclock.wallclock` so every wall-clock dependency in
  the tree is auditable at one import site.  ``time.monotonic`` is
  allowed there — interval measurement is not wall-clock.
* ``DET104`` — iterating a ``set``/``frozenset`` (whose order is
  randomized per process by string-hash randomization) or ``os.listdir``
  (whose order the OS does not define) inside a result-bearing package
  is flagged unless wrapped in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.check.findings import Finding
from repro.check.visitors import Module, RuleVisitor, resolve

#: Packages whose output feeds results (reports, archives, severity
#: cubes).  Clock reads and order-unstable iteration are banned here.
RESULT_PACKAGES = frozenset(
    {
        "sim",
        "analysis",
        "trace",
        "report",
        "clocks",
        "predict",
        "topology",
        "faults",
        "apps",
        "experiments",
        "fs",
    }
)

#: The one module allowed to touch the wall clock directly.
WALLCLOCK_MODULE = "repro/wallclock.py"

#: Canonical dotted names that read the wall clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Clock reads of any kind — banned outright in result-bearing packages.
_ANY_CLOCK = _WALL_CLOCK | {
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
}

#: numpy's legacy global-state distributions (np.random.<fn>(...)).
_NP_RANDOM_GLOBAL_PREFIX = "numpy.random."
_NP_SEEDED_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.SeedSequence",
}


class DeterminismVisitor(RuleVisitor):
    def __init__(self, module: Module, imports: Dict[str, str]) -> None:
        super().__init__(module, imports)
        self.in_result_package = module.package in RESULT_PACKAGES
        self.is_wallclock_module = module.file == WALLCLOCK_MODULE
        #: Function-local names bound to set-producing expressions, used
        #: by DET104's light dataflow pass.
        self._set_names: List[Set[str]] = [set()]

    # -- DET101: unseeded generators --------------------------------------

    def _check_rng(self, node: ast.Call, name: str) -> None:
        if name == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self.add(
                    "DET101",
                    node,
                    "np.random.default_rng() without a seed draws from OS "
                    "entropy — results become irreproducible",
                    "pass an explicit seed derived from the run's seed "
                    "(e.g. default_rng(seed))",
                )
            return
        if name in _NP_SEEDED_FACTORIES:
            return
        if name.startswith(_NP_RANDOM_GLOBAL_PREFIX):
            self.add(
                "DET101",
                node,
                f"{name} uses numpy's hidden global random state",
                "draw from an explicitly seeded Generator instead",
            )
            return
        if name == "random" or name.startswith("random."):
            self.add(
                "DET101",
                node,
                f"stdlib {name} uses interpreter-global random state",
                "use a seeded numpy Generator threaded from the run's seed",
            )

    # -- DET102/DET103: clock reads ---------------------------------------

    def _check_clock(self, node: ast.Call, name: str) -> None:
        if self.in_result_package:
            if name in _ANY_CLOCK or name == "repro.wallclock.wallclock":
                self.add(
                    "DET102",
                    node,
                    f"{name} read in result-bearing package "
                    f"{self.module.package!r}",
                    "result-bearing code must use simulated time only; "
                    "move the measurement to the caller",
                )
            return
        if self.is_wallclock_module:
            return
        if name in _WALL_CLOCK:
            self.add(
                "DET103",
                node,
                f"direct wall-clock read {name}",
                "route through repro.wallclock.wallclock() so wall-clock "
                "dependencies stay auditable at one site",
            )

    # -- DET104: order-unstable iteration ---------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Does this expression statically produce a set?"""
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            name = resolve(node.func, self.imports)
            if name in ("set", "frozenset"):
                return True
            # set(...).union(...) / .intersection(...) / .difference(...)
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return any(node.id in frame for frame in self._set_names)
        return False

    def _is_listdir(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and resolve(node.func, self.imports) == "os.listdir"
        )

    def _check_iteration(self, iterable: ast.expr, node: ast.AST) -> None:
        if not self.in_result_package:
            return
        if self._is_set_expr(iterable):
            self.add(
                "DET104",
                node,
                "iteration over a set — order varies with string-hash "
                "randomization and can leak into results",
                "wrap the iterable in sorted(...)",
            )
        elif self._is_listdir(iterable):
            self.add(
                "DET104",
                node,
                "iteration over os.listdir — the OS does not define its "
                "order",
                "wrap the call in sorted(...)",
            )

    # -- visitor hooks -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = resolve(node.func, self.imports)
        if name is not None:
            self._check_rng(node, name)
            self._check_clock(node, name)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_names[-1].add(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators) -> None:
        for comp in generators:
            self._check_iteration(comp.iter, comp.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def _enter_function(self, node) -> None:
        self._set_names.append(set())
        self._enter(node, node.name)
        self._set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)


def check_determinism(
    module: Module, imports: Dict[str, str]
) -> List[Finding]:
    return DeterminismVisitor(module, imports).run()
