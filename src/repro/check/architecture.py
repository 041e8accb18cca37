"""Architecture rules (``ARC5xx``): what a refactor removed stays removed.

Each simplicity refactor deleted a layer, a name or a shape and kept a
contract.  These rules keep the contracts, read from one declarative table,
:data:`ROWS`: a row names its rule id (its contract is in
:data:`repro.check.findings.RULES`), the repository paths it covers, a
matcher kind (:data:`MATCHERS`, described in ``docs/CHECKS.md``) and what
that kind matches.  Imports and calls resolve through the module's import
table, so an aliased, ``from``-style or relative import is the same import.
This module is the one file that spells the deleted names, so no row applies
to it, nor to the documents that tell the refactors' story (:data:`SKIPPED`).

Rows speak in repository paths.  :func:`check_architecture` applies them to
the package's modules inside ``repro check``; :func:`check_file` to any other
file, which ``tests/test_check_rules.py`` does for every tracked file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Tuple, Union

from repro.check.findings import RULES, Finding
from repro.check.visitors import Module, import_table, imported_names, resolve

Hits = Iterator[Tuple[int, str]]

#: Files no row applies to: this table and the refactors' story.
SKIPPED = ("src/repro/check/architecture.py", "CHANGES.md", "ROADMAP.md")


@lru_cache(maxsize=None)
def _declared_flags() -> Tuple[str, ...]:
    """Every flag a declared field or a flag-carrying ``Rule`` generates."""
    from repro.analysis.request import CHAOS_GRACE, CHAOS_JOBS, SEED, AnalysisRequest
    from repro.cli import _POLL_INTERVAL
    from repro.service.app import ServiceConfig

    declarations = [*fields(AnalysisRequest), *fields(ServiceConfig)]
    rules = [f.metadata["rule"] for f in declarations]
    rules += [SEED, _POLL_INTERVAL, CHAOS_JOBS, CHAOS_GRACE]
    return tuple(sorted({rule.flag for rule in rules if rule.flag}))


@lru_cache(maxsize=None)
def _service_fields() -> Tuple[str, ...]:
    from repro.service.app import ServiceConfig

    return tuple(f.name for f in fields(ServiceConfig))


@lru_cache(maxsize=None)
def _glob(pattern: str) -> "re.Pattern[str]":
    """``**`` crosses directories, ``*`` does not."""
    parts = re.split(r"(\*\*|\*)", pattern)
    return re.compile("".join({"**": ".*", "*": "[^/]*"}.get(p, re.escape(p)) for p in parts))


@dataclass(frozen=True)
class Row:
    """One architecture rule: where it looks, how, and for what."""

    rule: str
    kind: str
    paths: Tuple[str, ...]
    names: Union[Tuple[str, ...], Callable[[], Tuple[str, ...]]] = ()
    skip: Tuple[str, ...] = ()
    within: str = ""
    limit: int = 0

    def words(self) -> Tuple[str, ...]:
        return self.names() if callable(self.names) else self.names

    def covers(self, path: str) -> bool:
        inside, skipped = (
            any(_glob(p).fullmatch(path) for p in ps) for ps in (self.paths, self.skip)
        )
        return path not in SKIPPED and inside and not skipped


_SRC = "src/**"
_REPLAY_CONSUMERS = (
    *(f"src/repro/analysis/{m}.py"
      for m in ("streaming", "globalphase", "optable", "parallel", "result", "stats",
                "instances")),
    "src/repro/api.py", "src/repro/report/**", "src/repro/predict/**",
    "src/repro/service/**", "src/repro/experiments/**",
)
_REQUEST_FIELDS = ("timeout", "max_retries", "verify_archive")

#: Every name a refactor deleted, by the row that refuses it (ARC503 in
#: every tracked file, ARC504 in the program and its tests), then by the id
#: of the row that first refused it; docs/CHECKS.md tells which refactor
#: removed each.
REMOVED: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "ARC503": {
        "ARC503": ("ParallelReplayAnalyzer", "merge_partials", "remap_callpaths", "analyze_run",
                   "_QUANTUM_OPS", "heapreplace", "exit_event"),
        "ARC516": ("bench_pipeline_hotpath", "bench_parallel_analysis", "bench_perf_",
                   "BENCH_pipeline", "BENCH_parallel", "perf_baseline", "mark.perf", "-m perf",
                   '"perf:'),
    },
    "ARC504": {
        "ARC504": ("pool_config", "with_workers", "exact_expansion", "add_expansion"),
        "ARC509": ("_analysis_opts", "_ANALYSIS_OPTS"),
        "ARC513": ("_is_number", "_is_int", "_SECONDS", "_REQUEST_SCHEMA"),
        "ARC517": ("_record_offsets", "_run_end", "iter_unpack"),
        "ARC522": ("collective_exit_times", "CollectiveTiming"),
        "ARC525": ("LazySequence", "repro.lazyseq"),
        "ARC527": ("handle_signals",),
        "ARC529": ("true_master_time", "SynchronizedTime", "convert_all", ".to_master("),
        "ARC530": ("repro.instrument", "Tracer("),
        "ARC531": ("checks_baseline", "api_snapshot", "update_baseline", "load_snapshot",
                   "BaselineError"),
    },
}

#: The architecture rules, one row per contract.
ROWS: Tuple[Row, ...] = (
    Row("ARC501", "call", ("src/**.py",), ("gc.disable", "gc.freeze", "gc.set_threshold")),
    Row("ARC502", "lambda", ("src/repro/sim/*.py",), ("call_at", "call_later")),
    Row("ARC503", "text", ("**",), sum(REMOVED["ARC503"].values(), ())),
    Row("ARC504", "text", (_SRC, "tests/**"), sum(REMOVED["ARC504"].values(), ())),
    Row("ARC505", "text", ("src/repro/analysis/streaming.py",), ("_admit_rank",)),
    Row("ARC506", "call", (_SRC, "tests/**"), ("StreamingReplayAnalyzer",)),
    Row("ARC507", "import", ("src/repro/analysis/parallel.py",),
        ("repro.analysis.streaming", "analyze")),
    Row("ARC508", "import", _REPLAY_CONSUMERS,
        ("repro.analysis.replay", "repro.analysis.matching",
         "repro.analysis.patterns.point2point", "repro.analysis.patterns.collective",
         "repro.analysis.patterns.grid",
         "ReplayAnalyzer", "MessageMatcher", "MatchedPair", "CollectiveInstance",
         "MPIOpInstance", "SendRecord", "RecvRecord", "CollRecord")),
    Row("ARC510", "param", ("src/repro/experiments/*.py",), _REQUEST_FIELDS),
    Row("ARC511", "param", ("src/repro/api.py",), _REQUEST_FIELDS, within="_run_"),
    Row("ARC512", "field", ("src/repro/service/app.py",), ("timeout_s",)),
    Row("ARC514", "flag", ("src/repro/cli.py",), _declared_flags),
    Row("ARC515", "words", ("src/repro/cli.py",), _service_fields, within="_cmd_serve"),
    Row("ARC518", "loops", ("src/repro/trace/encoding.py",), limit=3),
    Row("ARC519", "text", ("src/**.py",), ("_STRIDES",), skip=("src/repro/trace/encoding.py",)),
    Row("ARC520", "text", ("src/repro/analysis/streaming.py", "src/repro/analysis/globalphase.py"),
        ("MPIOpInstance", "MatchedPair", "CollectiveInstance", "default_p2p_patterns",
         "default_collective_patterns", ".span(", "MessageStamp")),
    Row("ARC521", "text", ("src/repro/analysis/severity_timeline.py",),
        ("setdefault(", "for b in range(")),
    Row("ARC523", "text", ("src/repro/sim/*.py",), ("binomial_depth", "log2", "inv_bw *"),
        skip=("src/repro/sim/collectives.py",)),
    Row("ARC524", "call", ("src/repro/resilience/pool.py",), ("time.sleep",)),
    Row("ARC526", "call", ("src/**.py",), ("importlib.import_module", "__import__"),
        skip=("src/repro/exports.py",)),
    Row("ARC528", "import", ("src/repro/sim/mpi.py",),
        ("repro.sim.engine", "repro.sim.p2p", "repro.sim.world", "repro.sim.runtime",
         "repro.topology.network")),
)


def _named(name: str, names: Tuple[str, ...]) -> bool:
    """*name* is, or ends in, one of *names* (``engine.call_at`` ~ ``call_at``)."""
    return any(name == n or name.endswith("." + n) for n in names)


def _text(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    spelled = re.compile("|".join(map(re.escape, row.words())))
    for number, line in enumerate(module.lines, 1):
        for match in spelled.finditer(line):
            yield number, match.group()


def _import(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    names = row.words()
    for node, _alias, name in imported_names(module.tree, module.dotted_package):
        head, _, last = name.rpartition(".")
        under = any(name == n or name.startswith(n + ".") for n in names if "." in n)
        if under or (head and last in names):
            yield node.lineno, name


def _call(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    for node in ast.walk(module.tree):
        name = resolve(node.func, imports) if isinstance(node, ast.Call) else None
        if name and _named(name, row.words()) and (row.kind == "call" or any(
            isinstance(sub, ast.Lambda)
            for arg in [*node.args, *node.keywords] for sub in ast.walk(arg)
        )):
            yield node.lineno, name


def _param(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    for node in ast.walk(module.tree):
        scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if scope and node.name.startswith(row.within):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.arg in row.words():
                    yield arg.lineno, f"{node.name}({arg.arg})"


def _field(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    for node in ast.walk(module.tree):
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(target, ast.Name) and target.id in row.words():
            yield node.lineno, target.id


def _loops(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    loops = sorted(n.lineno for n in ast.walk(module.tree) if isinstance(n, ast.While))
    if len(loops) > row.limit:
        yield loops[row.limit], f"{len(loops)} while loops, at most {row.limit}"


def _flag(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    nodes = list(ast.walk(module.tree))
    declaring = {  # a Rule's own ``flag="--x"`` is where the flag is declared
        id(k.value) for n in nodes if isinstance(n, ast.Call) for k in n.keywords if k.arg == "flag"
    }
    for node in nodes:
        if isinstance(node, ast.Constant) and node.value in row.words():
            if id(node) not in declaring:
                yield node.lineno, node.value


def _words(row: Row, module: Module, imports: Dict[str, str]) -> Hits:
    word = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, row.words())))
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith(row.within):
            for number in range(node.lineno, node.end_lineno + 1):
                for match in word.finditer(module.lines[number - 1]):
                    yield number, match.group()


#: Matcher kind → ``(line, what)`` for every place a module breaks the row.
MATCHERS = {
    "text": _text, "import": _import, "call": _call, "lambda": _call, "param": _param,
    "field": _field, "loops": _loops, "flag": _flag, "words": _words,
}


def _symbol(tree: ast.Module, line: int) -> str:
    """The qualified name of the def or class around *line* ("" at module level)."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    chain, body = [], tree.body
    while around := [n for n in body if isinstance(n, scopes) and n.lineno <= line <= n.end_lineno]:
        chain.append(around[0].name)
        body = around[0].body
    return ".".join(chain)


def _findings(path: str, module: Module, imports: Dict[str, str], rows) -> List[Finding]:
    return [
        Finding(
            rule=row.rule, file=module.file, line=line, symbol=_symbol(module.tree, line),
            message=f"{RULES[row.rule]} ({what})", hint=f"see {row.rule} in docs/CHECKS.md",
            snippet=module.lines[line - 1].strip(),
        )
        for row in rows if row.covers(path)
        for line, what in MATCHERS[row.kind](row, module, imports)
    ]


def check_architecture(module: Module, imports: Dict[str, str]) -> List[Finding]:
    """ARC findings for one package module (``repro/...`` lives in ``src/``)."""
    return _findings("src/" + module.file, module, imports, ROWS)


def check_file(path: str, text: str) -> List[Finding]:
    """ARC findings for any repository file, by its repository *path*: a
    Python file gets every row, any other file (no syntax tree) the ``text`` rows."""
    empty = ast.Module(body=[], type_ignores=[])
    tree = ast.parse(text, filename=path) if path.endswith(".py") else empty
    module = Module(file=path, tree=tree, lines=text.splitlines())
    return _findings(path, module, import_table(tree, module.dotted_package), ROWS)
