"""Typed findings and the check report — the linter's output contract.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`~Finding.identity` deliberately excludes the line *number*: baseline
entries match on ``(rule, file, enclosing symbol, source line text)`` so
unrelated edits above a baselined site do not invalidate the baseline,
while any edit *to* the flagged line does — exactly the stability a
checked-in suppression list needs.

:class:`CheckReport` aggregates findings and suppressions and renders the
two CLI formats.  The JSON form is schema-stable (pinned by
``tests/test_check_cli.py``): top-level keys ``version``, ``root``,
``ok``, ``findings``, ``suppressed``, ``rules``; each finding carries
``rule``, ``file``, ``line``, ``symbol``, ``message``, ``hint``,
``snippet``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Rule id → one-line contract, the catalogue ``docs/CHECKS.md`` expands.
RULES: Dict[str, str] = {
    "DET101": "no unseeded random generators (np.random.default_rng() / "
    "random.* / np.random.* module-level state)",
    "DET102": "no clock reads (time.time/monotonic/perf_counter, "
    "datetime.now) in result-bearing packages",
    "DET103": "wall-clock reads outside result-bearing packages must "
    "route through repro.wallclock.wallclock()",
    "DET104": "no iteration over set/frozenset or os.listdir feeding "
    "results — wrap in sorted()",
    "ATM201": "no bare open(..., 'w'/'wb') writes in durable-file "
    "packages — use the atomic temp-file + replace helpers",
    "ATM202": "os.rename is not atomic-overwrite on all platforms — "
    "use os.replace",
    "CON301": "lock-acquisition order must be acyclic within a module",
    "CON302": "no blocking call without a timeout while holding a lock",
    "CON303": "no untimed blocking calls (.wait()/.get()/.join()/.recv()) "
    "in the threaded packages",
    "CON304": "threading.Thread needs an explicit daemon= story",
    "API401": "repro.api.__all__ must match the snapshot contract "
    "(api_snapshot.json)",
    "API402": "DeprecationWarning shims must be registered with an "
    "unexpired removal window",
    "ARC501": "no garbage-collector switches in the program (disable / "
    "freeze / set_threshold)",
    "ARC502": "the simulator schedules bound methods: no lambda handed to "
    "call_at/call_later",
    "ARC503": "a name a refactor removed from every tracked file is back",
    "ARC504": "a name a refactor removed from the program and its tests is back",
    "ARC505": "analysis/streaming.py admits no rank: the local phase does",
    "ARC506": "only the benchmark constructs the analyzer adapter: call "
    "analyze",
    "ARC507": "analysis/parallel.py does not import the replay driver",
    "ARC508": "the engine and its consumers do not import the object-wise "
    "reference engine",
    "ARC510": "experiment drivers take request=, not its fields",
    "ARC511": "api.py's runners take request=, not its fields",
    "ARC512": "ServiceConfig does not regain the pool tunables",
    "ARC514": "cli.py hand-writes a flag a declared field or Rule generates",
    "ARC515": "_cmd_serve spells a ServiceConfig field: build it with "
    "_request(args, ServiceConfig)",
    "ARC518": "trace/encoding.py walks the record grammar in at most three "
    "while loops",
    "ARC519": "only trace/encoding.py indexes the record stride table",
    "ARC520": "the replay grows no per-op objects back",
    "ARC521": "the severity timeline grows no per-cell store or bin loop back",
    "ARC523": "the simulator computes collective costs only in "
    "sim/collectives.py",
    "ARC524": "resilience/pool.py waits on its workers, not on a timer",
    "ARC526": "a string import outside repro/exports.py: import by statement, "
    "or export lazily from a package table",
    "ARC528": "sim/mpi.py is the application API: it imports no engine, "
    "point-to-point, world, runtime or network module",
    "BASE001": "baseline entry matches no finding — remove the stale entry",
    "BASE002": "baseline entry carries no justification — add a reason",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    file: str  # posix-style path relative to the scan root's parent
    line: int
    symbol: str  # enclosing def/class qualname; "" at module level
    message: str
    hint: str
    snippet: str  # stripped source line, the baseline's match anchor

    def identity(self) -> Tuple[str, str, str, str]:
        """Line-number-free identity used for baseline matching."""
        return (self.rule, self.file, self.symbol, self.snippet)

    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    root: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        self.suppressed.sort(key=lambda f: (f.file, f.line, f.rule))

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> Dict[str, Any]:
        """Schema-stable JSON form (see module docstring)."""
        return {
            "version": 1,
            "root": self.root,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": len(self.suppressed),
            "rules": self.by_rule(),
        }

    def to_text(self) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(
                f"{finding.location()}: {finding.rule} "
                f"[{finding.symbol or '<module>'}] {finding.message}"
            )
            lines.append(f"    {finding.snippet}")
            lines.append(f"    hint: {finding.hint}")
        if self.findings:
            counts = ", ".join(
                f"{rule} x{n}" for rule, n in sorted(self.by_rule().items())
            )
            lines.append("")
            lines.append(
                f"{len(self.findings)} finding(s) ({counts}); "
                f"{len(self.suppressed)} baselined"
            )
        else:
            lines.append(
                f"repro check: clean ({len(self.suppressed)} baselined site(s))"
            )
        return "\n".join(lines)
