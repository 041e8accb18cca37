"""The one way to describe an analysis: :class:`AnalysisRequest`.

A request is built at an edge — ``repro.cli._request`` from the command
line, ``repro.service.runners._request`` from a job spec, a library
caller's own code — and travels whole through ``run_experiment`` and the
experiment drivers to :func:`repro.analysis.streaming.analyze`, the one
replay driver and the one place that spells its fields out.  Nothing in
between takes ``jobs``/``timeout``/``max_retries``/``verify_archive``
apart; the fault ladder's per-rung ``replace(request, degraded=...)`` is
the only edit.

Every field is declared once (:func:`declare`): kind, bounds, default,
one-line doc and CLI flag.  Construction checks it (:class:`FieldTable`),
and the job store's config checks, the CLI's analysis flags and the field
list of ``docs/API.md`` are derived from the same declarations.
``to_config``/``from_config`` give the canonical defaults-omitted dict the
service job store content-addresses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import Field, dataclass, field, fields, replace
from typing import Any, Dict, Optional

from repro.errors import AnalysisError
from repro.resilience.pool import PoolConfig


@dataclass(frozen=True)
class Rule:
    """What one declared field admits, and what it means.

    ``kind`` is ``"flag"`` (``True``/``False``), ``"count"`` (an ``int`` in
    ``[low, high]``, ``why`` giving the reason for ``high``),
    ``"seconds"`` (a real number > 0, stored as a ``float`` so ``1`` and
    ``1.0`` are one value; ``finite`` refuses infinity too) or ``"text"``
    (a non-empty ``str``).  A field whose default is ``None`` also admits
    ``None``, meaning ``unset``.
    """

    kind: str
    doc: str
    flag: Optional[str] = None
    low: int = 0
    high: Optional[int] = None
    why: str = ""
    finite: bool = False
    unset: str = ""

    def expects(self, nullable: bool) -> str:
        """The admitted values, in the words of every edge's error."""
        if self.kind == "flag":
            text = "True or False"
        elif self.kind == "count":
            text = f"an integer >= {self.low}"
            if self.high is not None:
                text += f" and <= {self.high} ({self.why})"
        elif self.kind == "text":
            text = "a non-empty string"
        else:
            text = "a number of seconds > 0" + (" and finite" if self.finite else "")
        return text + (" or None" if nullable else "")

    def admit(self, name: str, value: Any, default: Any) -> Any:
        """*value* as field *name* stores it, or an error naming the field."""
        if value is None and default is None:
            return None
        if self.kind == "flag":
            if type(value) is bool:
                return value
        elif self.kind == "count":
            if type(value) is int and self.low <= value and (
                self.high is None or value <= self.high
            ):
                return value
        elif self.kind == "text":
            if type(value) is str and value:
                return value
        elif isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                seconds = float(value)
            except OverflowError:  # an integer no float can hold
                seconds = math.nan
            if seconds > 0 and not (self.finite and seconds == math.inf):  # NaN fails
                return seconds
        raise AnalysisError(f"{name} must be {self.expects(default is None)}, got {value!r}")


#: What a random seed admits, at every edge that takes one: ``--seed``, the
#: job store, ``run_experiment``, ``MetaMPIRuntime`` and the chaos harness.
SEED = Rule("count", "random seed", flag="--seed", unset="per-artifact")


def declare(default: Any, kind: Any, doc: str = "", **rule: Any) -> Any:
    """A dataclass field carrying its :class:`Rule` as ``metadata["rule"]``.
    *kind* may be another field's rule, admitted alike (its doc if no *doc*)."""
    base = kind if isinstance(kind, Rule) else Rule(kind, doc)
    return field(default=default, metadata={"rule": replace(base, doc=doc or base.doc, **rule)})


def rule_of(table: Any, name: str) -> Rule:
    """The :class:`Rule` of *table*'s field *name*."""
    return declared(table)[name].metadata["rule"]


def declared(table: Any) -> Dict[str, Field]:
    """A declared table's fields by name."""
    return {f.name: f for f in fields(table)}


class FieldTable:
    """A frozen dataclass of declared fields, each admitted by its rule."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = f.metadata["rule"].admit(f.name, getattr(self, f.name), f.default)
            object.__setattr__(self, f.name, value)

    def to_config(self) -> Dict[str, Any]:
        """Canonical plain-dict form with every default omitted, so an
        all-defaults request is ``{}``: the empty config older job specs
        hashed, whose stored keys therefore stay valid."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }

    @classmethod
    def from_config(cls, config: Dict[str, Any], **overrides: Any) -> Any:
        """Rebuild an instance from :meth:`to_config` output (plus overrides)."""
        unknown = set(config) - set(declared(cls))
        if unknown:
            raise AnalysisError(f"unknown analysis config keys: {sorted(unknown)}")
        return cls(**{**config, **overrides})


@dataclass(frozen=True)
class AnalysisRequest(FieldTable):
    """Everything that selects *how* a run is analyzed.

    Each field's meaning, bounds and default are its declaration;
    ``docs/API.md`` lists them and says more.  Unlike ``timeout`` (one
    shard attempt), ``deadline_s`` bounds the request: on expiry the local
    phase admits no further rank, the ranks admitted so far are analyzed
    whole, and the result is partial — honest per-rank completeness and
    ``result.interrupted`` set — instead of raising or hanging.
    """

    degraded: bool = declare(
        False, "flag", "survive damaged traces: salvage and exclude instead of raising"
    )
    jobs: Optional[int] = declare(
        None, "count", "analysis worker processes: 1=serial, 0=one per core",
        flag="--jobs", unset="serial",
        high=1024, why="a worker per rank of the benchmark ladder's largest world",
    )
    timeout: Optional[float] = declare(
        None, "seconds", "per-shard deadline for parallel analysis workers",
        flag="--timeout", unset=f"{PoolConfig.timeout_s:g}",
    )
    max_retries: Optional[int] = declare(
        None, "count", "re-dispatches allowed after a worker crash/hang",
        flag="--max-retries", unset=f"{PoolConfig.max_retries}",
        high=16, why="the backoff doubles: the 16th retry waits ~27 min",
    )
    verify_archive: bool = declare(
        False, "flag", "checksum-verify trace archives before analysis", flag="--verify-archive"
    )
    timeline: bool = declare(
        False, "flag", "append rolling-window severity series to the report", flag="--timeline"
    )
    window_s: float = declare(
        1.0, "seconds", "rolling-window width of the severity timeline",
        flag="--window", finite=True,
    )
    stride_s: float = declare(
        0.25, "seconds", "bin stride of the severity timeline", flag="--stride", finite=True
    )
    bounded: bool = declare(
        False, "flag",
        "bounded-memory streaming replay (identical severity; drops the per-rank Gantt data)",
        flag="--bounded",
    )
    deadline_s: Optional[float] = declare(
        None, "seconds", "wall-clock budget for the whole analysis", unset="unbounded"
    )
