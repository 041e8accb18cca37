"""The one way to describe an analysis: :class:`AnalysisRequest`.

A request is built at an edge — ``repro.cli._request`` from the command
line, ``repro.service.runners._request`` from a job spec, a library
caller's own code — and travels whole through ``run_experiment`` and the
experiment drivers to ``analyze_run``, the one place that spells its
fields out (for ``StreamingReplayAnalyzer``).  Nothing in between takes
``jobs``/``timeout``/``max_retries``/``verify_archive`` apart; the fault
ladder's per-rung ``replace(request, degraded=...)`` is the only edit.

``to_config``/``from_config`` give the request a canonical plain-dict form
(defaults omitted) so the service job store content-addresses identical
requests to identical keys — a request carrying every default serializes
exactly like the empty config that pre-request job specs produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import AnalysisError


@dataclass(frozen=True)
class AnalysisRequest:
    """Everything that selects *how* a run is analyzed.

    Parameters
    ----------
    degraded:
        Survive damaged traces: salvage/exclude instead of raising.
    jobs:
        Where the replay's local phase runs: ``None``/``1`` in-process,
        ``N >= 2`` sharded across *N* pool workers, ``0`` one worker per
        core.  Nothing else about the analysis depends on it.
    timeout:
        Per-shard deadline in seconds for the supervised pool
        (``jobs >= 2`` only).
    max_retries:
        Re-dispatches allowed after a worker crash/hang (``jobs >= 2``
        only).
    verify_archive:
        Verify archive checksums before analyzing (experiment layer).
    timeline:
        Also accumulate a time-resolved :class:`SeverityTimeline` —
        rolling-window severity series per (metric, call path, rank).
    window_s / stride_s:
        Rolling-window width and bin stride of the timeline, in seconds.
    bounded:
        Bounded-memory streaming: drop the per-rank op tables once the
        replay has consumed them, so the result holds nothing O(trace).
        The severity cube and every aggregate are bit-identical either
        way; only ``result.timelines[r].mpi_ops``/``omp_regions`` come
        back empty (so the per-rank Gantt rendering needs
        ``bounded=False``).  A retained result keeps those as lazy
        sequences over numpy columns — a few dozen bytes per operation,
        objects made on read.
    deadline_s:
        End-to-end wall-clock budget for the whole analysis.  Unlike
        ``timeout`` (which bounds one shard attempt), the deadline bounds
        the request: when it expires the analyzer stops cooperatively and
        returns a partial result with honest per-rank completeness and
        ``result.interrupted`` set, instead of raising or hanging.
    """

    degraded: bool = False
    jobs: Optional[int] = None
    timeout: Optional[float] = None
    max_retries: Optional[int] = None
    verify_archive: bool = False
    timeline: bool = False
    window_s: float = 1.0
    stride_s: float = 0.25
    bounded: bool = False
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("jobs", "max_retries"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 0):
                raise AnalysisError(f"{name} must be an integer >= 0 or None, got {value!r}")
        for name in ("timeout", "deadline_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN fails too
                raise AnalysisError(f"{name} must be positive, got {value!r}")
        for name in ("window_s", "stride_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise AnalysisError(f"{name} must be positive and finite, got {value!r}")

    def to_config(self) -> Dict[str, Any]:
        """Canonical plain-dict form with every default omitted.

        Omitting defaults keeps content addresses stable: a request that
        only sets defaults canonicalizes to ``{}``, the same spec config
        that pre-request callers submitted, so existing stored jobs keep
        deduplicating against new submissions.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_config(cls, config: Dict[str, Any], **overrides: Any) -> "AnalysisRequest":
        """Rebuild a request from :meth:`to_config` output (plus overrides)."""
        known = {f.name for f in fields(cls)}
        unknown = set(config) - known
        if unknown:
            raise AnalysisError(
                f"unknown analysis config keys: {sorted(unknown)}"
            )
        merged = {**config, **overrides}
        return cls(**merged)
