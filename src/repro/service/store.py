"""Durable, idempotent job store for the analysis service.

Two properties carry the service's crash-safety story, and both live
here:

* **Durability** — every state transition of a job (accepted, running,
  done, failed) is persisted through a
  :class:`~repro.resilience.checkpoint.CheckpointJournal` *before* the
  transition is acknowledged to anyone.  The journal appends one fsync'd
  line per transition (the last line of a job wins on load; compaction
  rewrites atomically), so a save costs the same at any store size and a
  SIGKILL at any instant leaves a loadable store; on restart, every job
  that was accepted is still there and every job that was mid-run is
  found in ``running`` state and re-queued.
* **Memory** — records in memory carry no result; a done job's result
  stays in its journal line, as the bytes its worker encoded, until
  :meth:`JobStore.result_bytes` slices it back out (checked, never parsed).
* **Idempotency** — a job's identity is :func:`job_key`, the SHA-256 of
  its *canonicalized* specification.  Two submissions that mean the same
  work (same kind, experiment, seed, jobs, config — regardless of key
  order or defaulted fields) collapse onto one record, so resubmitting a
  finished job is a cache hit and resubmitting a queued one is a no-op.

The store itself is deliberately passive: no threads, no locks beyond
the journal's inter-process writer lock (``exclusive=True`` — a second
service on the same store fails fast with
:class:`~repro.errors.CheckpointLockError`).  Serialization of concurrent
access within one process is the :class:`~repro.service.app.AnalysisService`'s
job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.request import (
    DEFAULT_SEEDS,
    SEED,
    AnalysisRequest,
    FieldTable,
    declare,
    declared,
    rule_of,
)
from repro.errors import AnalysisError, CheckpointError, JobValidationError
from repro.resilience.checkpoint import CheckpointJournal

__all__ = [
    "ACCEPTED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "JOB_KINDS",
    "canonical_spec",
    "job_key",
    "JobRecord",
    "JobStore",
]

#: Job lifecycle states.  ``accepted`` and ``running`` are recoverable
#: (re-queued on restart); ``done``, ``failed`` and ``cancelled`` are
#: terminal.  A cancelled job (client ``DELETE`` or deadline expiry) is
#: deliberately *not* recoverable — the whole point of cancelling is that
#: a restart must not resurrect the work — but it may be re-admitted by a
#: fresh submission or ``requeue``.
ACCEPTED = "accepted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)
RECOVERABLE = (ACCEPTED, RUNNING)

JOB_KINDS = ("simulate", "analyze", "run_experiment")

#: Experiments each kind accepts.  ``analyze`` jobs run the MetaTrace
#: pipeline end to end (simulate + replay) and expose the severity cube;
#: ``simulate`` jobs run a workload and report archive integrity only.
_EXPERIMENTS = {"analyze": ("figure6", "figure7"), "simulate": ("imbalance",)}


@dataclass(frozen=True)
class AnalyzeConfig(AnalysisRequest):
    """An ``analyze`` job's config: the request plus the workload size."""

    coupling_intervals: Optional[int] = declare(
        None, "count", "MetaTrace coupling intervals to simulate", unset="the figure's own",
        low=1, high=100, why="figures 6 and 7 run 6; 100 simulate and replay in seconds",
    )


@dataclass(frozen=True)
class SimulateConfig(FieldTable):
    """A ``simulate`` job's config: the imbalance workload's size."""

    ranks: int = declare(
        4, "count", "world size", low=2, high=1024, why="the benchmark ladder's largest world"
    )
    metahosts: int = declare(
        2, "count", "metahosts the ranks are placed on", low=1, high=64,
        why="the inter-metahost link table grows with its square",
    )
    iterations: int = declare(
        4, "count", "compute-and-ring rounds per rank", low=1, high=100,
        why="1024 ranks x 100 rounds simulate in seconds",
    )
    deadline_s: Optional[float] = declare(None, rule_of(AnalysisRequest, "deadline_s"))


#: Per-kind config: the table that checks it and the keys it admits.
#: ``run_experiment`` renders text, which a timeline or ``bounded`` cannot
#: change, so it admits only the supervision and budget fields.
_RUN_KEYS = frozenset({"timeout", "max_retries", "verify_archive", "deadline_s"})
_CONFIG: Dict[str, Tuple[type, frozenset]] = {
    "run_experiment": (AnalysisRequest, _RUN_KEYS),
    "analyze": (
        AnalyzeConfig,
        _RUN_KEYS | {"coupling_intervals", "timeline", "window_s", "stride_s", "bounded"},
    ),
    "simulate": (SimulateConfig, frozenset(declared(SimulateConfig))),
}


def canonical_spec(raw: Mapping[str, Any], *, default_jobs: int = 1) -> Dict[str, Any]:
    """Validate a submission and reduce it to its canonical form.

    The canonical spec is the *meaning* of the job:
    ``{"kind", "experiment", "seed", "jobs", "config"}``, ``seed`` and
    ``jobs`` made explicit.  Submissions that differ only in key order,
    omitted defaults, or JSON-irrelevant formatting canonicalize
    identically — the foundation of :func:`job_key` dedup.  A ``config``
    — a plain dict, or for the analysing kinds an ``AnalysisRequest``
    whose ``jobs`` lifts into the spec's top-level field — is built
    through its kind's declared table (``AnalysisRequest``,
    :class:`AnalyzeConfig`, :class:`SimulateConfig`) and read back with
    ``to_config()``: a field left at or set to its default is omitted,
    and a duration is a float whether it arrived as ``1`` or ``1.0``.

    Raises :class:`~repro.errors.JobValidationError` on anything
    malformed, with a message precise enough to fix the submission.
    """
    if not isinstance(raw, Mapping):
        raise JobValidationError("job specification must be a JSON object")
    allowed = {"kind", "experiment", "seed", "jobs", "config"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise JobValidationError(
            f"unknown job field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )

    kind = raw.get("kind", "run_experiment")
    if kind not in JOB_KINDS:
        raise JobValidationError(
            f"unknown job kind {kind!r}; choose from: {', '.join(JOB_KINDS)}"
        )

    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise JobValidationError("job needs an 'experiment' name (string)")
    choices = sorted(DEFAULT_SEEDS) if kind == "run_experiment" else _EXPERIMENTS[kind]
    if experiment not in choices:
        raise JobValidationError(
            f"{kind} jobs support {', '.join(choices)}; got {experiment!r}"
        )
    seed = raw.get("seed")
    try:
        seed = SEED.admit("seed", DEFAULT_SEEDS.get(experiment, 0) if seed is None else seed, 0)
    except AnalysisError as exc:
        raise JobValidationError(str(exc)) from None

    config = raw.get("config")
    if config is None:
        config = {}
    request_jobs = None
    if isinstance(config, AnalysisRequest):
        # Its ``jobs`` belongs to the spec's top-level field, not the config.
        config = config.to_config()
        request_jobs = config.pop("jobs", None)
    if not isinstance(config, Mapping):
        raise JobValidationError("config must be a JSON object")

    jobs = raw.get("jobs")
    if jobs is not None and request_jobs is not None and jobs != request_jobs:
        raise JobValidationError(
            f"job field jobs={jobs!r} conflicts with the analysis request's "
            f"jobs={request_jobs!r}; set one of them"
        )
    if jobs is None:
        jobs = default_jobs if request_jobs is None else request_jobs
    table, allowed = _CONFIG[kind]
    for key in sorted(config):
        if key not in allowed:
            raise JobValidationError(
                f"config key {key!r} is not valid for {kind} jobs; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
    try:
        jobs = AnalysisRequest(jobs=jobs).jobs
        clean = table(**config).to_config()
    except AnalysisError as exc:
        raise JobValidationError(str(exc)) from None

    return {
        "kind": kind,
        "experiment": experiment,
        "seed": seed,
        "jobs": jobs,
        "config": dict(sorted(clean.items())),
    }


def splice(obj: Mapping[str, Any], key: str, raw: bytes) -> bytes:
    """``json.dumps({**obj, key: value}, sort_keys=True)``, where *raw* is
    that encoding of ``value``: the bytes go in unparsed."""
    before = json.dumps({k: v for k, v in obj.items() if k < key}, sort_keys=True)
    after = json.dumps({k: v for k, v in obj.items() if k > key}, sort_keys=True)
    head = before[:-1] + (", " if len(before) > 2 else "") + json.dumps(key) + ": "
    tail = (", " + after[1:]) if len(after) > 2 else "}"
    return head.encode() + raw + tail.encode()


def job_key(spec: Mapping[str, Any]) -> str:
    """Content-addressed identity of a canonical spec (SHA-256 hex)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    """One job's full lifecycle, exactly as journaled.

    ``phase`` is the human-readable progress string shown by the polling
    endpoint; it is in-memory detail between journal writes (only the
    phase at each durable transition survives a crash, which is all a
    restarted service needs).
    """

    key: str
    seq: int
    spec: Dict[str, Any]
    status: str = ACCEPTED
    attempts: int = 0
    phase: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    execution: Optional[Dict[str, Any]] = field(default=None)
    #: The slot's :class:`~repro.resilience.pool.ExecutionReport` of a run
    #: that was not clean (a killed worker and a re-run, or a run in the
    #: server); a clean record has none and keeps its bytes.
    recovery: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "key": self.key,
            "seq": self.seq,
            "spec": self.spec,
            "status": self.status,
            "attempts": self.attempts,
            "phase": self.phase,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
            "execution": self.execution,
        }
        if self.recovery is not None:
            payload["recovery"] = self.recovery
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobRecord":
        return cls(
            key=str(payload["key"]),
            seq=int(payload["seq"]),
            spec=dict(payload["spec"]),
            status=str(payload["status"]),
            attempts=int(payload.get("attempts", 0)),
            phase=str(payload.get("phase", "")),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            result=payload.get("result"),
            error=payload.get("error"),
            execution=payload.get("execution"),
            recovery=payload.get("recovery"),
        )

    def summary(self) -> Dict[str, Any]:
        """Compact listing entry (everything but the result payloads)."""
        return {
            "key": self.key,
            "seq": self.seq,
            "kind": self.spec.get("kind"),
            "experiment": self.spec.get("experiment"),
            "seed": self.spec.get("seed"),
            "status": self.status,
            "attempts": self.attempts,
            "phase": self.phase,
            "error": self.error,
        }


def job_records(journal: CheckpointJournal) -> List[JobRecord]:
    """Every job in *journal*, without results, in submission order (reads take no lock)."""
    records = []
    for canon, payload in journal.items():
        cell = json.loads(canon)
        if not (isinstance(cell, dict) and "job" in cell):
            continue  # foreign cell (shared path misuse); leave it alone
        try:
            records.append(JobRecord.from_payload({**payload, "result": None}))
        except (KeyError, TypeError, ValueError):
            continue  # damaged payload degrades to "job unknown"
    return sorted(records, key=lambda r: r.seq)


class JobStore:
    """Journal-backed map of job key → :class:`JobRecord`.

    Opening the store takes the journal's writer lock immediately
    (``exclusive=True``): one store, one writer process, enforced at the
    file-system level.  Loading tolerates a torn journal tail exactly as
    the journal itself does — the at-most-one transition an interrupted
    :meth:`save` can lose is re-derived by the recovery scan.
    """

    def __init__(self, path: str) -> None:
        self._journal = CheckpointJournal(path, exclusive=True)
        self._records: Dict[str, JobRecord] = {
            record.key: record for record in job_records(self._journal)
        }
        self._last_seq = max((r.seq for r in self._records.values()), default=0)

    @property
    def path(self) -> str:
        return self._journal.path

    # -- queries ---------------------------------------------------------------

    def get(self, key: str) -> Optional[JobRecord]:
        return self._records.get(key)

    def records(self) -> List[JobRecord]:
        """Every job, in submission order."""
        return sorted(self._records.values(), key=lambda r: r.seq)

    def pending(self) -> List[JobRecord]:
        """Jobs a restarted service must finish, in submission order."""
        return [r for r in self.records() if r.status in RECOVERABLE]

    def next_seq(self) -> int:
        return self._last_seq + 1

    def __len__(self) -> int:
        return len(self._records)

    def result_bytes(self, key: str) -> bytes:
        """Done job *key*'s result as JSON bytes: the slice of its journal line
        between the record's own fields when both match byte for byte, else parsed."""
        payload, record = self._journal.payload_bytes({"job": key}), self._records.get(key)
        raw = b"null"
        if payload is not None and record is not None:
            # JSON escapes a NUL, so the marker splits the record's own encoding in two.
            head, _, tail = splice(record.to_payload(), "result", b"\0").partition(b"\0")
            fits = len(payload) > len(head) + len(tail)
            if fits and payload.startswith(head) and payload.endswith(tail):
                raw = payload[len(head) : len(payload) - len(tail)]
            elif isinstance(parsed := json.loads(payload), dict):
                raw = json.dumps(parsed.get("result"), sort_keys=True).encode()
        if raw == b"null":
            raise CheckpointError(
                f"result of job {key} cannot be read back: its journal line is damaged or gone"
            )
        return raw

    def result(self, key: str) -> Dict[str, Any]:
        """Done job *key*'s result, parsed."""
        return json.loads(self.result_bytes(key))

    # -- persistence -----------------------------------------------------------

    def save(self, record: JobRecord, result: Optional[bytes] = None) -> None:
        """Persist a job's state durably (fsync'd) before returning; keep it without
        result.  *result*: a done job's ``json.dumps(result, sort_keys=True)`` bytes."""
        self._records[record.key] = replace(record, result=None)
        self._last_seq = max(self._last_seq, record.seq)
        payload = record.to_payload()
        self._journal.record(
            {"job": record.key}, payload if result is None else splice(payload, "result", result)
        )

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
