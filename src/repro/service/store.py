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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.analysis.request import AnalysisRequest
from repro.errors import JobValidationError
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
_ANALYZE_EXPERIMENTS = ("figure6", "figure7")
_SIMULATE_EXPERIMENTS = ("imbalance",)

#: What both analysing kinds accept: name → (description, validator).
_REQUEST_SCHEMA: Dict[str, Any] = {
    "timeout": ("positive number", lambda v: _is_number(v) and v > 0),
    "max_retries": ("non-negative integer", lambda v: _is_int(v) and v >= 0),
    "verify_archive": ("boolean", lambda v: isinstance(v, bool)),
    "deadline_s": ("positive number", lambda v: _is_number(v) and v > 0),
}

#: Per-kind whitelist of ``config`` keys.  Apart from ``coupling_intervals``
#: every key of the analysing kinds is an ``AnalysisRequest`` field: the
#: runner builds its request with ``from_config``, so admitted is served.
_CONFIG_SCHEMA: Dict[str, Dict[str, Any]] = {
    "run_experiment": _REQUEST_SCHEMA,
    "analyze": {
        **_REQUEST_SCHEMA,
        "coupling_intervals": ("positive integer", lambda v: _is_int(v) and v >= 1),
        "timeline": ("boolean", lambda v: isinstance(v, bool)),
        "window_s": ("positive number", lambda v: _is_number(v) and v > 0),
        "stride_s": ("positive number", lambda v: _is_number(v) and v > 0),
        "bounded": ("boolean", lambda v: isinstance(v, bool)),
    },
    "simulate": {
        "ranks": ("integer >= 2", lambda v: _is_int(v) and v >= 2),
        "metahosts": ("positive integer", lambda v: _is_int(v) and v >= 1),
        "iterations": ("positive integer", lambda v: _is_int(v) and v >= 1),
        "deadline_s": ("positive number", lambda v: _is_number(v) and v > 0),
    },
}


#: Request fields whose value is a duration: an integer means the float.
_SECONDS = ("timeout", "deadline_s", "window_s", "stride_s")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    # An integer no float can hold is no duration: ``float()`` of it and
    # ``Deadline`` arithmetic on it raise OverflowError.
    return (_is_int(value) and abs(value) < 1e308) or isinstance(value, float)


def canonical_spec(raw: Mapping[str, Any], *, default_jobs: int = 1) -> Dict[str, Any]:
    """Validate a submission and reduce it to its canonical form.

    The canonical spec is the *meaning* of the job:
    ``{"kind", "experiment", "seed", "jobs", "config"}``, ``seed`` and
    ``jobs`` made explicit.  Submissions that differ only in key order,
    omitted defaults, or JSON-irrelevant formatting canonicalize
    identically — the foundation of :func:`job_key` dedup.  The
    :class:`~repro.analysis.request.AnalysisRequest` fields of an
    analysing kind's ``config`` — given as a plain dict or as a request,
    whose ``jobs`` lifts into the spec's top-level field — are normalised
    one way, ``AnalysisRequest.from_config(...).to_config()``: a field
    left at or set to its default is omitted, and a duration (``timeout``,
    ``deadline_s``, ``window_s``, ``stride_s``) is a float whether it
    arrived as ``1`` or ``1.0``.  ``coupling_intervals`` and the
    ``simulate`` keys are kept as submitted.

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
    if kind == "run_experiment":
        from repro.api import EXPERIMENTS  # deferred: api imports this package

        if experiment not in EXPERIMENTS:
            raise JobValidationError(
                f"unknown experiment {experiment!r}; "
                f"choose from: {', '.join(sorted(EXPERIMENTS))}"
            )
    elif kind == "analyze":
        if experiment not in _ANALYZE_EXPERIMENTS:
            raise JobValidationError(
                f"analyze jobs support {', '.join(_ANALYZE_EXPERIMENTS)}; "
                f"got {experiment!r}"
            )
    else:  # simulate
        if experiment not in _SIMULATE_EXPERIMENTS:
            raise JobValidationError(
                f"simulate jobs support {', '.join(_SIMULATE_EXPERIMENTS)}; "
                f"got {experiment!r}"
            )

    seed = raw.get("seed")
    if seed is None:
        from repro.api import DEFAULT_SEEDS

        seed = DEFAULT_SEEDS.get(experiment, 0)
    if not _is_int(seed):
        raise JobValidationError(f"seed must be an integer, got {seed!r}")

    config = raw.get("config") or {}
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
        jobs = request_jobs
    if jobs is None:
        jobs = default_jobs
    if not _is_int(jobs) or jobs < 0:
        raise JobValidationError(
            f"jobs must be a non-negative integer (0 = one per core), got {jobs!r}"
        )
    schema = _CONFIG_SCHEMA[kind]
    clean: Dict[str, Any] = {}
    for key in sorted(config):
        if key not in schema:
            raise JobValidationError(
                f"config key {key!r} is not valid for {kind} jobs; "
                f"allowed: {', '.join(sorted(schema)) or '(none)'}"
            )
        expected, check = schema[key]
        value = config[key]
        if not check(value):
            raise JobValidationError(f"config {key!r} must be a {expected}, got {value!r}")
        clean[key] = value
    if kind != "simulate":
        fields = {k: float(v) if k in _SECONDS else v for k, v in clean.items()}
        intervals = fields.pop("coupling_intervals", None)
        fields = AnalysisRequest.from_config(fields).to_config()
        if intervals is not None:
            fields["coupling_intervals"] = intervals
        clean = dict(sorted(fields.items()))

    return {
        "kind": kind,
        "experiment": experiment,
        "seed": seed,
        "jobs": jobs,
        "config": clean,
    }


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

    def to_payload(self) -> Dict[str, Any]:
        return {
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
        self._records: Dict[str, JobRecord] = {}
        for canon, payload in self._journal.cells().items():
            try:
                cell = json.loads(canon)
            except ValueError:  # pragma: no cover - journal guarantees JSON keys
                continue
            if not (isinstance(cell, dict) and "job" in cell):
                continue  # foreign cell (shared path misuse); leave it alone
            try:
                record = JobRecord.from_payload(payload)
            except (KeyError, TypeError, ValueError):
                continue  # damaged payload degrades to "job unknown"
            self._records[record.key] = record
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

    # -- persistence -----------------------------------------------------------

    def save(self, record: JobRecord) -> None:
        """Persist a job's current state durably (fsync'd) before returning."""
        self._records[record.key] = record
        self._last_seq = max(self._last_seq, record.seq)
        self._journal.record({"job": record.key}, record.to_payload())

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
