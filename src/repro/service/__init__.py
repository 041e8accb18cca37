"""Analysis-as-a-service: a crash-safe async job layer over :mod:`repro.api`.

The package turns the library's three verbs — ``simulate``, ``analyze``,
``run_experiment`` — into *jobs* submitted over HTTP and executed
asynchronously, each whole in a warm worker process supervised by a
:class:`~repro.resilience.pool.SupervisedPool`:

* :mod:`repro.service.store` — the durable, idempotent job store.  Every
  accepted job is journaled (via
  :class:`~repro.resilience.checkpoint.CheckpointJournal`) *before* the
  client sees the acknowledgement, keyed by a content-addressed hash of
  its canonicalized specification, so a SIGKILL'd service resumes exactly
  the accepted work on restart and a duplicate submission is served from
  cache instead of recomputed.
* :mod:`repro.service.runners` — maps a canonical job spec onto the
  :mod:`repro.api` facade and produces a JSON-serializable result.
* :mod:`repro.service.app` — :class:`AnalysisService`: lifecycle
  (startup / graceful drain), admission control (bounded queue,
  reject-when-full), the ``pool_workers`` executor slots, and the
  severity-cube query.
* :mod:`repro.service.http` — the stdlib HTTP front end
  (:func:`serve`, ``repro serve``) exposing submission, polling, result
  retrieval, severity queries and health/readiness endpoints.

Everything is standard library only (``http.server`` + threads); the
stable entry points ``create_app``, ``ServiceConfig`` and ``JobStore``
are re-exported through :mod:`repro.api`.
"""

from __future__ import annotations

from repro.service.app import AnalysisService, ServiceConfig, create_app
from repro.service.http import serve
from repro.service.runners import execute_job
from repro.service.store import (
    ACCEPTED,
    DONE,
    FAILED,
    RUNNING,
    JobRecord,
    JobStore,
    canonical_spec,
    job_key,
)

__all__ = [
    "AnalysisService",
    "ServiceConfig",
    "create_app",
    "serve",
    "execute_job",
    "JobStore",
    "JobRecord",
    "canonical_spec",
    "job_key",
    "ACCEPTED",
    "RUNNING",
    "DONE",
    "FAILED",
]
