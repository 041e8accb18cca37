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

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.app": ("AnalysisService", "ServiceConfig", "create_app"),
        "repro.service.http": ("serve",),
        "repro.service.runners": ("execute_job",),
        "repro.service.store": (
            "ACCEPTED", "DONE", "FAILED", "RUNNING", "JobRecord", "JobStore", "canonical_spec",
            "job_key",
        ),
    },
)
