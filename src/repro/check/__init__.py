"""``repro check`` — an AST-based invariant linter for this repository.

Every guarantee the pipeline sells — byte-identical replay for a fixed
seed, SIGKILL-safe journals, deadline propagation — rests on source-level
contracts that golden tests can only catch *after* a violation corrupts a
result.  This package enforces them mechanically, at the source level:

* **Determinism** (``DET1xx``): no unseeded random generators anywhere;
  no wall-clock reads in result-bearing packages; wall-clock in the
  service/resilience layers routed through the one auditable
  :func:`repro.wallclock.wallclock` helper; no iteration over
  ``set``/``frozenset`` or ``os.listdir`` whose order could leak into
  serialized output.
* **Atomicity** (``ATM2xx``): no bare ``open(..., "w")`` writes in the
  archive/store/journal packages — durable files go through the
  temp-file + ``os.replace`` helpers; no ``os.rename``.
* **Concurrency** (``CON3xx``): a per-module lock-acquisition graph over
  the threaded packages with lock-order-cycle detection; no blocking
  call without a timeout while holding a lock; no untimed blocking calls
  in the threaded packages; every ``threading.Thread`` carries an
  explicit daemon/join story.
* **API drift** (``API4xx``): ``repro.api.__all__`` must match the
  checked-in snapshot contract, and every ``DeprecationWarning`` shim is
  registered with a removal window that has not lapsed.
* **Architecture** (``ARC5xx``): what each simplicity refactor removed
  stays removed — deleted names, import boundaries (the process boundary
  does not know the replay driver, the engine does not import the
  object-wise reference), banned calls (garbage-collector switches, a
  timer in the pool supervisor) and shapes (generated CLI flags are not
  hand-written).  The rules are one declarative table,
  :data:`repro.check.architecture.ROWS`, the one module that spells the
  deleted names.

Rules report typed :class:`~repro.check.findings.Finding`\\ s with
``file:line``, a rule id and a fix hint.  The checked-in
``checks_baseline.json`` suppresses accepted pre-existing sites (each
entry carries a justification); stale or unjustified baseline entries are
themselves findings (``BASE0xx``), so the baseline can only shrink
honestly.

Entry points: :func:`run_checks` (also exported via :mod:`repro.api`)
and the ``repro check`` CLI command (exit 0 clean / 1 findings /
2 usage).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.check.baseline": ("Baseline", "BaselineError"),
        "repro.check.engine": (
            "DEFAULT_BASELINE_PATH", "DEFAULT_SNAPSHOT_PATH", "check_source", "run_checks",
        ),
        "repro.check.findings": ("RULES", "CheckReport", "Finding"),
    },
)
