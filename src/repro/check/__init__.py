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
* **Deprecations** (``API402``): every ``DeprecationWarning`` shim's
  message names the release that removes it, and that release is still
  ahead of :data:`repro.__version__`.
* **Architecture** (``ARC5xx``): what each simplicity refactor removed
  stays removed — deleted names, import boundaries (the process boundary
  does not know the replay driver, the engine does not import the
  object-wise reference), banned calls (garbage-collector switches, a
  timer in the pool supervisor) and shapes (generated CLI flags are not
  hand-written).  The rules are one declarative table,
  :data:`repro.check.architecture.ROWS`, the one module that spells the
  deleted names.

Rules report typed :class:`~repro.check.findings.Finding`\\ s with
``file:line``, a rule id and a fix hint.  A reviewed exception is an
allow comment on the line above the code it excuses, carrying its reason
(``# check: allow CON303: <reason>``); a stale or reasonless allow
comment is itself a finding (``BASE0xx``), so exceptions can only stand
where someone wrote down why.

Entry points: :func:`run_checks` (also exported via :mod:`repro.api`)
and the ``repro check`` CLI command (exit 0 clean / 1 findings /
2 usage).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.check.engine": ("check_source", "run_checks"),
        "repro.check.findings": ("RULES", "CheckReport", "Finding"),
    },
)
