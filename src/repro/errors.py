"""Exception hierarchy for the :mod:`repro` toolkit.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch toolkit failures without masking programming errors.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of all toolkit errors."""


class TopologyError(ReproError):
    """Invalid metacomputer topology (unknown metahost, missing link, ...)."""


class RoutingError(TopologyError):
    """No route exists between two locations."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All simulated processes are blocked and no event is pending."""


class MPIUsageError(SimulationError):
    """A simulated MPI call was used incorrectly (bad rank, bad comm, ...)."""


class CommunicationTimeoutError(SimulationError):
    """A message could not be delivered within the retransmission budget.

    Raised by the transport layer when every retransmission attempt of a
    message fell into a link outage (or was lost) and the retry policy's
    attempt/timeout budget is exhausted — the simulated equivalent of a
    permanently dead external link.

    Attributes
    ----------
    link:
        Name of the link the message could not cross.
    attempts:
        Number of delivery attempts made (original send + retransmits).
    waited_s:
        Total time spent in retransmission backoff before giving up.
    """

    def __init__(
        self, message: str, link: str = "", attempts: int = 0, waited_s: float = 0.0
    ) -> None:
        super().__init__(message)
        self.link = link
        self.attempts = attempts
        self.waited_s = waited_s


class ClockError(ReproError):
    """Clock-model or synchronization failure."""


class MeasurementError(ClockError):
    """An offset measurement could not be carried out."""


class TraceError(ReproError):
    """Trace data is malformed or inconsistent."""


class EncodingError(TraceError):
    """A trace byte stream could not be encoded or decoded."""


class ArchiveError(TraceError):
    """Experiment-archive layout or manifest problem."""


class FileSystemError(ReproError):
    """Simulated file-system failure (path not visible, already exists, ...)."""


class ArchiveCreationAborted(FileSystemError):
    """The runtime archive-management protocol aborted the measurement.

    Raised when, after the hierarchical creation protocol (including any
    retries), at least one process still cannot see an archive directory
    (paper, Section 4, *Runtime archive management*: "otherwise the
    application is aborted").

    Attributes
    ----------
    failing_ranks:
        Global ranks that could not see (or create) the archive directory.
    failing_machines:
        Names of the metahosts those ranks run on.
    path:
        The archive path that could not be provided.
    """

    def __init__(
        self,
        message: str,
        failing_ranks: tuple = (),
        failing_machines: tuple = (),
        path: str = "",
    ) -> None:
        super().__init__(message)
        self.failing_ranks = tuple(failing_ranks)
        self.failing_machines = tuple(failing_machines)
        self.path = path


class PartialTraceWarning(UserWarning):
    """A trace file was truncated or corrupt and only a prefix was salvaged.

    Emitted (via :func:`warnings.warn`) by degraded-mode replay when a
    rank's event stream could not be decoded completely; the analysis then
    proceeds on the intersection of fully decoded ranks.
    """


class AnalysisError(ReproError):
    """Replay analysis failed (unmatched message, malformed trace, ...)."""


class PatternError(AnalysisError):
    """A pattern definition is inconsistent (duplicate name, bad parent)."""


class ReportError(ReproError):
    """Report construction, rendering or algebra failure."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured."""


class ConfigurationError(ReproError):
    """Runtime configuration problem (missing metahost env vars, ...)."""


class CheckpointError(ReproError):
    """The checkpoint journal could not be read or written."""


class CheckpointLockError(CheckpointError):
    """Another writer already holds the journal's advisory lock.

    Two concurrent writers on one journal (two sweeps with ``--journal``,
    or a service and a CLI sharing one job store) would interleave their
    rewrite cycles and silently lose each other's cells; the advisory
    ``fcntl`` lock makes the second writer fail fast with this error
    instead.

    Attributes
    ----------
    path:
        The journal path whose lock could not be acquired.
    holder:
        Contents of the lock file (the holder's pid) when readable.
    """

    def __init__(self, message: str, path: str = "", holder: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.holder = holder


class PoolShutdown(ReproError):
    """A supervised pool run was interrupted by a graceful shutdown.

    Raised out of :meth:`~repro.resilience.pool.SupervisedPool.run` when
    :meth:`~repro.resilience.pool.SupervisedPool.request_shutdown` was
    called (directly, or by the pool's SIGTERM/SIGINT handler) before all
    tasks settled.  In-flight workers were drained or killed and reaped
    first — nothing is left orphaned.

    Attributes
    ----------
    reason:
        Why the shutdown was requested (e.g. ``"signal 15 (SIGTERM)"``).
    results:
        Results of the tasks that completed before the drain ended, keyed
        by task index.
    report:
        The final :class:`~repro.resilience.pool.ExecutionReport`, with a
        ``cancelled`` failure entry for every task that did not settle.
    """

    def __init__(self, reason: str, results=None, report=None) -> None:
        super().__init__(f"pool shut down before all tasks settled: {reason}")
        self.reason = reason
        self.results = dict(results or {})
        self.report = report


class TimeBudgetExceeded(ReproError):
    """An end-to-end deadline expired (or was cancelled) before work finished.

    Raised by deadline-aware layers — the replay analyzer when a budget
    leaves it no admitted rank, the supervised pool's dispatch loop, the service executor — when the
    :class:`~repro.resilience.deadline.Deadline` attached to the request
    runs out or a client cancels it.  Whatever partial progress exists at
    that point travels on the exception so callers can salvage it.

    Attributes
    ----------
    reason:
        Why the budget ended (``"deadline of 2.0s exceeded"`` or a
        cancellation reason such as ``"cancelled by client"``).
    results:
        Partial results keyed by task index, when a pool run was cut
        short (mirrors :class:`PoolShutdown`).
    report:
        The :class:`~repro.resilience.pool.ExecutionReport` for the cut
        run, when one exists.
    """

    def __init__(self, reason: str, results=None, report=None) -> None:
        super().__init__(f"time budget exhausted: {reason}")
        self.reason = reason
        self.results = dict(results or {})
        self.report = report


class ServiceError(ReproError):
    """The analysis service rejected or could not process a request."""


class JobValidationError(ServiceError):
    """A submitted job specification is malformed or names unknown work."""


class JobRejected(ServiceError):
    """Admission control rejected a job (queue full / service draining).

    Attributes
    ----------
    retry_after_s:
        Suggested client backoff before resubmitting.
    status:
        HTTP status the transport should use, or ``None`` to let it pick
        (draining → 503, queue pressure → 429).  The circuit breaker sets
        503 explicitly: an open breaker is server trouble, not client load.
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float = 1.0,
        status: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.status = status
