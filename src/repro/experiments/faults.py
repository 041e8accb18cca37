"""Fault-injection experiment: MetaTrace under escalating fault plans.

Runs the Figure 6 workload (Experiment 1, three metahosts) under a ladder
of fault plans — clean, lossy links, degraded links plus flaky storage,
and severe damage including lost trace data — and reports how far the
pipeline degrades at each step: retransmissions and archive retries spent
on recovery, synchronization measurements lost, ranks excluded from the
replay, and which wait-state patterns the degraded analysis still detects.

The clean plan doubles as a regression check: an empty
:class:`~repro.faults.FaultPlan` must reproduce the fault-free run byte
for byte, so its report shows zero fault activity and a non-degraded
analysis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis.patterns import (
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    GRID_WAIT_AT_NXN,
    LATE_SENDER,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
)
from repro.api import AnalysisRequest, analyze, verify_archives
from repro.apps.metatrace import make_metatrace_app
from repro.errors import (
    ArchiveCreationAborted,
    CommunicationTimeoutError,
    PartialTraceWarning,
)
from repro.experiments.configs import experiment1
from repro.faults import (
    FaultCounters,
    FaultPlan,
    FileSystemFault,
    LinkDegradation,
    LinkOutage,
    MessageLoss,
    PingFault,
    TraceCorruption,
    TraceTruncation,
)
from repro.resilience import CheckpointJournal
from repro.sim.runtime import MetaMPIRuntime

#: Wait-state metrics the degradation report checks for survival.
WAIT_METRICS = (
    LATE_SENDER,
    GRID_LATE_SENDER,
    WAIT_AT_BARRIER,
    GRID_WAIT_AT_BARRIER,
    WAIT_AT_NXN,
    GRID_WAIT_AT_NXN,
)


def escalating_fault_plans(seed: int = 0, world_size: int = 32) -> List[FaultPlan]:
    """The experiment's fault ladder, mildest first.

    ``world_size`` scales the rank-targeted specs (trace truncation and
    corruption hit ranks in the upper half, where Experiment 1 places the
    Trace submodel across the metahost boundary).
    """
    hi = world_size - 1
    mid = world_size // 2
    return [
        FaultPlan(name="clean", seed=seed),
        FaultPlan(
            name="lossy-links",
            seed=seed,
            specs=(
                MessageLoss("external", probability=0.05),
                PingFault("external", drop_prob=0.1),
            ),
        ),
        FaultPlan(
            name="degraded-links+flaky-fs",
            seed=seed,
            specs=(
                MessageLoss("external", probability=0.05),
                LinkDegradation(
                    "external", 0.005, 0.02, latency_factor=4.0, loss_prob=0.2
                ),
                PingFault("external", drop_prob=0.2, asymmetry_s=5e-4),
                FileSystemFault("*", fail_count=2),
                TraceTruncation(rank=hi, keep_fraction=0.6),
            ),
        ),
        FaultPlan(
            name="severe",
            seed=seed,
            specs=(
                MessageLoss("external", probability=0.08),
                LinkDegradation(
                    "external", 0.002, 0.03, latency_factor=6.0, loss_prob=0.15
                ),
                PingFault("external", drop_prob=0.3, asymmetry_s=1e-3),
                FileSystemFault("*", fail_count=2),
                TraceTruncation(rank=hi, keep_fraction=0.4),
                TraceTruncation(rank=mid + 2, keep_fraction=0.7),
                TraceCorruption(rank=mid + 4, at_fraction=0.5, length=8),
            ),
        ),
        # An outage far beyond the retry budget (~3 ms of backoff): the
        # sender must surface CommunicationTimeoutError, and the report
        # shows the abort path instead of a degraded analysis.
        FaultPlan(
            name="link-death",
            seed=seed,
            specs=(LinkOutage("external", 0.01, 0.1),),
        ),
    ]


@dataclass
class FaultRunReport:
    """Outcome of one workload execution under one fault plan."""

    plan: FaultPlan
    completed: bool  # run + archive management finished (degraded or not)
    error: str = ""  # terminal exception when the pipeline aborted
    counters: Optional[FaultCounters] = None
    archive_retries: int = 0
    sync_failures: int = 0
    partial_warnings: int = 0
    analyzed_ranks: int = 0
    excluded_ranks: int = 0
    degraded: bool = False
    #: Wait-state metric → percent of total time (only metrics > 0).
    patterns: Dict[str, float] = field(default_factory=dict)
    #: Archive checksum verdict (None = not checked; False = damage found —
    #: expected whenever the plan injects trace damage).
    integrity_ok: Optional[bool] = None

    @property
    def recovered(self) -> bool:
        """Faults were injected and the pipeline still produced an analysis."""
        return self.completed and self.counters is not None

    _PAYLOAD_FIELDS = (
        "completed",
        "error",
        "archive_retries",
        "sync_failures",
        "partial_warnings",
        "analyzed_ranks",
        "excluded_ranks",
        "degraded",
        "patterns",
        "integrity_ok",
    )

    def to_payload(self) -> Dict:
        """JSON-serializable journal payload (the plan is the cell's key)."""
        payload = {name: getattr(self, name) for name in self._PAYLOAD_FIELDS}
        payload["counters"] = (
            None if self.counters is None else self.counters.as_dict()
        )
        return payload

    @classmethod
    def from_payload(cls, plan: FaultPlan, payload: Dict) -> "FaultRunReport":
        counters = payload.get("counters")
        return cls(
            plan=plan,
            counters=None if counters is None else FaultCounters(**counters),
            **{name: payload[name] for name in cls._PAYLOAD_FIELDS},
        )


@dataclass
class DegradationReport:
    """All per-plan reports of one escalating-fault experiment."""

    seed: int
    runs: List[FaultRunReport] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"Fault-injection ladder on Experiment 1 (seed {self.seed})", ""]
        for report in self.runs:
            plan = report.plan
            lines.append(f"plan '{plan.name or '(unnamed)'}' — {len(plan.specs)} fault spec(s)")
            if not report.completed:
                lines.append(f"  ABORTED: {report.error}")
                if report.counters is not None:
                    c = report.counters
                    lines.append(
                        f"  before abort: {c.messages_dropped} drops, "
                        f"{c.retransmits} retransmits, {c.timeouts} timeout(s)"
                    )
                lines.append("")
                continue
            if report.counters is None:
                lines.append("  clean run (no injector active)")
            else:
                c = report.counters
                lines.append(
                    f"  transport: {c.messages_dropped} drops recovered by "
                    f"{c.retransmits} retransmits"
                )
                lines.append(
                    f"  measurement: {c.pings_dropped} pings dropped, "
                    f"{c.pings_reissued} reissued; {report.sync_failures} "
                    "measurement(s) abandoned"
                )
                lines.append(
                    f"  storage: {c.fs_failures_injected} create failure(s) "
                    f"absorbed by {report.archive_retries} retries"
                )
                lines.append(
                    f"  traces: {c.traces_truncated} truncated, "
                    f"{c.traces_corrupted} corrupted"
                )
            if report.integrity_ok is not None:
                verdict = "OK" if report.integrity_ok else "damage localized"
                lines.append(f"  archive checksums: {verdict}")
            mode = "degraded" if report.degraded else "strict"
            lines.append(
                f"  analysis ({mode}): {report.analyzed_ranks} ranks analyzed, "
                f"{report.excluded_ranks} excluded, "
                f"{report.partial_warnings} partial-trace warning(s)"
            )
            if report.patterns:
                lines.append("  wait-state patterns detected:")
                for metric, pct in sorted(report.patterns.items()):
                    lines.append(f"    {metric:22s} {pct:6.2f} % of time")
            else:
                lines.append("  wait-state patterns detected: none")
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def _analyze(run, request: AnalysisRequest, deadline) -> tuple:
    """Run the (possibly degraded) replay, counting partial-trace warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PartialTraceWarning)
        result = analyze(run, request, deadline=deadline)
    partial = sum(
        1 for w in caught if issubclass(w.category, PartialTraceWarning)
    )
    return result, partial


def run_fault_experiment(
    seed: int = 11,
    plans: Optional[List[FaultPlan]] = None,
    coupling_intervals: Optional[int] = None,
    request: Optional[AnalysisRequest] = None,
    journal: Optional[CheckpointJournal] = None,
    deadline=None,
) -> DegradationReport:
    """Execute the MetaTrace workload once per fault plan.

    ``coupling_intervals`` shrinks the workload for smoke tests (CI runs
    the matrix with 1 interval); None keeps the paper's configuration.

    With a ``journal``, every settled plan — including the deterministic
    aborts of the link-death rung — is a resumable cell; an interrupted
    ladder rerun with the same journal replays the finished rungs from
    their recorded payloads.  ``request`` describes every rung's analysis
    as in :func:`repro.api.analyze`, except ``degraded``, which each rung
    sets for itself (strict on the clean plan, degraded under faults).
    Its ``verify_archive`` runs a checksum pass over each completed run's
    archives and records the verdict in the report (plans that injected
    trace damage are *expected* to fail it — the ladder never raises on
    corruption).
    """
    request = request or AnalysisRequest()
    report = DegradationReport(seed=seed)
    for plan in plans if plans is not None else escalating_fault_plans(seed):
        cell = {
            "experiment": "faults",
            "plan": plan.name,
            "seed": seed,
            "coupling_intervals": coupling_intervals,
            "specs": len(plan.specs),
            "verify_archive": request.verify_archive,
        }
        if journal is not None:
            cached = journal.get(cell)
            if cached is not None:
                report.runs.append(FaultRunReport.from_payload(plan, cached))
                continue
        metacomputer, placement, config = experiment1()
        if coupling_intervals is not None:
            config = replace(config, coupling_intervals=coupling_intervals)
        runtime = MetaMPIRuntime(
            metacomputer,
            placement,
            seed=seed,
            subcomms=config.subcomms(),
            fault_plan=None if plan.is_empty else plan,
        )
        entry = FaultRunReport(plan=plan, completed=False)
        report.runs.append(entry)
        try:
            run = runtime.run(make_metatrace_app(config))
        except (CommunicationTimeoutError, ArchiveCreationAborted) as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            if runtime.fault_injector is not None:
                entry.counters = runtime.fault_injector.counters
            # A deterministic abort is a settled outcome: journal it so a
            # resumed ladder does not redo the doomed run.
            if journal is not None:
                journal.record(cell, entry.to_payload())
            continue
        entry.completed = True
        entry.counters = run.fault_counters
        entry.archive_retries = run.archive_outcome.retries
        entry.sync_failures = len(run.sync_data.failures)
        entry.degraded = not plan.is_empty
        if request.verify_archive:
            entry.integrity_ok = verify_archives(run).ok
        result, entry.partial_warnings = _analyze(
            run, replace(request, degraded=entry.degraded), deadline
        )
        entry.analyzed_ranks = len(result.analyzed_ranks)
        entry.excluded_ranks = len(result.excluded_ranks)
        entry.patterns = {
            metric: pct
            for metric in WAIT_METRICS
            if (pct := result.pct(metric)) > 0.0
        }
        if journal is not None:
            journal.record(cell, entry.to_payload())
    return report
