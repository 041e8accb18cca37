"""Chaos episodes and the invariants every episode must satisfy.

One episode = one simulate→analyze pipeline run under one
:class:`~repro.chaos.schedule.ChaosSchedule`: the fault plan is injected
into the simulation, the process chaos into the parallel analysis pool,
the torn tail into the episode journal, and the deadline around the whole
analysis.  :func:`run_chaos` runs a seed matrix and checks the
cross-episode invariants; violations are *returned*, not raised, so the
CLI (and CI) can render every episode before failing.

The workload is deliberately small and fixed (8 ranks, 2 metahosts, the
deterministic imbalance app): chaos severity is the only thing that
varies between episodes, which is what makes the monotonicity invariant
a statement about the *analyzer* rather than about the workload.
"""

from __future__ import annotations

import functools
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.parallel import analyze_shard
from repro.analysis.request import SEED, AnalysisRequest, rule_of
from repro.chaos.hooks import process_chaos
from repro.chaos.schedule import ChaosSchedule, schedule_for_seed
from repro.errors import TimeBudgetExceeded
from repro.resilience import CheckpointJournal, Deadline
from repro.resilience.pool import PoolConfig, SupervisedPool

__all__ = [
    "EpisodeResult",
    "ChaosReport",
    "run_episode",
    "run_chaos",
    "render_report",
]

#: Fixed workload: the chaos seed must never change *what* is analyzed.
_SIM_SEED = 5
_RANKS = 8

#: What :func:`run_chaos` admits, by the request's rules: at least one worker
#: per episode, and a finite slack (under a NaN one no episode could fail).
_JOBS = replace(rule_of(AnalysisRequest, "jobs"), low=1)
_GRACE = replace(rule_of(AnalysisRequest, "deadline_s"), finite=True)


@dataclass
class EpisodeResult:
    """Everything one episode observed (plus its local invariant checks)."""

    schedule: ChaosSchedule
    wall_s: float
    #: ``None`` when the analysis ran to completion, else the budget reason.
    interrupted: Optional[str]
    #: Ranks whose analysis is complete / total ranks.
    complete_ranks: int
    total_ranks: int
    #: Whether the severity cube matches the clean baseline exactly
    #: (``None`` when the episode produced no result at all).
    byte_identical: Optional[bool]
    #: ``None`` when the schedule tears no journal; else whether the
    #: journal survived the torn tail losing at most the torn record.
    journal_recovered: Optional[bool]
    violations: List[str] = field(default_factory=list)

    def summary(self) -> str:
        flags = []
        if self.byte_identical is not None:
            flags.append("identical" if self.byte_identical else "diverged")
        if self.interrupted is not None:
            flags.append(f"interrupted: {self.interrupted}")
        if self.journal_recovered is not None:
            flags.append(
                "journal recovered"
                if self.journal_recovered
                else "journal LOST DATA"
            )
        flag_text = f" ({', '.join(flags)})" if flags else ""
        return (
            f"L{self.schedule.level} seed {self.schedule.seed}: "
            f"{self.complete_ranks}/{self.total_ranks} ranks complete "
            f"in {self.wall_s:.1f}s{flag_text} — {self.schedule.describe()}"
        )


@dataclass
class ChaosReport:
    episodes: List[EpisodeResult]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _simulate(fault_plan, sim_seed: int):
    from repro.api import Placement, simulate
    from repro.apps.imbalance import make_imbalance_app
    from repro.topology.presets import uniform_metacomputer

    metacomputer = uniform_metacomputer(
        metahost_count=2, node_count=2, cpus_per_node=2
    )
    work = {rank: 0.005 * (1 + rank % 3) for rank in range(_RANKS)}
    return simulate(
        make_imbalance_app(work, iterations=3),
        metacomputer,
        Placement.block(metacomputer, _RANKS),
        seed=sim_seed,
        fault_plan=fault_plan,
    )


def _pool(schedule: ChaosSchedule, marker_dir: str, jobs: int) -> SupervisedPool:
    """The episode's pool: the schedule's process chaos, fast supervision."""
    hook = None
    if schedule.kill_workers or schedule.stall_workers:
        hook = functools.partial(
            process_chaos,
            marker_dir,
            schedule.kill_workers,
            schedule.stall_workers,
        )
    config = PoolConfig(
        max_workers=jobs,
        timeout_s=60.0,
        max_retries=2,
        backoff_base_s=0.01,
        poll_interval_s=0.01,
        heartbeat_interval_s=0.05,
        # A SIGSTOPped worker is silent, not dead: only the heartbeat
        # notices.  Keep the grace short so stall episodes stay fast.
        heartbeat_grace_s=1.0,
        chaos_hook=hook,
    )
    return SupervisedPool(analyze_shard, config)


def _tear_journal(path: str, completeness: Dict, torn_bytes: int) -> bool:
    """Write per-rank completeness, tear the tail, verify recovery.

    Returns ``True`` when the reopened journal kept every record except
    (at most) the one the tear landed in — the crash-safety contract of
    the checkpoint journal under torn writes.
    """
    journal = CheckpointJournal(path, exclusive=True)
    try:
        for rank in sorted(completeness):
            entry = completeness[rank]
            journal.record(
                {"rank": rank},
                {"complete": entry.complete, "events": entry.events},
            )
    finally:
        journal.close()
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - torn_bytes))
    reopened = CheckpointJournal(path)
    try:
        kept = len(reopened.cells())
    finally:
        reopened.close()
    return len(completeness) - 1 <= kept <= len(completeness)


def run_episode(
    schedule: ChaosSchedule,
    *,
    jobs: int = 4,
    grace_s: float = 120.0,
    workdir: Optional[str] = None,
    baseline=None,
) -> EpisodeResult:
    """Run one chaos episode; returns observations + local violations.

    ``baseline`` is the clean-run :class:`~repro.api.AnalysisResult` to
    compare against (computed on demand when omitted).
    """
    from repro.api import analyze

    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    marker_dir = os.path.join(workdir, f"markers-{schedule.name}")
    os.makedirs(marker_dir, exist_ok=True)

    if baseline is None:
        baseline = analyze(_simulate(None, _SIM_SEED))
    run = _simulate(schedule.fault_plan, _SIM_SEED)
    degraded = schedule.degrades_traces
    deadline = (
        Deadline(schedule.deadline_s) if schedule.deadline_s is not None else None
    )
    request = AnalysisRequest(degraded=degraded, jobs=jobs)
    pool = _pool(schedule, marker_dir, jobs)
    began = time.monotonic()
    try:
        result = analyze(run, request, pool=pool, deadline=deadline)
        interrupted = result.interrupted
    except TimeBudgetExceeded as exc:
        # Nothing settled before the budget ended: an honest empty
        # partial, still within the termination bound.
        result = None
        interrupted = exc.reason
    wall_s = time.monotonic() - began

    total_ranks = _RANKS
    if result is not None:
        # A clean, uninterrupted analysis records no per-rank
        # completeness at all — absence of an entry means "complete".
        completeness = result.completeness
        complete_ranks = total_ranks - sum(
            1 for entry in completeness.values() if not entry.complete
        )
    else:
        completeness = {}
        complete_ranks = 0
    byte_identical: Optional[bool] = None
    if result is not None:
        byte_identical = result.cube.data == baseline.cube.data

    journal_recovered: Optional[bool] = None
    if schedule.torn_tail_bytes and completeness:
        journal_recovered = _tear_journal(
            os.path.join(workdir, f"{schedule.name}.jsonl"),
            completeness,
            schedule.torn_tail_bytes,
        )

    episode = EpisodeResult(
        schedule=schedule,
        wall_s=wall_s,
        interrupted=interrupted,
        complete_ranks=complete_ranks,
        total_ranks=total_ranks,
        byte_identical=byte_identical,
        journal_recovered=journal_recovered,
    )

    # Local invariants: termination, recoverable-chaos byte-identity,
    # torn-tail recovery.
    allowed = (schedule.deadline_s or 0.0) + grace_s
    if wall_s > allowed:
        episode.violations.append(
            f"{schedule.name}: episode took {wall_s:.1f}s, bound is "
            f"deadline+grace = {allowed:.1f}s"
        )
    if not degraded and schedule.deadline_s is None and not byte_identical:
        episode.violations.append(
            f"{schedule.name}: recoverable chaos changed the result "
            "(must be byte-identical to the clean run)"
        )
    if journal_recovered is False:
        episode.violations.append(
            f"{schedule.name}: torn-tail journal lost more than the torn record"
        )
    return episode


def run_chaos(
    seeds: Sequence[int],
    *,
    jobs: int = 4,
    grace_s: float = 120.0,
    workdir: Optional[str] = None,
) -> ChaosReport:
    """Run the seed matrix and check the cross-episode invariants."""
    from repro.api import analyze

    seeds = [SEED.admit("seed", seed, 0) for seed in seeds]
    jobs = _JOBS.admit("jobs", jobs, 4)
    grace_s = _GRACE.admit("grace_s", grace_s, 120.0)
    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    baseline = analyze(_simulate(None, _SIM_SEED))
    episodes: List[EpisodeResult] = []
    for seed in seeds:
        episodes.append(
            run_episode(
                schedule_for_seed(seed),
                jobs=jobs,
                grace_s=grace_s,
                workdir=workdir,
                baseline=baseline,
            )
        )
    violations = [v for episode in episodes for v in episode.violations]
    # Monotonicity: order by severity level; a harsher schedule must not
    # report a *more* complete analysis than a gentler one.
    by_level = sorted(episodes, key=lambda e: e.schedule.level)
    for gentler, harsher in zip(by_level, by_level[1:]):
        if harsher.complete_ranks > gentler.complete_ranks:
            violations.append(
                f"completeness not monotone: L{harsher.schedule.level} "
                f"(seed {harsher.schedule.seed}) has "
                f"{harsher.complete_ranks} complete ranks, more than "
                f"L{gentler.schedule.level} (seed {gentler.schedule.seed}) "
                f"with {gentler.complete_ranks}"
            )
    return ChaosReport(episodes=episodes, violations=violations)


def render_report(report: ChaosReport) -> str:
    lines = ["== chaos episodes =="]
    lines.extend(episode.summary() for episode in report.episodes)
    lines.append("")
    if report.ok:
        lines.append(
            f"all invariants held across {len(report.episodes)} episode(s)"
        )
    else:
        lines.append(f"{len(report.violations)} invariant violation(s):")
        lines.extend(f"  - {violation}" for violation in report.violations)
    return "\n".join(lines)
