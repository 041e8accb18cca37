"""Seeded chaos schedules: what breaks, where, and how hard.

A :class:`ChaosSchedule` composes the existing trace/storage fault specs
(:class:`~repro.faults.FaultPlan`) with process chaos the supervised pool
must absorb (worker SIGKILL / SIGSTOP), journal torn-tail writes, and an
optional wall-clock deadline.  :func:`schedule_for_seed` maps a seed onto
a fixed severity ladder (level ``seed % 5``) so a seed range like
``0..4`` sweeps from "nothing breaks" to "everything breaks at once"
deterministically:

========  =============================================================
level     chaos
========  =============================================================
L0        empty — the control episode (byte-identity invariant)
L1        one analysis worker SIGKILLed (recovers by retry, still
          byte-identical)
L2        L1 + one rank's trace corrupted (degraded analysis)
L3        two ranks corrupted + one worker SIGSTOPped + one transient
          storage failure during archive creation
L4        L3 + a SIGKILLed worker + a torn-tail journal write + a
          (generous) deadline on the whole analysis
========  =============================================================

The seed also feeds the fault plan, so two seeds on the same level place
their random fault details differently while the *structure* (which
ranks, which fractions) stays fixed — that structure is what makes the
completeness-monotonicity invariant decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan, FileSystemFault, TraceCorruption

__all__ = ["ChaosSchedule", "schedule_for_seed"]


@dataclass(frozen=True)
class ChaosSchedule:
    """One episode's worth of composed chaos (immutable, seed-derived)."""

    name: str
    seed: int
    #: Severity rung on the ladder; the monotonicity invariant orders by it.
    level: int
    #: Trace/storage faults injected into the *simulation* (or ``None``).
    fault_plan: Optional[FaultPlan] = None
    #: Analysis workers SIGKILLed (one each, first-come via marker files).
    kill_workers: int = 0
    #: Analysis workers SIGSTOPped (caught by the heartbeat, not the exit).
    stall_workers: int = 0
    #: Bytes torn off the episode journal's tail after writing it.
    torn_tail_bytes: int = 0
    #: Wall-clock budget for the episode's analysis (``None`` = unbounded).
    deadline_s: Optional[float] = None

    @property
    def empty(self) -> bool:
        return (
            (self.fault_plan is None or self.fault_plan.is_empty)
            and self.kill_workers == 0
            and self.stall_workers == 0
            and self.torn_tail_bytes == 0
            and self.deadline_s is None
        )

    @property
    def degrades_traces(self) -> bool:
        """Whether the schedule damages trace data itself.

        Process chaos (kill/stall) is fully recoverable — the analysis
        retries and the result stays byte-identical.  Damaged traces are
        not: those episodes run in degraded mode and are the ones allowed
        to lose completeness.
        """
        if self.fault_plan is None:
            return False
        return bool(self.fault_plan.of_type(TraceCorruption))

    def describe(self) -> str:
        parts = []
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            parts.append(f"{len(self.fault_plan.specs)} fault spec(s)")
        if self.kill_workers:
            parts.append(f"kill {self.kill_workers} worker(s)")
        if self.stall_workers:
            parts.append(f"stall {self.stall_workers} worker(s)")
        if self.torn_tail_bytes:
            parts.append(f"tear {self.torn_tail_bytes}B off the journal")
        if self.deadline_s is not None:
            parts.append(f"deadline {self.deadline_s}s")
        return ", ".join(parts) if parts else "no chaos"


def schedule_for_seed(seed: int) -> ChaosSchedule:
    """The fixed severity ladder, keyed by ``seed % 5``."""
    if seed < 0:
        raise ValueError(f"chaos seed must be non-negative, got {seed}")
    level = seed % 5
    name = f"chaos-L{level}-seed{seed}"
    if level == 0:
        return ChaosSchedule(name=name, seed=seed, level=0)
    if level == 1:
        return ChaosSchedule(name=name, seed=seed, level=1, kill_workers=1)
    if level == 2:
        plan = FaultPlan(
            name=name,
            seed=seed,
            specs=(TraceCorruption(rank=3, at_fraction=0.5, length=8),),
        )
        return ChaosSchedule(
            name=name, seed=seed, level=2, fault_plan=plan, kill_workers=1
        )
    if level == 3:
        plan = FaultPlan(
            name=name,
            seed=seed,
            specs=(
                # Rank 3 is hit *earlier* than on L2 so per-rank
                # completeness is ordered by level, not just rank count.
                TraceCorruption(rank=3, at_fraction=0.4, length=8),
                TraceCorruption(rank=5, at_fraction=0.5, length=8),
                FileSystemFault(machine="*", fail_count=1),
            ),
        )
        return ChaosSchedule(
            name=name, seed=seed, level=3, fault_plan=plan, stall_workers=1
        )
    plan = FaultPlan(
        name=name,
        seed=seed,
        specs=(
            TraceCorruption(rank=3, at_fraction=0.4, length=8),
            TraceCorruption(rank=5, at_fraction=0.5, length=8),
            FileSystemFault(machine="*", fail_count=1),
        ),
    )
    return ChaosSchedule(
        name=name,
        seed=seed,
        level=4,
        fault_plan=plan,
        kill_workers=1,
        stall_workers=1,
        torn_tail_bytes=7,
        # Generous on purpose: the deadline must not fire on a healthy
        # machine — the termination invariant proves it *bounds* the
        # episode, not that it truncates it.
        deadline_s=300.0,
    )
