"""Resilient execution layer: supervised workers and resumable sweeps.

``repro.resilience`` owns the machinery that keeps long analyses alive on
unreliable infrastructure: a supervised process pool with crash/hang
detection, retry, and serial fallback (:mod:`repro.resilience.pool`), and
a checkpoint journal that lets interrupted experiment sweeps resume
without redoing completed cells (:mod:`repro.resilience.checkpoint`).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.checkpoint": ("CheckpointJournal",),
        "repro.resilience.deadline": ("Deadline",),
        "repro.resilience.pool": (
            "ExecutionReport", "PoolConfig", "SupervisedPool", "TaskExecution",
        ),
    },
)
