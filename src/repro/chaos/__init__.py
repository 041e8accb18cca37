"""Seeded chaos harness: composed faults, invariants, episode replay.

The package turns the repo's individual resilience mechanisms (trace
fault injection, supervised-pool crash/hang recovery, deadlines, the
crash-safe journal) into a single *closed-loop* harness: a seeded
:class:`~repro.chaos.schedule.ChaosSchedule` describes what breaks, one
episode runs a full simulate→analyze pipeline under that schedule, and
the harness asserts invariants that must hold no matter what broke:

1. an **empty schedule** (and any schedule whose chaos is fully
   recoverable) produces a result byte-identical to the clean run;
2. every episode **terminates** within ``deadline + grace`` — wedged
   workers are bounded by supervision, never waited on;
3. analysis **completeness is monotone**: more severe chaos never
   reports *more* complete analysis than less severe chaos.

``repro chaos --seeds 0..4`` is the CLI entry point; CI runs the same
fixed-seed matrix.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.chaos.harness": (
            "ChaosReport", "EpisodeResult", "render_report", "run_chaos", "run_episode",
        ),
        "repro.chaos.schedule": ("ChaosSchedule", "schedule_for_seed"),
    },
)
