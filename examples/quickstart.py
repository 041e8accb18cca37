#!/usr/bin/env python3
"""Quickstart: trace a small imbalanced application and find its wait states.

Builds a two-metahost machine, runs a compute-then-barrier workload whose
ranks finish at different times, and prints the analyzer's three panels:
pattern hierarchy, call tree, and system tree.  The fast metahost shows up
as the one *waiting* — the central idea of wait-state analysis.

Run with:  python examples/quickstart.py
"""

from repro import (
    MetaMPIRuntime,
    Placement,
    analyze,
    render_analysis,
    uniform_metacomputer,
)
from repro.analysis.patterns import GRID_WAIT_AT_BARRIER, WAIT_AT_BARRIER


def application(ctx):
    """Each rank computes (ranks on metahost 0 work 4x longer), then syncs.

    Applications are plain generator functions: ``yield`` a request built
    from the per-rank :class:`~repro.sim.mpi.Context`, get its result back.
    """
    slow = ctx.metahost_id == 0
    for _step in range(5):
        with ctx.region("solver"):
            yield ctx.compute(0.08 if slow else 0.02)
        with ctx.region("exchange"):
            yield ctx.comm.barrier()


def main() -> None:
    # A metacomputer: two 2-node metahosts joined by a 1 ms WAN link.
    machine = uniform_metacomputer(
        metahost_count=2, node_count=2, cpus_per_node=1
    )
    placement = Placement.block(machine, 4)  # ranks 0-1 / 2-3 per metahost

    # Run the instrumented application: this writes per-metahost trace
    # archives and performs the clock-offset measurements.
    runtime = MetaMPIRuntime(machine, placement, seed=42)
    run = runtime.run(application)
    print(
        f"simulated {run.stats.finish_time:.3f} s, "
        f"{run.stats.collectives} collectives, "
        f"{run.archive_outcome.partial_archive_count} partial archives"
    )

    # Replay-analyze the archives (hierarchical synchronization by default).
    result = analyze(run)
    print(render_analysis(result, metric=WAIT_AT_BARRIER, min_pct=0.1))

    # Because the barrier spans metahosts, the waiting is *grid* waiting.
    print(
        f"\ngrid wait at barrier: {result.pct(GRID_WAIT_AT_BARRIER):.1f}% "
        f"of total time (all of it on the fast metahost:"
        f" {result.machine_breakdown(GRID_WAIT_AT_BARRIER)})"
    )


if __name__ == "__main__":
    main()
