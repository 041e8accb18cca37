#!/usr/bin/env python3
"""Build your own metacomputer and workload.

Shows the full public API surface a downstream user needs:

* define metahosts with custom CPU speeds and networks, join them with an
  explicit external link;
* write an application mixing non-blocking halo exchange, reductions and a
  master/worker result collection on a sub-communicator;
* run it without a shared file system, analyze, and drill into a specific
  call path.

Run with:  python examples/custom_workload.py
"""

from repro import MetaMPIRuntime, Placement, analyze
from repro.analysis.patterns import (
    EARLY_REDUCE,
    GRID_LATE_SENDER,
    IDLE_THREADS,
    LATE_SENDER,
    WAIT_AT_NXN,
)
from repro.report.render import render_call_tree, render_system_tree
from repro.topology.machine import CpuSpec, homogeneous_metahost
from repro.topology.metacomputer import Metacomputer
from repro.topology.network import LinkClass, LinkSpec

HALO_BYTES = 8 * 1024
RESULT_BYTES = 32 * 1024
STEPS = 8


def build_machine() -> Metacomputer:
    """Two unequal clusters joined by a 2 ms wide-area link."""
    fast = homogeneous_metahost(
        "fast-cluster", node_count=4, cpus_per_node=1,
        cpu=CpuSpec("EPYC", 3.0, speed_factor=2.0),
        internal_latency_s=5e-6, internal_latency_jitter_s=2e-7,
        internal_bandwidth_bps=2e9, interconnect="InfiniBand",
    )
    slow = homogeneous_metahost(
        "campus-cluster", node_count=4, cpus_per_node=1,
        cpu=CpuSpec("Xeon", 2.4, speed_factor=1.0),
        internal_latency_s=5e-5, internal_latency_jitter_s=2e-6,
        internal_bandwidth_bps=125e6, interconnect="GigE",
    )
    wan = LinkSpec(
        latency_s=2e-3, jitter_s=1e-5, bandwidth_bps=1.25e9,
        link_class=LinkClass.EXTERNAL, name="fast<->campus",
        congestion_prob=0.3, congestion_scale_s=5e-5,
    )
    return Metacomputer([fast, slow], external_links={(0, 1): wan})


def application(ctx):
    """1-D halo stencil + allreduce per step; results gathered by rank 0."""
    left = (ctx.rank - 1) % ctx.size
    right = (ctx.rank + 1) % ctx.size
    workers = ctx.get_comm("workers")

    with ctx.region("timeloop"):
        for _step in range(STEPS):
            with ctx.region("stencil"):
                # Hybrid MPI+threads: a fork-join region whose 4 threads
                # carry slightly imbalanced work (Idle Threads severity).
                yield ctx.parallel([0.02, 0.018, 0.02, 0.015])
                # Non-blocking halo exchange with both neighbors.
                h1 = yield ctx.comm.isend(left, HALO_BYTES, tag=1)
                h2 = yield ctx.comm.isend(right, HALO_BYTES, tag=2)
                yield ctx.comm.recv(right, tag=1)
                yield ctx.comm.recv(left, tag=2)
                yield ctx.comm.waitall([h1, h2])
            with ctx.region("residual"):
                yield ctx.comm.allreduce(8)

    with ctx.region("collect"):
        if ctx.rank == 0:
            for _ in range(ctx.size - 1):
                yield ctx.comm.recv()
        else:
            # Workers postprocess before reporting (slower on the campus
            # cluster), then reduce a checksum among themselves.
            yield ctx.compute(0.05)
            if workers is not None:
                yield workers.reduce(8, root=0)
            yield ctx.comm.send(0, RESULT_BYTES, tag=9)


def main() -> None:
    machine = build_machine()
    placement = Placement.block(machine, 8)
    runtime = MetaMPIRuntime(
        machine,
        placement,
        seed=2024,
        subcomms={"workers": list(range(1, 8))},
    )
    run = runtime.run(application)
    result = analyze(run)

    print(f"simulated {run.stats.finish_time:.2f} s; "
          f"{run.stats.p2p_messages} messages, "
          f"{run.stats.collectives} collectives\n")

    for metric in (
        LATE_SENDER, GRID_LATE_SENDER, WAIT_AT_NXN, EARLY_REDUCE, IDLE_THREADS,
    ):
        print(f"{metric:18s} {result.metric_total(metric) * 1e3:9.2f} ms "
              f"({result.pct(metric):5.2f} %)")

    print("\nwhere does the stencil wait?")
    print(render_call_tree(result, LATE_SENDER, min_pct=1.0))

    print("\nwho waits? (grid late sender across the WAN boundary)")
    print(render_system_tree(result, GRID_LATE_SENDER))


if __name__ == "__main__":
    main()
