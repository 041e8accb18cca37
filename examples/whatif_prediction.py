#!/usr/bin/env python3
"""What-if prediction: port an application to a metacomputer on paper first.

Implements the DIMEMAS workflow the paper cites in its related work: take
an execution trace from a single, homogeneous machine, combine it with the
network parameters of a target metacomputer, and predict the wait states
the port would exhibit — without ever running there.

The example traces a halo-exchange solver on one cluster, then predicts it
on a two-site metacomputer whose sites differ 2× in CPU speed.  The
prediction shows (a) the wall-time change and (b) brand-new *grid* wait
states the single-machine run could not have, localized to the function
that will suffer.

Run with:  python examples/whatif_prediction.py
"""

from repro import MetaMPIRuntime, Placement, analyze
from repro.analysis.patterns import GRID_LATE_SENDER, GRID_WAIT_AT_NXN, LATE_SENDER
from repro.analysis.stats import render_statistics, statistics_of
from repro.predict import predict_run, skeleton_from_run
from repro.report.timeline import render_result_timeline
from repro.topology.machine import CpuSpec, homogeneous_metahost
from repro.topology.metacomputer import Metacomputer
from repro.topology.network import LinkClass, LinkSpec
from repro.topology.presets import single_cluster


def solver(ctx):
    """A 1-D halo-exchange stencil with a residual allreduce per step."""
    left, right = (ctx.rank - 1) % ctx.size, (ctx.rank + 1) % ctx.size
    for _step in range(10):
        with ctx.region("stencil"):
            yield ctx.compute(0.03)
            h1 = yield ctx.comm.isend(left, 4096, tag=1)
            h2 = yield ctx.comm.isend(right, 4096, tag=2)
            yield ctx.comm.recv(right, tag=1)
            yield ctx.comm.recv(left, tag=2)
            yield ctx.comm.waitall([h1, h2])
        with ctx.region("residual"):
            yield ctx.comm.allreduce(8)


def target_metacomputer() -> Metacomputer:
    fast = homogeneous_metahost(
        "site-A", node_count=4, cpus_per_node=1,
        cpu=CpuSpec("new", 3.2, speed_factor=2.0),
        internal_latency_s=8e-6, internal_latency_jitter_s=4e-7,
        internal_bandwidth_bps=1.5e9,
    )
    slow = homogeneous_metahost(
        "site-B", node_count=4, cpus_per_node=1,
        cpu=CpuSpec("old", 2.2, speed_factor=1.0),
        internal_latency_s=4e-5, internal_latency_jitter_s=2e-6,
        internal_bandwidth_bps=250e6,
    )
    wan = LinkSpec(
        latency_s=1.5e-3, jitter_s=8e-6, bandwidth_bps=1.25e9,
        link_class=LinkClass.EXTERNAL, name="A<->B",
    )
    return Metacomputer([fast, slow], external_links={(0, 1): wan})


def main() -> None:
    # 1. Trace on the machine we have: one homogeneous cluster.
    source = single_cluster(node_count=8, cpus_per_node=1, speed=1.0)
    run = MetaMPIRuntime(source, Placement.block(source, 8), seed=3).run(solver)
    baseline = analyze(run)
    print(f"source run: {run.stats.finish_time:.3f} s wall, "
          f"grid late sender {baseline.pct(GRID_LATE_SENDER):.2f} % "
          "(single machine: necessarily zero)\n")
    print(render_statistics(statistics_of(baseline), top=4))

    # 2. Extract the skeleton and predict the metacomputer port.
    skeleton = skeleton_from_run(run, baseline)
    target = target_metacomputer()
    predicted = predict_run(skeleton, target, Placement.block(target, 8), seed=4)

    print(f"\npredicted on the metacomputer: "
          f"{predicted.predicted_seconds:.3f} s wall")
    for metric in (LATE_SENDER, GRID_LATE_SENDER, GRID_WAIT_AT_NXN):
        print(f"  {metric:18s} {predicted.result.pct(metric):6.2f} % of time")
    print("\npredicted grid late-sender by metahost pair (causer -> waiter):")
    for (causer, waiter), value in predicted.result.grid_pair_breakdown(
        GRID_LATE_SENDER
    ).items():
        print(f"  {causer} -> {waiter}: {value * 1e3:.1f} ms")

    print("\npredicted timeline (rows = ranks, B=barrier, m=p2p, C=collective):")
    print(render_result_timeline(predicted.result, columns=64))


if __name__ == "__main__":
    main()
