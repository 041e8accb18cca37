"""Ablation — eager/rendezvous protocol threshold vs wait-state attribution.

The point-to-point protocol decides *where* a wait state materializes: with
an eager send the receiver absorbs all waiting (Late Sender), while a
rendezvous send stalls the *sender* until the receive is posted (Late
Receiver).  Sweeping the eager threshold across the message size flips the
attribution — evidence that the analyzer distinguishes the two patterns by
observed call timings alone, without knowing the MPI-internal protocol.
"""

from repro.analysis.patterns import LATE_RECEIVER, LATE_SENDER
from repro.api import analyze
from repro.sim.runtime import MetaMPIRuntime
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster

from benchmarks.conftest import write_artifact

MESSAGE_BYTES = 256 * 1024


def _late_receiver_app(ctx):
    """Sender ready early; receiver busy — protocol decides who waits."""
    with ctx.region("main"):
        for _ in range(5):
            if ctx.rank == 0:
                yield ctx.comm.send(1, MESSAGE_BYTES, tag=0)
            else:
                yield ctx.compute(0.05)
                yield ctx.comm.recv(0, 0)
        yield ctx.comm.barrier()


def _run(threshold: int):
    mc = single_cluster(node_count=2, cpus_per_node=1)
    placement = Placement.block(mc, 2)
    params = SimParams(eager_threshold_bytes=threshold)
    runtime = MetaMPIRuntime(mc, placement, seed=5, params=params)
    return analyze(runtime.run(_late_receiver_app))


def test_ablation_protocol_threshold(benchmark, artifact_dir):
    thresholds = [4 * 1024, 64 * 1024, 1024 * 1024]

    def sweep():
        return {t: _run(t) for t in thresholds}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "Ablation: eager threshold vs wait-state attribution",
        f"(message size: {MESSAGE_BYTES // 1024} KiB; receiver busy 50 ms/msg)",
        "",
        f"{'threshold':>12s} {'protocol':>12s} {'late sender [ms]':>17s} "
        f"{'late receiver [ms]':>19s}",
    ]
    for t, result in results.items():
        protocol = "eager" if MESSAGE_BYTES <= t else "rendezvous"
        lines.append(
            f"{t:12d} {protocol:>12s} "
            f"{result.metric_total(LATE_SENDER) * 1e3:17.2f} "
            f"{result.metric_total(LATE_RECEIVER) * 1e3:19.2f}"
        )
    write_artifact("ablation_protocol.txt", "\n".join(lines))

    rendezvous = results[4 * 1024]
    eager = results[1024 * 1024]
    # Rendezvous: the sender stalls → Late Receiver dominates.
    assert rendezvous.metric_total(LATE_RECEIVER) > 0.2
    # Eager: the sender is free → essentially no Late Receiver.
    assert eager.metric_total(LATE_RECEIVER) < 0.01
    benchmark.extra_info["rendezvous_late_receiver_s"] = rendezvous.metric_total(
        LATE_RECEIVER
    )
    benchmark.extra_info["eager_late_receiver_s"] = eager.metric_total(LATE_RECEIVER)
