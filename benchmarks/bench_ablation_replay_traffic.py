"""Ablation — replay analysis traffic vs merged-trace copying.

The paper argues (Sections 3/4) that the parallel replay "avoids costly
copying of trace data between metahosts": each analysis process only ships
per-event metadata.  This bench quantifies the claim on MetaTrace
Experiment 1 and on a sweep of growing synthetic runs: the bytes a merged
analysis would copy across metahosts versus the metadata bytes the replay
exchanges.
"""

from repro.api import analyze
from repro.apps.imbalance import make_imbalance_app
from repro.experiments.figures import run_metatrace_experiment
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

from benchmarks.conftest import write_artifact


def _synthetic_traffic(iterations: int):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    placement = Placement.block(mc, 4)
    runtime = MetaMPIRuntime(mc, placement, seed=1)
    run = runtime.run(
        make_imbalance_app({r: 0.001 for r in range(4)}, iterations=iterations)
    )
    return analyze(run).traffic


def test_ablation_replay_traffic(benchmark, artifact_dir):
    def workload():
        outcome = run_metatrace_experiment(figure=1, seed=11, coupling_intervals=3)
        sweep = {n: _synthetic_traffic(n) for n in (10, 50, 200)}
        return outcome.result.traffic, sweep

    metatrace_traffic, sweep = benchmark.pedantic(workload, rounds=1, iterations=1)

    lines = [
        "Ablation: replay metadata vs merged-trace copy volume",
        "",
        f"{'workload':>22s} {'replay [KiB]':>13s} {'merged copy [KiB]':>18s} "
        f"{'saving factor':>14s}",
    ]

    def row(label, traffic):
        return (
            f"{label:>22s} {traffic.replay_metadata_bytes / 1024:13.1f} "
            f"{traffic.merged_copy_bytes / 1024:18.1f} "
            f"{traffic.saving_factor:14.1f}"
        )

    lines.append(row("MetaTrace exp. 1", metatrace_traffic))
    for n, traffic in sweep.items():
        lines.append(row(f"ring x{n}", traffic))
    write_artifact("ablation_replay_traffic.txt", "\n".join(lines))

    # The replay always moves less data than a merge would copy.
    assert metatrace_traffic.saving_factor > 2.0
    for traffic in sweep.values():
        assert traffic.saving_factor > 1.0
    benchmark.extra_info["metatrace_saving_factor"] = metatrace_traffic.saving_factor
