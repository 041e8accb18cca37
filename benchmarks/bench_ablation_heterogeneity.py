"""Ablation — hardware heterogeneity vs application imbalance.

The paper's conclusion states that "from a single experiment it is
difficult to judge whether the load imbalance is caused by the
heterogeneity of the cluster (including varying network characteristics)
or by the application itself".  In simulation we can answer it directly:
sweep ONLY the CAESAR/FH-BRS CPU-speed ratio while keeping the MetaTrace
application fixed.  The grid Late Sender severity inside ``cgiteration()``
should track the hardware gap and vanish at speed parity — proving that in
Experiment 1 the solver's waiting is hardware-caused, while the coupling
(barrier) imbalance has an application component that persists.
"""

from repro.analysis.patterns import GRID_LATE_SENDER, GRID_WAIT_AT_BARRIER
from repro.api import analyze
from repro.apps.metatrace import make_metatrace_app
from repro.apps.metatrace.config import interleaved_x_coords
from repro.experiments.configs import EXPERIMENT1_BLOCKS, PARTRACE_RANKS, TRACE_RANKS
from repro.apps.metatrace.config import MetaTraceConfig
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import viola_testbed

from benchmarks.conftest import write_artifact


def _run(caesar_speed: float, seed: int = 11):
    metacomputer = viola_testbed(caesar_speed=caesar_speed, fhbrs_speed=2.0)
    placement = Placement.from_counts(metacomputer, list(EXPERIMENT1_BLOCKS))
    config = MetaTraceConfig(
        trace_ranks=TRACE_RANKS,
        partrace_ranks=PARTRACE_RANKS,
        dims=(4, 2, 2),
        trace_coords=interleaved_x_coords((4, 2, 2), 8),
        coupling_intervals=3,
    )
    runtime = MetaMPIRuntime(
        metacomputer, placement, seed=seed, subcomms=config.subcomms()
    )
    return analyze(runtime.run(make_metatrace_app(config)))


def test_ablation_heterogeneity_sweep(benchmark, artifact_dir):
    speeds = [1.0, 1.5, 2.0]

    def sweep():
        return {s: _run(s) for s in speeds}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "Ablation: CAESAR CPU speed vs grid wait states (FH-BRS fixed at 2.0)",
        "",
        f"{'CAESAR speed':>13s} {'speed ratio':>12s} {'grid LS %':>10s} "
        f"{'grid WAB %':>11s}",
    ]
    for speed, result in results.items():
        lines.append(
            f"{speed:13.1f} {2.0 / speed:12.2f} "
            f"{result.pct(GRID_LATE_SENDER):10.2f} "
            f"{result.pct(GRID_WAIT_AT_BARRIER):11.2f}"
        )
    lines += [
        "",
        "At speed parity (ratio 1.0) the solver's grid Late Sender vanishes:",
        "it is hardware-caused.  The coupling barrier wait shrinks but only",
        "partly: the Trace/Partrace work split is an application property.",
    ]
    write_artifact("ablation_heterogeneity.txt", "\n".join(lines))

    ls = {s: r.pct(GRID_LATE_SENDER) for s, r in results.items()}
    # Monotone in the hardware gap, near-zero at parity.
    assert ls[1.0] > ls[1.5] > ls[2.0]
    assert ls[2.0] < 1.0
    assert ls[1.0] > 5.0
    benchmark.extra_info["grid_late_sender_pct_by_speed"] = ls
