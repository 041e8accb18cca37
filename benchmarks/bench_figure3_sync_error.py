"""Figure 3 — flat vs hierarchical synchronization accuracy.

Quantifies the figure's message: under the flat scheme, slaves of a remote
metahost inherit the external link's offset-measurement error, so their
*mutual* alignment can exceed internal latencies; the hierarchical scheme
keeps intra-metahost alignment at internal-link precision.
"""

import numpy as np

from repro.experiments.figures import run_figure3
from repro.experiments.table2 import simulate_table2

from benchmarks.conftest import write_artifact


def test_figure3_intra_metahost_alignment(benchmark, artifact_dir):
    def workload():
        run = simulate_table2(seed=7)
        return run, run_figure3(run)

    run, outcome = benchmark.pedantic(workload, rounds=1, iterations=1)

    lines = [
        "Figure 3: intra-metahost pairwise synchronization error",
        "",
        f"{'scheme':28s} {'pairs':>6s} {'mean |err| [us]':>16s} {'max |err| [us]':>15s}",
    ]
    for scheme, errors in outcome.pair_errors_us.items():
        abs_err = [abs(e) for e in errors]
        lines.append(
            f"{scheme:28s} {len(errors):6d} {np.mean(abs_err):16.3f} "
            f"{max(abs_err):15.3f}"
        )
    lines.append("")
    lines.append("(FZJ internal latency for reference: 21.5 us)")
    write_artifact("figure3.txt", "\n".join(lines))

    flat = outcome.max_abs_us("two-flat-offsets")
    hier = outcome.max_abs_us("two-hierarchical-offsets")
    assert hier < flat
    assert hier < 21.5  # below the smallest internal latency → 0 violations
    benchmark.extra_info["flat_max_err_us"] = flat
    benchmark.extra_info["hierarchical_max_err_us"] = hier
