"""Ablation — offset-measurement effort vs clock-condition violations.

Sweeps the number of ping-pong exchanges per offset measurement (the
minimum-RTT filter's sample size).  More exchanges sharpen each individual
measurement, but the flat scheme's *structural* error — intra-metahost
alignment inherited from the external link — does not go away, while the
hierarchical scheme is already violation-free with minimal effort.  This is
the design argument for fixing the topology of measurements rather than
spending more probes.
"""

from repro.api import analyze
from repro.apps.clockbench import ClockBenchConfig, make_clockbench_app
from repro.clocks.measurement import OffsetMeasurementConfig
from repro.clocks.sync import SCHEMES
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import CAESAR, FH_BRS, FZJ_XD1, viola_testbed

from benchmarks.conftest import write_artifact


def _violations(exchanges: int):
    mc = viola_testbed()
    placement = Placement.from_counts(
        mc, [(FZJ_XD1, 3, 1), (FH_BRS, 3, 1), (CAESAR, 3, 1)]
    )
    runtime = MetaMPIRuntime(
        mc,
        placement,
        seed=7,
        clock_drift_scale=3e-6,
        measurement_config=OffsetMeasurementConfig(exchanges=exchanges),
    )
    config = ClockBenchConfig(rounds=120, exchanges_per_round=2, inter_round_gap_s=0.15)
    run = runtime.run(make_clockbench_app(config))
    return {
        scheme.name: analyze(run, scheme=scheme).violations.violations
        for scheme in SCHEMES
    }


def test_ablation_measurement_effort(benchmark, artifact_dir):
    efforts = [1, 4, 16]

    def sweep():
        return {n: _violations(n) for n in efforts}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        "Ablation: ping-pongs per offset measurement vs violations",
        "",
        f"{'exchanges':>10s} {'single-flat':>12s} {'two-flat':>10s} "
        f"{'hierarchical':>13s}",
    ]
    for n, by_scheme in results.items():
        lines.append(
            f"{n:10d} {by_scheme['single-flat-offset']:12d} "
            f"{by_scheme['two-flat-offsets']:10d} "
            f"{by_scheme['two-hierarchical-offsets']:13d}"
        )
    write_artifact("ablation_sync_quality.txt", "\n".join(lines))

    for by_scheme in results.values():
        # The hierarchy, not the probe count, is what eliminates violations.
        assert by_scheme["two-hierarchical-offsets"] == 0
        assert by_scheme["two-flat-offsets"] > 0
    benchmark.extra_info["results"] = results
