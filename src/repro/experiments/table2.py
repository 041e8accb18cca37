"""Table 2: clock-condition violations under the three synchronization schemes.

Runs the varying-pairs short-message benchmark on the three-metahost VIOLA
testbed with unsynchronized node clocks, then analyzes the *same* trace
archive once per synchronization scheme, counting the clock-condition
violations the parallel analyzer reports.

Paper values: single flat offset 7560, two flat offsets 2179, two
hierarchical offsets 0.  The shape targets are: the single flat offset
(no drift compensation) produces the most violations, interpolated flat
offsets still produce many (their intra-metahost relative offsets inherit
the external link's measurement error), and the hierarchical scheme
produces none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import AnalysisRequest, AnalysisResult, analyze, verify_archives
from repro.apps.clockbench import ClockBenchConfig, make_clockbench_app
from repro.clocks.sync import SCHEMES
from repro.experiments.figures import raise_on_damage
from repro.resilience import CheckpointJournal
from repro.sim.runtime import MetaMPIRuntime, RunResult
from repro.topology.metacomputer import Placement
from repro.topology.presets import CAESAR, FH_BRS, FZJ_XD1, viola_testbed

#: The paper's Table 2 (for reference in reports).
PAPER_TABLE2 = {
    "single-flat-offset": 7560,
    "two-flat-offsets": 2179,
    "two-hierarchical-offsets": 0,
}


@dataclass(frozen=True)
class Table2Row:
    scheme: str
    violations: int
    messages: int
    internal_violations: int
    external_violations: int
    paper_violations: int


def default_benchmark() -> ClockBenchConfig:
    """Benchmark sizing: ≈7k messages spread over ≈48 s of run time."""
    return ClockBenchConfig(
        rounds=320, exchanges_per_round=2, size_bytes=64, inter_round_gap_s=0.15
    )


def run_table2(
    seed: int = 7,
    config: Optional[ClockBenchConfig] = None,
    nodes_per_metahost: int = 4,
    clock_drift_scale: float = 3e-6,
    request: Optional[AnalysisRequest] = None,
    journal: Optional[CheckpointJournal] = None,
    deadline=None,
) -> Tuple[List[Table2Row], RunResult, Dict[str, AnalysisResult]]:
    """Regenerate Table 2.

    One traced run; three analyses of its archive, one per scheme — exactly
    how the paper's comparison works.

    With a ``journal``, each per-scheme analysis is a resumable cell: an
    interrupted sweep rerun with the same journal skips the schemes it
    already finished (their rows are rebuilt from the journal; ``analyses``
    then lacks those schemes).  ``request`` describes every analysis as
    in :func:`repro.api.analyze`; its ``verify_archive`` checksum-verifies
    the run's archives first and raises
    :class:`~repro.errors.ArchiveError` on damage.
    """
    config = config or default_benchmark()
    metacomputer = viola_testbed()
    placement = Placement.from_counts(
        metacomputer,
        [
            (FZJ_XD1, nodes_per_metahost, 1),
            (FH_BRS, nodes_per_metahost, 1),
            (CAESAR, nodes_per_metahost, 1),
        ],
    )
    runtime = MetaMPIRuntime(
        metacomputer,
        placement,
        seed=seed,
        clock_drift_scale=clock_drift_scale,
    )
    run = runtime.run(make_clockbench_app(config))
    request = request or AnalysisRequest()
    if request.verify_archive:
        raise_on_damage("table2", verify_archives(run))

    rows: List[Table2Row] = []
    analyses: Dict[str, AnalysisResult] = {}
    for scheme in SCHEMES:
        cell = {
            "experiment": "table2",
            "scheme": scheme.name,
            "seed": seed,
            "nodes_per_metahost": nodes_per_metahost,
            "clock_drift_scale": clock_drift_scale,
            "config": asdict(config),
        }
        if journal is not None:
            cached = journal.get(cell)
            if cached is not None:
                rows.append(Table2Row(**cached))
                continue
        result = analyze(run, request, scheme=scheme, deadline=deadline)
        analyses[scheme.name] = result
        summary = result.violations.summary()
        row = Table2Row(
            scheme=scheme.name,
            violations=summary["violations"],
            messages=summary["messages"],
            internal_violations=summary["internal_violations"],
            external_violations=summary["external_violations"],
            paper_violations=PAPER_TABLE2[scheme.name],
        )
        rows.append(row)
        if journal is not None:
            journal.record(cell, asdict(row))
    return rows, run, analyses


def table2_text(rows: List[Table2Row]) -> str:
    lines = [
        "Table 2: number of clock condition violations recognized by the "
        "parallel analyzer",
        "",
        f"{'measurement':28s} {'violations':>11s} {'internal':>9s} "
        f"{'external':>9s} {'messages':>9s} {'paper':>7s}",
    ]
    for row in rows:
        lines.append(
            f"{row.scheme:28s} {row.violations:11d} {row.internal_violations:9d} "
            f"{row.external_violations:9d} {row.messages:9d} {row.paper_violations:7d}"
        )
    return "\n".join(lines)


def check_table2_shape(rows: List[Table2Row]) -> Dict[str, bool]:
    by_scheme = {row.scheme: row for row in rows}
    single = by_scheme["single-flat-offset"]
    flat = by_scheme["two-flat-offsets"]
    hierarchical = by_scheme["two-hierarchical-offsets"]
    return {
        "single_worst": single.violations > flat.violations,
        "flat_substantial": flat.violations > 50,
        "hierarchical_zero": hierarchical.violations == 0,
        "flat_violations_internal": flat.external_violations == 0,
    }
