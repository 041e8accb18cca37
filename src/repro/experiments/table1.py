"""Table 1: latencies of the internal and external networks in VIOLA.

Runs the ping-pong benchmark on the simulated testbed and reports mean and
standard deviation of the one-way latency for the same three rows as the
paper: FZJ–FH-BRS (external), FZJ internal, FH-BRS internal.

Expected shape: the external latency exceeds the internal latencies by two
orders of magnitude, and its standard deviation exceeds theirs as well —
"the standard deviation is an indicator for the precision of offset
measurements across these links".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.apps.pingpong import PingPongResults, make_pingpong_app
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import FH_BRS, FZJ_XD1, viola_testbed

#: The paper's Table 1 values (seconds), for shape comparison.
PAPER_TABLE1 = {
    "FZJ - FH-BRS (external network)": (9.88e-4, 3.86e-6),
    "FZJ (internal network)": (2.15e-5, 8.14e-7),
    "FH-BRS (internal network)": (4.44e-5, 3.60e-7),
}


@dataclass(frozen=True)
class Table1Row:
    label: str
    mean_s: float
    std_s: float
    paper_mean_s: float
    paper_std_s: float


def run_table1(seed: int = 0, repetitions: int = 400) -> List[Table1Row]:
    """Regenerate Table 1 on the simulated VIOLA testbed."""
    metacomputer = viola_testbed()
    placement = Placement.from_counts(
        metacomputer, [(FZJ_XD1, 2, 1), (FH_BRS, 2, 1)]
    )
    # Ranks: 0, 1 on two FZJ nodes; 2, 3 on two FH-BRS nodes.
    pairs = {
        "FZJ - FH-BRS (external network)": (0, 2),
        "FZJ (internal network)": (0, 1),
        "FH-BRS (internal network)": (2, 3),
    }
    results = PingPongResults()
    app = make_pingpong_app(results, list(pairs.values()), repetitions=repetitions)
    world = World(
        metacomputer, placement, rng=np.random.default_rng(seed)
    )
    world.launch(app, seed=seed)
    world.run()

    rows: List[Table1Row] = []
    for label, pair in pairs.items():
        paper_mean, paper_std = PAPER_TABLE1[label]
        rows.append(
            Table1Row(
                label=label,
                mean_s=results.mean_s(pair),
                std_s=results.std_s(pair),
                paper_mean_s=paper_mean,
                paper_std_s=paper_std,
            )
        )
    return rows


def table1_text(rows: List[Table1Row]) -> str:
    lines = [
        "Table 1: latencies of the internal and external networks in VIOLA",
        "",
        f"{'link':38s} {'mean [us]':>12s} {'std [us]':>10s} "
        f"{'paper mean':>12s} {'paper std':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row.label:38s} {row.mean_s * 1e6:12.2f} {row.std_s * 1e6:10.3f} "
            f"{row.paper_mean_s * 1e6:12.2f} {row.paper_std_s * 1e6:10.3f}"
        )
    return "\n".join(lines)


def check_table1_shape(rows: List[Table1Row]) -> Dict[str, bool]:
    """Shape assertions: external ≫ internal in both mean and jitter."""
    by_label = {row.label: row for row in rows}
    external = by_label["FZJ - FH-BRS (external network)"]
    fzj = by_label["FZJ (internal network)"]
    fhbrs = by_label["FH-BRS (internal network)"]
    return {
        # "two orders of magnitude" in the paper compares against the FZJ
        # internal latency (988/21.5 ≈ 46×); against the slower FH-BRS
        # network the paper's own ratio is ≈ 22×.
        "external_two_orders_above_internal": external.mean_s
        > 20 * max(fzj.mean_s, fhbrs.mean_s)
        and external.mean_s > 40 * fzj.mean_s,
        "external_std_largest": external.std_s > max(fzj.std_s, fhbrs.std_s),
        "fhbrs_slower_than_fzj_internally": fhbrs.mean_s > fzj.mean_s,
        "means_within_factor_two_of_paper": all(
            0.5 < row.mean_s / row.paper_mean_s < 2.0 for row in rows
        ),
    }
