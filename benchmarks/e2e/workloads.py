"""Workload generation: names, sizes, and every seeded input.

The benchmark owns its inputs.  Everything here is plain data derived
from ``--seed``; the program under test receives only the generated
values (a simulation seed, fault positions, job specifications in a
fixed order) and never sees the seed's role in the benchmark.  Nothing in
this module imports :mod:`repro`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: The five workloads, in the order they run.  Later issues cite these
#: names; ``BENCHMARK.json`` records why each was chosen.
WORKLOADS = (
    "sim_128",
    "replay_128",
    "replay_salvage_128",
    "replay_jobs2_64",
    "service_closed_loop",
)

#: Closed loop: each client sends its next request only after the previous
#: one completed.  Two clients, one keep-alive connection each (= nproc on
#: the box the benchmark was sized on).
SERVICE_CLIENTS = 2


@dataclass(frozen=True)
class Sizing:
    """How much work one run of a workload measures."""

    #: ``scaled_experiment1`` factor of the ``*_128`` workloads (32·factor ranks).
    factor_large: int
    #: ``scaled_experiment1`` factor of ``replay_jobs2_64``.
    factor_jobs2: int
    #: Time box of the timed repetitions in seconds; ignored when ``reps`` is set.
    seconds: float
    #: Fixed number of timed repetitions (after the discarded warm-up), or None.
    reps: Optional[int]
    #: Distinct jobs of the service's phase A / resubmissions of phase B.
    service_jobs: int
    service_resubmits: int

    @classmethod
    def timed(cls, seconds: float) -> "Sizing":
        """Full-size inputs measured for *seconds* seconds per workload.

        The service's store rewrites its whole journal on every save, so
        its cost per job grows with the number of jobs stored: the request
        counts are fixed by the run length (120 + 400 at the default 20 s)
        instead of being whatever fits, so two runs of the same length
        submit the same work.  They never go below 100 + 200, the least
        that leaves ten samples beyond phase A's p90 and phase B's p95.
        """
        return cls(
            factor_large=4,
            factor_jobs2=2,
            seconds=seconds,
            reps=None,
            service_jobs=max(100, round(6 * seconds)),
            service_resubmits=max(200, round(20 * seconds)),
        )

    @classmethod
    def smoke(cls) -> "Sizing":
        return cls(
            factor_large=1,
            factor_jobs2=1,
            seconds=0.0,
            reps=2,
            service_jobs=12,
            service_resubmits=40,
        )


def fault_positions(nranks: int) -> Dict[str, List[Tuple[Any, ...]]]:
    """Trace-only damage of ``replay_salvage_128``: two truncations, one corruption.

    At 128 ranks these are ranks 127, 66 and 68 — the last rank and two
    ranks just past the metahost boundary at ``nranks // 2``.
    """
    half = nranks // 2
    return {
        "truncations": [(nranks - 1, 0.6), (half + 2, 0.7)],
        "corruptions": [(half + 4, 0.5, 8)],
    }


def service_jobs(seed: int, count: int) -> List[Dict[str, Any]]:
    """Phase A: *count* distinct job specifications in a seed-shuffled order.

    Three in five are small ``simulate`` jobs and the rest one-interval
    ``analyze`` jobs, each with its own program seed so none deduplicates
    against another.
    """
    simulate = count * 3 // 5
    specs: List[Dict[str, Any]] = []
    for i in range(count):
        if i < simulate:
            spec = {
                "kind": "simulate",
                "experiment": "imbalance",
                "config": {"ranks": 16, "metahosts": 2, "iterations": 8},
            }
        else:
            spec = {
                "kind": "analyze",
                "experiment": "figure6",
                "config": {"coupling_intervals": 1},
            }
        spec["seed"] = 1000 * seed + i
        spec["jobs"] = 1
        specs.append(spec)
    random.Random(seed).shuffle(specs)
    return specs


def service_resubmissions(
    seed: int, jobs: List[Dict[str, Any]], count: int
) -> List[Dict[str, Any]]:
    """Phase B: *count* resubmissions drawn from the phase-A specifications."""
    rng = random.Random(seed + 1)
    return [rng.choice(jobs) for _ in range(count)]
