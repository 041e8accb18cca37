"""Parallel replay-analysis benchmark: serial vs sharded workers.

Times the full replay analysis of the scaled Experiment 1 workload
(64 ranks at the default factor 2) at ``jobs = 1, 2, 4`` and writes the
results to ``BENCH_parallel.json``, extending the perf trajectory of
``BENCH_pipeline.json``:

* **jobs=1** — :class:`~repro.analysis.streaming.StreamingReplayAnalyzer`
  with its local phase in-process;
* **jobs=N** — the same analyzer, the local phase of the same archive
  sharded across N worker processes.

Every parallel result is checked bit-identical to the serial severity cube
before its timing is recorded — a benchmark of a wrong analysis is
worthless.  The document records ``cpu_count`` because the speedup target
(≥ 2× at 64 ranks) only applies on machines with ≥ 4 cores; on smaller
boxes the numbers quantify the sharding overhead instead.

Usable three ways:

* pytest (tier-2 perf suite): ``pytest benchmarks/bench_parallel_analysis.py``;
* script: ``PYTHONPATH=src python benchmarks/bench_parallel_analysis.py
  --factor 2 --jobs 1 2 4 --out BENCH_parallel.json``;
* library: :func:`run_parallel_benchmark` from the smoke test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import time
from typing import Dict, List, Optional, Sequence

from repro.api import AnalysisRequest, analyze
from repro.apps.metatrace import make_metatrace_app
from repro.experiments.configs import scaled_experiment1
from repro.sim.runtime import MetaMPIRuntime

#: Schema identifier written into (and checked against) the JSON artifact.
SCHEMA = "repro-bench-parallel/1"

DEFAULT_FACTOR = 2  # 64 ranks
DEFAULT_JOBS = (1, 2, 4)
DEFAULT_SEED = 1
DEFAULT_REPS = 3
DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_parallel.json"

def available_cpus() -> int:
    """Cores this machine exposes to the process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_parallel_benchmark(
    factor: int = DEFAULT_FACTOR,
    jobs_list: Sequence[int] = DEFAULT_JOBS,
    seed: int = DEFAULT_SEED,
    reps: int = DEFAULT_REPS,
    coupling_intervals: Optional[int] = None,
    cg_iterations: Optional[int] = None,
) -> Dict[str, object]:
    """Simulate once, analyze at every jobs value; returns the document."""
    metacomputer, placement, config = scaled_experiment1(
        factor, coupling_intervals=coupling_intervals
    )
    if cg_iterations is not None:
        config = dataclasses.replace(config, cg_iterations=cg_iterations)
    nranks = len(config.trace_ranks) + len(config.partrace_ranks)

    runtime = MetaMPIRuntime(
        metacomputer, placement, seed=seed, subcomms=config.subcomms()
    )
    run = runtime.run(make_metatrace_app(config))

    serial_cube = None
    results: List[Dict[str, object]] = []
    for jobs in jobs_list:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            result = analyze(run, AnalysisRequest(jobs=jobs))
            best = min(best, time.perf_counter() - t0)
        if jobs == 1 or serial_cube is None:
            serial_cube = result.cube.data
        elif result.cube.data != serial_cube:
            raise AssertionError(
                f"jobs={jobs} produced a different severity cube than serial"
            )
        results.append({"jobs": jobs, "analyze_s": best})

    serial_s = next(r["analyze_s"] for r in results if r["jobs"] == 1)
    for row in results:
        row["speedup_vs_serial"] = (
            serial_s / row["analyze_s"] if row["analyze_s"] > 0 else float("inf")
        )
    return {
        "schema": SCHEMA,
        "workload": "scaled-experiment1",
        "factor": factor,
        "ranks": nranks,
        "seed": seed,
        "reps": reps,
        "cpu_count": available_cpus(),
        "trace_bytes": run.total_trace_bytes,
        "results": results,
    }


def validate_document(doc: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless *doc* matches the BENCH_parallel schema."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    if not isinstance(doc.get("cpu_count"), int) or doc["cpu_count"] < 1:
        raise ValueError(f"bad cpu_count {doc.get('cpu_count')!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("results must be a non-empty list")
    if not any(row.get("jobs") == 1 for row in results):
        raise ValueError("results must include the serial jobs=1 baseline")
    for row in results:
        for key in ("jobs", "analyze_s", "speedup_vs_serial"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"result key {key!r} has bad value {value!r}")


def write_document(doc: Dict[str, object], out: pathlib.Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


try:  # pytest entry point; the module stays runnable without pytest.
    import pytest
except ImportError:  # pragma: no cover - script usage
    pytest = None


if pytest is not None:

    @pytest.mark.perf
    @pytest.mark.slow
    def test_perf_parallel_analysis():
        """64-rank serial-vs-parallel run; writes BENCH_parallel.json.

        The ≥2× speedup acceptance target applies on machines with ≥4
        cores; elsewhere the run still validates correctness (identical
        cubes) and records the overhead honestly.
        """
        doc = run_parallel_benchmark()
        validate_document(doc)
        write_document(doc, DEFAULT_OUT)
        assert doc["ranks"] == 64
        if doc["cpu_count"] >= 4:
            best = max(r["speedup_vs_serial"] for r in doc["results"])
            assert best >= 2.0, (
                f"expected >=2x parallel speedup on {doc['cpu_count']} cores, "
                f"best was {best:.2f}x"
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=int,
        default=DEFAULT_FACTOR,
        help="scale factor (ranks = 32 * factor); default: 2 (64 ranks)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=list(DEFAULT_JOBS),
        help="jobs values to time; default: 1 2 4",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS, help="min-of-N repetitions"
    )
    parser.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="override coupling_intervals (smaller = faster run)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args(argv)
    jobs_list = args.jobs if 1 in args.jobs else [1, *args.jobs]
    doc = run_parallel_benchmark(
        factor=args.factor,
        jobs_list=jobs_list,
        seed=args.seed,
        reps=args.reps,
        coupling_intervals=args.intervals,
    )
    validate_document(doc)
    write_document(doc, args.out)
    print(f"{doc['ranks']} ranks on {doc['cpu_count']} cpus:")
    for row in doc["results"]:
        print(
            f"  jobs={row['jobs']:>2}  analyze {row['analyze_s']:.4f}s  "
            f"speedup {row['speedup_vs_serial']:.2f}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
