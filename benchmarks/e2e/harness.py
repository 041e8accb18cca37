"""Parent side of the benchmark: one fresh subprocess per workload and pass.

The harness compiles the program's bytecode once (the only build step a
pure-Python program has), starts :mod:`benchmarks.e2e.worker` for each
measurement, and reduces what the workers report to the metrics named in
``BENCHMARK.json`` — medians with quartiles and sample counts, never
minima.  Scratch files live under ``benchmarks/e2e/.build/`` and are
removed when the run ends.
"""

from __future__ import annotations

import compileall
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
BUILD = HERE / ".build"
PYCACHE = BUILD / "pycache"

SCHEMA = "repro-bench-e2e/1"
#: Set-ups measured per untraced run (each in its own fresh process);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found a failure)."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units and bounds every report uses."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def machine_facts() -> Dict[str, Any]:
    """The machine the numbers came from; recorded beside them."""
    try:
        affinity: Optional[List[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def build() -> None:
    """Compile ``src/`` and this package into the benchmark's own bytecode cache.

    Workers, the server and the pool's spawned workers all start fresh
    interpreters; with a warm cache they import as an installed program
    would, and with ``PYTHONPYCACHEPREFIX`` pointing here no ``.pyc`` lands
    in the source tree.  Up-to-date files are skipped, so every run after
    the first pays a few milliseconds.
    """
    if not (SOURCE / "repro" / "api.py").is_file():
        raise BenchmarkError(f"no program to measure: {SOURCE / 'repro'} is missing")
    PYCACHE.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    for tree in (SOURCE / "repro", HERE):
        if not compileall.compile_dir(str(tree), quiet=2):
            raise BenchmarkError(f"bytecode compilation of {tree} failed")


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE), str(ROOT)])
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(
    workload: str,
    seed: int,
    seconds: float,
    *,
    tmp_root: str,
    smoke: bool = False,
    traced: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """One workload run in a fresh interpreter; returns the worker's document."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--tmp-root", tmp_root,
    ]  # fmt: skip
    for flag, on in (("--smoke", smoke), ("--traced", traced), ("--setup-only", setup_only)):
        if on:
            command.append(flag)
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker for {workload} exited with {completed.returncode}:\n{completed.stdout[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "samples": values,
    }


def measure_workload(
    spec: Dict[str, Any],
    workload: str,
    seed: int,
    seconds: float,
    *,
    tmp_root: str,
    smoke: bool = False,
    untraced: bool = True,
    traced: bool = False,
) -> Dict[str, Any]:
    """Run the requested passes of one workload and reduce them to its entry."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    entry: Dict[str, Any] = {"why": why, "seed": seed, "attempted": 0, "failed": 0, "failures": []}

    def account(document: Dict[str, Any]) -> None:
        entry["attempted"] += document["attempted"]
        entry["failed"] += document["failed"]
        entry["failures"] += document["failures"]
        # The untraced pass runs first and its facts (the service's phase walls) stand.
        entry["facts"] = {**document["facts"], **entry.get("facts", {})}

    def run(**options: Any) -> Dict[str, Any]:
        return run_worker(workload, seed, seconds, tmp_root=tmp_root, smoke=smoke, **options)

    if untraced:
        extra_setups = 0 if smoke else SETUP_SAMPLES - 1
        setups = [run(setup_only=True)["setup_s"] for _ in range(extra_setups)]
        document = run()
        account(document)
        setups.append(document["setup_s"])
        if not document["samples"]:
            raise BenchmarkError(f"{workload}: no operation completed: {document['failures']}")
        entry["end_to_end"] = {
            "setup_s": summarize(setups, units["setup_s"]),
            "wall_s": summarize(document["samples"], units["wall_s"]),
            "peak_rss_mib": summarize([document["peak_rss_mib"]], units["peak_rss_mib"]),
            "throughput_per_s": summarize(
                [document["throughput_per_s"]], units["throughput_per_s"]
            ),
        }
    if traced:
        document = run(traced=True)
        account(document)
        unknown = sorted(set(document["layer"]) - set(units))
        if unknown:
            raise BenchmarkError(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
        entry["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in document["layer"].items()
        }
        entry["spans"] = document["spans"]
        if untraced and document["samples"]:
            entry["tracing_overhead_ratio"] = (
                statistics.median(document["samples"]) / entry["end_to_end"]["wall_s"]["value"]
            )
    return entry


def run_benchmark(
    spec: Dict[str, Any],
    seed: int,
    seconds: float,
    *,
    smoke: bool = False,
    traced: bool = False,
    workloads: Sequence[str] = WORKLOADS,
    untraced: bool = True,
) -> Dict[str, Any]:
    """Build, measure every requested workload, return the result document."""
    build()
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=BUILD)

    def measure(workload: str) -> Dict[str, Any]:
        return measure_workload(
            spec, workload, seed, seconds,
            tmp_root=tmp_root, smoke=smoke, untraced=untraced, traced=traced,
        )  # fmt: skip

    try:
        # A smoke run checks names and correctness, not speed, so its
        # workloads may share the machine; a measuring run never does.
        with ThreadPoolExecutor(max_workers=2 if smoke else 1) as pool:
            entries = dict(zip(workloads, pool.map(measure, workloads)))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return {
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "machine": machine_facts(),
        "workloads": entries,
    }


def contract_result(
    spec: Dict[str, Any], document: Dict[str, Any], workload: str, trace: bool
) -> Dict[str, Any]:
    """The one-line result the benchmark contract asks of a single run."""
    entry = document["workloads"][workload]
    if trace:
        measured = entry["per_layer"]
        # A layer this workload never enters did no work here: its time is 0.
        metrics = {
            m["name"]: {
                "value": measured.get(m["name"], {}).get("value", 0.0),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def format_report(document: Dict[str, Any]) -> str:
    """Every metric of every workload by name, with its unit."""
    machine = document["machine"]
    lines = [
        f"benchmarks/e2e  seed={document['seed']}  seconds={document['seconds']}"
        f"{'  (smoke sizes)' if document['smoke'] else ''}",
        f"machine: {machine['cpu_count']} cpu (affinity {machine['affinity']}), "
        f"{machine['implementation']} {machine['python']}, {machine['platform']}",
    ]
    for name, entry in document["workloads"].items():
        lines.append("")
        lines.append(
            f"== {name}: {entry['attempted']} operations attempted, {entry['failed']} failed "
            f"(error_rate {entry['failed'] / max(1, entry['attempted']):.4f})"
        )
        facts = ", ".join(
            f"{key}={value}" for key, value in entry.get("facts", {}).items()
            if key != "archive_sha256"
        )  # fmt: skip
        lines.append(f"   inputs: {facts}")
        for failure in entry["failures"][:5]:
            lines.append(f"   FAILED: {failure}")
        for metric, row in entry.get("end_to_end", {}).items():
            lines.append(
                f"   {metric:<36} {row['value']:>14.6g} {row['unit']:<6}"
                f" n={row['n']} q1={row['q1']:.6g} q3={row['q3']:.6g}"
            )
        if "tracing_overhead_ratio" in entry:
            lines.append(
                f"   {'tracing_overhead_ratio':<36} {entry['tracing_overhead_ratio']:>14.4f}"
                " (traced wall_s / untraced wall_s)"
            )
        for metric, row in entry.get("per_layer", {}).items():
            lines.append(f"     {metric:<34} {row['value']:>14.6g} {row['unit']}")
    return "\n".join(lines)
