"""The four pipeline workloads: simulate, replay, salvage replay, sharded replay.

Each function sets its inputs up, hands :func:`~benchmarks.e2e.measure.timed_reps`
the timed operation and its correctness check, and — in the traced pass —
runs the layer probes that belong to it.  Every call into a layer goes
through ``run.spans.call(name, ...)``, so the traced pass sees it as a
span and the untraced pass pays nothing for it.

Importing this module imports :mod:`repro.api`; the worker does so inside
the set-up interval, which is how ``setup_s`` comes to include it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import resource
import statistics
from typing import Any, Dict, List, Optional, Tuple

import repro.api as api
from repro.analysis.parallel import analyze_shard
from repro.analysis.patterns import LATE_SENDER
from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.streaming import StreamingReplayAnalyzer
from repro.api import AnalysisRequest, render_analysis
from repro.apps.metatrace import make_metatrace_app
from repro.experiments.configs import scaled_experiment1
from repro.faults.plan import FaultPlan, TraceCorruption, TraceTruncation
from repro.report.serialize import result_to_dict
from repro.resilience.pool import PoolConfig, SupervisedPool
from repro.sim.runtime import MetaMPIRuntime, RunResult
from repro.trace.encoding import (
    block_table,
    decode_events,
    encode_events,
    iter_events,
    salvage_events,
)

from benchmarks.e2e.measure import Run, timed_reps
from benchmarks.e2e.workloads import fault_positions

Experiment = Tuple[Any, Any, Any]  # (metacomputer, placement, MetaTrace config)


def _ranks(experiment: Experiment) -> int:
    config = experiment[2]
    return len(config.trace_ranks) + len(config.partrace_ranks)


def _simulate(
    run: Run, experiment: Experiment, fault_plan: Optional[FaultPlan] = None
) -> RunResult:
    """``api.simulate`` taken apart into its two calls, one span each."""
    metacomputer, placement, config = experiment
    runtime = run.spans.call(
        "sim.runtime_build",
        MetaMPIRuntime,
        metacomputer,
        placement,
        seed=run.seed,
        subcomms=config.subcomms(),
        fault_plan=fault_plan,
    )
    return run.spans.call("sim.run", runtime.run, make_metatrace_app(config))


def _api_simulate(run: Run, span: str, experiment: Experiment) -> RunResult:
    """``api.simulate`` as a user calls it, in one span."""
    metacomputer, placement, config = experiment
    return run.spans.call(
        span,
        api.simulate,
        make_metatrace_app(config),
        metacomputer,
        placement,
        seed=run.seed,
        subcomms=config.subcomms(),
    )


def _readers(result: RunResult) -> Dict[int, Any]:
    return {machine: result.reader(machine) for machine in result.machines_used}


def _read_blobs(run: Run, result: RunResult) -> List[Tuple[int, bytes]]:
    def read() -> List[Tuple[int, bytes]]:
        readers = _readers(result)
        definitions = result.definitions
        return [
            (rank, readers[definitions.machine_of(rank)].read_trace_blob(rank))
            for rank in sorted(definitions.locations)
        ]

    return run.spans.call("trace.read_blob", read)


def _archive_facts(run: Run, result: RunResult) -> Dict[str, Any]:
    """Exact size of a run's archive: these must repeat for a seed."""
    blobs = _read_blobs(run, result)
    digest = hashlib.sha256()
    events = 0
    for _, blob in blobs:
        digest.update(blob)
        events += salvage_events(blob, count_only=True).event_count
    return {
        "ranks": len(blobs),
        "events": events,
        "trace_bytes": result.total_trace_bytes,
        "archive_sha256": digest.hexdigest(),
        "p2p_messages": result.stats.p2p_messages,
        "collectives": result.stats.collectives,
    }


def _record_input(run: Run, facts: Dict[str, Any]) -> None:
    """Facts about the input archive, and throughput in its events per second."""
    run.facts.update(facts)
    if run.samples and facts:
        run.throughput_per_s = facts["events"] / statistics.median(run.samples)


def _render(analysis: Any) -> str:
    return render_analysis(analysis, metric=LATE_SENDER, min_pct=0.5)


# -- layer probes shared by several workloads -----------------------------------


def _sim_layer(run: Run) -> None:
    """``sim.*`` from the set-up (or probe) simulation's spans and the archive."""
    run.layer_time("sim.runtime_build", "sim.run")
    facts = run.facts
    run.layer["sim.events_per_s"] = facts["events"] / run.layer["sim.run_s"]
    run.layer["sim.events"] = facts["events"]
    run.layer["sim.trace_bytes"] = facts["trace_bytes"]
    run.layer["sim.p2p_messages"] = facts["p2p_messages"]
    run.layer["sim.collectives"] = facts["collectives"]


def _codec_layer(run: Run, result: RunResult) -> None:
    """``trace.*`` codec probes over every rank of a clean archive."""
    spans = run.spans
    blobs = _read_blobs(run, result)
    decoded = spans.call(
        "trace.decode", lambda: [(rank, decode_events(blob)[1]) for rank, blob in blobs]
    )
    events = sum(len(rank_events) for _, rank_events in decoded)
    spans.call(
        "trace.iter_decode",
        lambda: [sum(1 for _ in iter_events(blob)[1]) for _, blob in blobs],
    )
    spans.call(
        "trace.encode",
        lambda: [encode_events(rank, rank_events) for rank, rank_events in decoded],
    )
    spans.call("trace.block_table", lambda: [block_table(blob) for _, blob in blobs])
    run.layer_time(
        "trace.read_blob", "trace.decode", "trace.iter_decode", "trace.encode", "trace.block_table"
    )
    run.layer["trace.decode_events_per_s"] = events / run.layer["trace.decode_s"]


def _streaming_layer(run: Run, analysis: Any) -> None:
    run.layer_time("analysis.streaming_replay")
    run.layer["analysis.replay_events_per_s"] = (
        run.facts["events"] / run.layer["analysis.streaming_replay_s"]
    )
    run.layer["analysis.matched_pairs"] = analysis.violations.total


def _report_layer(run: Run, analysis: Any) -> None:
    document = run.spans.call(
        "report.serialize", lambda: json.dumps(result_to_dict(analysis))
    )
    run.layer_time("report.render", "report.serialize")
    run.layer["report.result_bytes"] = len(document.encode("utf-8"))


# -- sim_128 ----------------------------------------------------------------------


def sim_128(run: Run) -> None:
    experiment = scaled_experiment1(run.sizing.factor_large)
    run.setup_done()

    seen: List[Dict[str, Any]] = []

    def operation() -> RunResult:
        return _api_simulate(run, "sim.simulate", experiment)

    def check(result: RunResult) -> None:
        run.check(api.verify_archives(result).ok, "archive verification failed")
        seen.append(_archive_facts(run, result))
        run.check(
            seen[-1] == seen[0],
            "events / trace bytes / archive SHA-256 differ between repetitions",
        )

    timed_reps(run, operation, check)
    _record_input(run, seen[0] if seen else {})
    if not run.traced:
        return

    result = _simulate(run, experiment)
    _sim_layer(run)
    _api_simulate(
        run, "sim.fixed", scaled_experiment1(run.sizing.factor_large, coupling_intervals=1)
    )
    run.layer_time("sim.fixed")
    _codec_layer(run, result)


# -- replay_128 -------------------------------------------------------------------


def replay_128(run: Run) -> None:
    experiment = scaled_experiment1(run.sizing.factor_large)
    result = _simulate(run, experiment)
    run.setup_done()

    request = AnalysisRequest()
    texts: List[str] = []

    def operation() -> Tuple[Any, str]:
        analysis = run.spans.call("analysis.analyze", api.analyze, result, request)
        return analysis, run.spans.call("report.render", _render, analysis)

    def check(output: Tuple[Any, str]) -> None:
        analysis, text = output
        run.check(not analysis.degraded, "strict replay came back degraded")
        texts.append(text)
        run.check(text == texts[0], "report text differs between repetitions")

    timed_reps(run, operation, check)
    _record_input(run, _archive_facts(run, result))

    # The buffered two-pass analyzer is the reference the streaming engine
    # must agree with, byte for byte in the rendered report.
    readers = _readers(result)
    reference = run.probe(
        "analysis.reference_replay", lambda: ReplayAnalyzer(readers).analyze()
    )
    before = len(run.failures)
    run.check(
        bool(texts) and _render(reference) == texts[0],
        "streaming report differs from the ReplayAnalyzer rendering",
    )
    run.settle(before)
    del reference
    if not run.traced:
        return

    _sim_layer(run)
    _codec_layer(run, result)
    analysis = run.probe(
        "analysis.streaming_replay", lambda: StreamingReplayAnalyzer(readers).analyze()
    )
    _streaming_layer(run, analysis)
    run.layer_time("analysis.reference_replay")
    _report_layer(run, analysis)
    del analysis
    base = run.spans.median("analysis.analyze")
    for metric, extra in (
        ("analysis.timeline_extra_s", AnalysisRequest(timeline=True)),
        ("analysis.degraded_extra_s", AnalysisRequest(degraded=True)),
    ):
        run.probe(metric, api.analyze, result, extra)
        run.layer[metric] = run.spans.last(metric) - base


# -- replay_salvage_128 -----------------------------------------------------------


def replay_salvage_128(run: Run) -> None:
    experiment = scaled_experiment1(run.sizing.factor_large)
    positions = fault_positions(_ranks(experiment))
    plan = FaultPlan(
        specs=tuple(
            [TraceTruncation(rank=r, keep_fraction=k) for r, k in positions["truncations"]]
            + [
                TraceCorruption(rank=r, at_fraction=a, length=n)
                for r, a, n in positions["corruptions"]
            ]
        ),
        seed=run.seed,
        name="e2e-salvage",
    )
    damaged = sorted(spec.rank for spec in plan.specs)
    result = _simulate(run, experiment, plan)
    run.setup_done()

    request = AnalysisRequest(degraded=True, timeline=True, bounded=True)
    texts: List[str] = []

    def operation() -> Tuple[Any, Any, str]:
        verification = run.spans.call("trace.verify", api.verify_archives, result)
        analysis = run.spans.call("analysis.analyze", api.analyze, result, request)
        return verification, analysis, run.spans.call("report.render", _render, analysis)

    def check(output: Tuple[Any, Any, str]) -> None:
        verification, analysis, text = output
        run.check(not verification.ok, "verification missed the injected damage")
        run.check(analysis.degraded, "salvage replay did not report degraded mode")
        incomplete = sorted(
            rank for rank, c in analysis.completeness.items() if c.completeness < 1.0
        )
        run.check(
            incomplete == damaged,
            f"ranks below full completeness are {incomplete}, expected {damaged}",
        )
        run.check(analysis.severity_timeline is not None, "no severity timeline")
        texts.append(text)
        run.check(text == texts[0], "report text differs between repetitions")

    timed_reps(run, operation, check)
    _record_input(run, _archive_facts(run, result))
    if not run.traced:
        return

    _sim_layer(run)
    blobs = dict(_read_blobs(run, result))
    run.spans.call(
        "trace.block_table", lambda: [block_table(blob) for blob in blobs.values()]
    )
    salvaged = run.spans.call(
        "trace.salvage", lambda: [salvage_events(blobs[rank]) for rank in damaged]
    )
    run.layer_time("trace.read_blob", "trace.block_table", "trace.verify", "trace.salvage")
    run.layer["trace.salvaged_events"] = sum(trace.event_count for trace in salvaged)
    run.layer["trace.damaged_ranks"] = sum(1 for trace in salvaged if not trace.complete)
    run.layer_time("report.render")
    readers = _readers(result)
    run.probe(
        "analysis.streaming_bounded",
        lambda: StreamingReplayAnalyzer(readers, degraded=True, retain=False).analyze(),
    )
    run.layer_time("analysis.streaming_bounded")


# -- replay_jobs2_64 --------------------------------------------------------------


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def replay_jobs2_64(run: Run) -> None:
    experiment = scaled_experiment1(run.sizing.factor_jobs2)
    result = _simulate(run, experiment)
    serial = run.spans.call(
        "analysis.streaming_replay", api.analyze, result, AnalysisRequest(jobs=1)
    )
    reference = result_to_dict(serial)
    run.setup_done()

    request = AnalysisRequest(jobs=2)

    def operation() -> Any:
        # No pool is lent, so every repetition spawns and reaps its own
        # workers: exactly what ``--jobs 2`` on the command line pays.
        return run.spans.call("analysis.parallel_cold", api.analyze, result, request)

    def check(analysis: Any) -> None:
        run.check(
            result_to_dict(analysis) == reference, "jobs=2 result differs from jobs=1"
        )
        execution = analysis.execution
        run.check(
            execution is not None and execution.clean, "pool execution was not clean"
        )

    timed_reps(run, operation, check)
    _record_input(run, _archive_facts(run, result))
    if not run.traced:
        return

    _sim_layer(run)
    _streaming_layer(run, serial)
    gc.collect()
    cpu_before = _cpu_seconds()
    operation()
    run.layer["analysis.parallel_cpu_s"] = _cpu_seconds() - cpu_before
    run.layer_time("analysis.parallel_cold")

    # A lent persistent pool is what a service job with jobs >= 2 pays:
    # the first analysis spawns the workers, the later ones find them warm.
    with SupervisedPool(analyze_shard, PoolConfig(max_workers=2), persistent=True) as pool:
        api.analyze(result, request, pool=pool)
        warm = [
            run.probe("analysis.parallel_warm", api.analyze, result, request, pool=pool)
            for _ in range(2)
        ][-1]
    run.layer_time("analysis.parallel_warm")
    cold_s = run.layer["analysis.parallel_cold_s"]
    warm_s = run.layer["analysis.parallel_warm_s"]
    tasks = [task.wall_time_s for task in warm.execution.tasks]
    run.layer["resilience.pool_spawn_s"] = cold_s - warm_s
    run.layer["analysis.shard_task_max_s"] = max(tasks)
    run.layer["analysis.shard_task_sum_s"] = sum(tasks)
    run.layer["analysis.parallel_residual_s"] = run.spans.last("analysis.parallel_warm") - max(tasks)

    ranks = sorted(result.definitions.locations)
    shard = run.spans.call(
        "analysis.shard_pickle",
        lambda: pickle.dumps(result.trace_shard(ranks[: len(ranks) // 2])),
    )
    run.layer_time("analysis.shard_pickle")
    run.layer["analysis.shard_pickle_bytes"] = len(shard)
