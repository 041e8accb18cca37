"""End-to-end fault injection: runtime, sync, archives, degraded replay."""

import warnings

import pytest

from repro.analysis.request import AnalysisRequest
from repro.api import analyze
from repro.errors import (
    CommunicationTimeoutError,
    EncodingError,
    PartialTraceWarning,
    TraceError,
)
from repro.faults import (
    FaultPlan,
    LinkOutage,
    MessageLoss,
    PingFault,
    TraceCorruption,
    TraceTruncation,
)
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

NPROCS = 4


def _app(ctx):
    with ctx.region("main"):
        for round_index in range(3):
            with ctx.region("step"):
                yield ctx.compute(0.002 * (1 + ctx.rank))
                # The slowest rank sends to the fastest: the message (and
                # any retransmission backoff) sits on the critical path.
                if ctx.rank == NPROCS - 1:
                    yield ctx.comm.send(0, 64_000, tag=round_index)
                elif ctx.rank == 0:
                    yield ctx.comm.recv(NPROCS - 1, tag=round_index)
            yield ctx.comm.barrier()


def _run(fault_plan=None, seed=5):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    placement = Placement.block(mc, NPROCS)
    runtime = MetaMPIRuntime(mc, placement, seed=seed, fault_plan=fault_plan)
    return runtime.run(_app)


def _archive_bytes(run):
    """Every archive file of every metahost, as one comparable dict."""
    out = {}
    for machine in run.machines_used:
        ns = run.namespaces[machine]
        for name in sorted(ns.list_dir(run.archive_path)):
            out[(machine, name)] = ns.read_file(f"{run.archive_path}/{name}")
    return out


class TestEmptyPlanIdentity:
    def test_empty_plan_is_byte_identical(self):
        baseline = _run(fault_plan=None)
        empty = _run(fault_plan=FaultPlan())
        assert _archive_bytes(baseline) == _archive_bytes(empty)
        assert baseline.stats.finish_time == empty.stats.finish_time
        assert empty.fault_counters is None


class TestTransportFaults:
    def test_loss_recovered_and_counted(self):
        plan = FaultPlan(specs=(MessageLoss("external", 0.4),), seed=2)
        run = _run(fault_plan=plan)
        assert run.fault_counters is not None
        assert run.fault_counters.retransmits > 0
        assert run.stats.retransmits == run.fault_counters.retransmits
        # The run still analyzes cleanly: no trace was damaged.
        result = analyze(run, request=AnalysisRequest(degraded=True))
        assert len(result.analyzed_ranks) == NPROCS

    def test_retransmission_delays_surface_in_timing(self):
        clean = _run(fault_plan=None)
        lossy = _run(fault_plan=FaultPlan(specs=(MessageLoss("external", 0.4),), seed=2))
        assert lossy.stats.finish_time > clean.stats.finish_time

    def test_permanent_outage_raises_timeout(self):
        plan = FaultPlan(specs=(LinkOutage("external", 0.0, 1e6),), seed=0)
        with pytest.raises(CommunicationTimeoutError):
            _run(fault_plan=plan)


class TestMeasurementFaults:
    def test_dropped_pings_are_reissued(self):
        plan = FaultPlan(specs=(PingFault("external", drop_prob=0.5),), seed=3)
        run = _run(fault_plan=plan)
        assert run.fault_counters.pings_dropped > 0
        assert run.fault_counters.pings_reissued == run.fault_counters.pings_dropped
        assert not run.sync_data.failures
        analyze(run)  # strict analysis still works

    def test_total_ping_loss_degrades_but_completes(self):
        plan = FaultPlan(specs=(PingFault("external", drop_prob=1.0),), seed=3)
        run = _run(fault_plan=plan)
        assert run.sync_data.failures  # measurements were abandoned
        with pytest.raises(Exception):
            analyze(run)  # strict replay refuses the gap
        result = analyze(run, request=AnalysisRequest(degraded=True))
        assert len(result.analyzed_ranks) == NPROCS


class TestDegradedReplay:
    def test_truncated_rank_excluded_with_warning(self):
        plan = FaultPlan(specs=(TraceTruncation(1, keep_fraction=0.3),), seed=0)
        run = _run(fault_plan=plan)
        assert run.fault_counters.traces_truncated == 1
        with pytest.raises((TraceError, EncodingError)):
            analyze(run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = analyze(run, request=AnalysisRequest(degraded=True))
        assert any(
            issubclass(w.category, PartialTraceWarning) for w in caught
        )
        assert result.degraded
        assert result.excluded_ranks == [1]
        assert sorted(result.analyzed_ranks) == [0, 2, 3]
        record = result.completeness[1]
        assert not record.complete
        assert 0.0 <= record.completeness < 1.0

    def test_corrupted_rank_excluded(self):
        plan = FaultPlan(
            specs=(TraceCorruption(2, at_fraction=0.5, length=6),), seed=0
        )
        run = _run(fault_plan=plan)
        assert run.fault_counters.traces_corrupted == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialTraceWarning)
            result = analyze(run, request=AnalysisRequest(degraded=True))
        assert result.excluded_ranks == [2]
        assert result.completeness[2].events > 0

    def test_degraded_analysis_still_finds_wait_states(self):
        from repro.analysis.patterns import WAIT_AT_BARRIER

        plan = FaultPlan(specs=(TraceTruncation(1, keep_fraction=0.3),), seed=0)
        run = _run(fault_plan=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialTraceWarning)
            result = analyze(run, request=AnalysisRequest(degraded=True))
        # Surviving ranks still wait at the barrier for the slow ranks.
        assert result.metric_total(WAIT_AT_BARRIER) > 0.0

    def test_degraded_on_clean_run_matches_strict(self):
        run = _run(fault_plan=None)
        strict = analyze(run)
        degraded = analyze(run, request=AnalysisRequest(degraded=True))
        assert degraded.analyzed_ranks == strict.analyzed_ranks
        for metric in ("time", "mpi", "late-sender", "wait-at-barrier"):
            assert degraded.metric_total(metric) == pytest.approx(
                strict.metric_total(metric)
            )


class TestFaultExperiment:
    def test_ladder_smoke(self):
        from repro.experiments.faults import escalating_fault_plans, run_fault_experiment

        report = run_fault_experiment(seed=1, coupling_intervals=1)
        assert len(report.runs) == len(escalating_fault_plans(1))
        clean, lossy = report.runs[0], report.runs[1]
        assert clean.completed and not clean.degraded and clean.counters is None
        assert lossy.completed and lossy.counters.retransmits > 0
        assert lossy.patterns  # wait states survive the faults
        # The last rung is the deterministic link-death abort.
        assert not report.runs[-1].completed
        assert "CommunicationTimeoutError" in report.runs[-1].error
        text = report.text()
        assert "retransmits" in text and "ABORTED" in text

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recoverable_rungs_complete_with_wait_states(self, seed):
        """Lossy links, degraded links plus flaky storage, and severe trace
        damage: each is survived, counted, and still shows wait states."""
        from repro.experiments.faults import escalating_fault_plans, run_fault_experiment

        plans = escalating_fault_plans(seed)[1:4]
        report = run_fault_experiment(seed=seed, plans=plans, coupling_intervals=1)
        for run in report.runs:
            assert run.completed, f"plan '{run.plan.name}' aborted: {run.error}"
            assert run.counters is not None and run.counters.total > 0
            assert run.patterns, f"plan '{run.plan.name}' detected no wait states"

    def test_sharded_ladder_report_equals_in_process(self):
        """The recoverable rungs with the local phase on two workers print
        the same report as in-process — strict and degraded replay alike."""
        from repro.experiments.faults import escalating_fault_plans, run_fault_experiment

        plans = escalating_fault_plans(1)[1:4]
        reports = {
            jobs: run_fault_experiment(
                seed=1, plans=plans, coupling_intervals=1,
                request=AnalysisRequest(jobs=jobs),
            )
            for jobs in (1, 2)
        }
        assert all(run.completed and run.patterns for run in reports[2].runs)
        assert reports[2].text() == reports[1].text()
