"""End-to-end tests of the replay analyzer on simulated runs."""

import pytest

from repro.analysis.patterns import (
    BARRIER_COMPLETION,
    COMMUNICATION,
    EXECUTION,
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    LATE_RECEIVER,
    LATE_SENDER,
    MPI,
    P2P,
    SYNCHRONIZATION,
    TIME,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
)
from repro.analysis.replay import ReplayAnalyzer
from repro.api import analyze
from repro.apps.imbalance import (
    make_barrier_imbalance_app,
    make_imbalance_app,
    make_master_worker_app,
    make_nxn_imbalance_app,
)
from repro.clocks.clock import ClockEnsemble
from repro.errors import AnalysisError
from repro.sim.runtime import MetaMPIRuntime
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer

from tests.conftest import run_app


@pytest.fixture
def single_mc():
    return single_cluster(node_count=4, cpus_per_node=1)


@pytest.fixture
def multi_mc():
    return uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)


class TestBaseMetrics:
    def test_time_accounts_whole_run(self, single_mc):
        work = {0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1}
        run = run_app(single_mc, 4, make_barrier_imbalance_app(work))
        result = analyze(run)
        # Sum of per-rank wall times ≈ 4 × 0.05 s (speed factor 1, work 0.1
        # at speed 1.0 → 0.1 s each) plus barrier costs.
        assert result.metric_total(TIME) == pytest.approx(result.total_time, rel=1e-6)
        assert result.metric_total(EXECUTION) == result.metric_total(TIME)

    def test_metric_hierarchy_is_monotone(self, single_mc):
        work = {r: 0.02 * (r + 1) for r in range(4)}
        run = run_app(single_mc, 4, make_imbalance_app(work, iterations=3))
        result = analyze(run)
        assert result.metric_total(TIME) >= result.metric_total(MPI)
        assert result.metric_total(MPI) >= result.metric_total(COMMUNICATION)
        assert result.metric_total(COMMUNICATION) >= result.metric_total(P2P)
        assert result.metric_total(P2P) >= result.metric_total(LATE_SENDER)
        assert result.metric_total(MPI) >= result.metric_total(SYNCHRONIZATION)

    def test_pct_is_relative_to_time(self, single_mc):
        work = {r: 0.05 for r in range(4)}
        run = run_app(single_mc, 4, make_barrier_imbalance_app(work))
        result = analyze(run)
        assert result.pct(TIME) == pytest.approx(100.0)


class TestPatternDetectionEndToEnd:
    def test_late_sender_from_imbalanced_ring(self, single_mc):
        # Rank 1 computes 10× longer; its ring successor (rank 2) waits.
        work = {0: 0.01, 1: 0.1, 2: 0.01, 3: 0.01}
        run = run_app(single_mc, 4, make_imbalance_app(work, iterations=2))
        result = analyze(run)
        ls = result.cube.by_rank(LATE_SENDER)
        assert result.metric_total(LATE_SENDER) > 0.05
        assert ls.get(2, 0.0) > 0.04  # successor of the slow rank

    def test_wait_at_barrier_from_imbalance(self, single_mc):
        work = {0: 0.2, 1: 0.01, 2: 0.01, 3: 0.01}
        run = run_app(single_mc, 4, make_barrier_imbalance_app(work))
        result = analyze(run)
        wab = result.cube.by_rank(WAIT_AT_BARRIER)
        assert all(wab.get(r, 0) > 0.15 for r in (1, 2, 3))
        assert wab.get(0, 0.0) < 0.01
        assert result.metric_total(BARRIER_COMPLETION) >= 0.0

    def test_wait_at_nxn_from_imbalance(self, single_mc):
        work = {0: 0.2, 1: 0.01, 2: 0.01, 3: 0.01}
        run = run_app(single_mc, 4, make_nxn_imbalance_app(work))
        result = analyze(run)
        assert result.metric_total(WAIT_AT_NXN) > 0.4  # 3 ranks × ~0.19 s

    def test_grid_variants_zero_on_single_metahost(self, single_mc):
        work = {0: 0.1, 1: 0.01, 2: 0.01, 3: 0.01}
        run = run_app(single_mc, 4, make_barrier_imbalance_app(work))
        result = analyze(run)
        assert result.metric_total(GRID_WAIT_AT_BARRIER) == 0.0
        assert result.metric_total(GRID_LATE_SENDER) == 0.0

    def test_grid_variants_fire_across_metahosts(self, multi_mc):
        # Ranks 0,1 on metahost 0; ranks 2,3 on metahost 1.
        work = {0: 0.2, 1: 0.2, 2: 0.01, 3: 0.01}
        run = run_app(multi_mc, 4, make_barrier_imbalance_app(work))
        result = analyze(run)
        assert result.metric_total(GRID_WAIT_AT_BARRIER) > 0.3
        # Grid severity is a subset of the plain severity.
        assert result.metric_total(GRID_WAIT_AT_BARRIER) <= result.metric_total(
            WAIT_AT_BARRIER
        )

    def test_late_receiver_from_rendezvous(self, single_mc):
        params = SimParams(eager_threshold_bytes=1024)

        def app(ctx):
            with ctx.region("main"):
                if ctx.rank == 0:
                    yield ctx.comm.send(1, 10**6, tag=0)  # rendezvous
                elif ctx.rank == 1:
                    yield ctx.compute(0.3)
                    yield ctx.comm.recv(0, 0)

        run = run_app(single_mc, 2, app, params=params)
        result = analyze(run)
        assert result.metric_total(LATE_RECEIVER) > 0.25
        assert result.cube.by_rank(LATE_RECEIVER).get(0, 0.0) > 0.25

    def test_master_worker_late_senders(self, single_mc):
        work = {1: 0.05, 2: 0.1, 3: 0.15}
        run = run_app(single_mc, 4, make_master_worker_app(work))
        result = analyze(run)
        # Rank 0 waits on the slowest producer chain.
        assert result.cube.by_rank(LATE_SENDER).get(0, 0.0) > 0.1


class TestSeverityLocalization:
    def test_late_sender_at_ring_callpath(self, single_mc):
        work = {0: 0.01, 1: 0.1, 2: 0.01, 3: 0.01}
        run = run_app(single_mc, 4, make_imbalance_app(work))
        result = analyze(run)
        top = result.top_callpaths(LATE_SENDER, n=1)
        assert top
        path, value = top[0]
        assert "ring" in path and "MPI_Sendrecv" in path

    def test_callpath_value_lookup(self, single_mc):
        work = {0: 0.01, 1: 0.1, 2: 0.01, 3: 0.01}
        run = run_app(single_mc, 4, make_imbalance_app(work))
        result = analyze(run)
        direct = result.callpath_value(LATE_SENDER, "main", "ring", "MPI_Sendrecv")
        assert direct == pytest.approx(result.metric_total(LATE_SENDER))
        assert result.metric_in_region(LATE_SENDER, "MPI_Sendrecv") == pytest.approx(
            direct
        )
        assert result.metric_under_region(LATE_SENDER, "ring") == pytest.approx(direct)


class TestReplayProperties:
    def test_perfect_clocks_no_violations(self, multi_mc):
        placement = Placement.block(multi_mc, 4)
        clocks = ClockEnsemble.synchronized(placement.ranks_by_node())
        runtime = MetaMPIRuntime(multi_mc, placement, seed=0, clocks=clocks)
        work = {r: 0.01 * r for r in range(4)}
        run = runtime.run(make_imbalance_app(work, iterations=3))
        result = analyze(run)
        assert result.violations.violations == 0

    def test_replay_traffic_smaller_than_merge(self, multi_mc):
        work = {r: 0.01 for r in range(4)}
        run = run_app(multi_mc, 4, make_imbalance_app(work, iterations=10))
        result = analyze(run)
        assert result.traffic.replay_metadata_bytes > 0
        assert result.traffic.merged_copy_bytes > result.traffic.replay_metadata_bytes
        assert result.traffic.saving_factor > 1.0

    def test_scheme_recorded(self, single_mc):
        from repro.clocks.sync import FlatSingleOffset

        work = {r: 0.01 for r in range(2)}
        run = run_app(single_mc, 2, make_imbalance_app(work))
        result = analyze(run, scheme=FlatSingleOffset())
        assert result.scheme_name == "single-flat-offset"

    def test_empty_readers_rejected(self):
        with pytest.raises(AnalysisError):
            ReplayAnalyzer({})

    def test_missing_machine_reader_rejected(self, multi_mc):
        work = {r: 0.01 for r in range(4)}
        run = run_app(multi_mc, 4, make_imbalance_app(work))
        readers = {0: run.reader(0)}  # machine 1 missing
        with pytest.raises(AnalysisError, match="no archive reader"):
            ReplayAnalyzer(readers).analyze()

    def test_deterministic_analysis(self, multi_mc):
        work = {r: 0.02 * r for r in range(4)}
        run = run_app(multi_mc, 4, make_imbalance_app(work, iterations=2))
        a = analyze(run)
        b = analyze(run)
        assert a.cube.data == b.cube.data
