"""Tests for hybrid MPI + threads support (fork-join regions, Idle Threads).

The paper's Section 1: the predominant metacomputer programming model is
"message passing, which may be combined with multithreading used within
the metahosts" — this covers the multithreading half.
"""

import pytest

from repro.analysis.patterns import IDLE_THREADS, TIME, metric_by_name
from repro.api import analyze
from repro.errors import MPIUsageError, TraceError
from repro.topology.presets import single_cluster, uniform_metacomputer
from repro.trace.buffer import TraceBuffer
from repro.trace.events import OmpRegionEvent

from tests.conftest import run_app
from tests.test_sim_mpi_p2p import run_world


@pytest.fixture
def mc():
    return single_cluster(node_count=2, cpus_per_node=2, speed=2.0)


class TestForkJoinSemantics:
    def test_region_lasts_as_long_as_slowest_thread(self, mc):
        times = {}

        def app(ctx):
            # 4 threads, slowest has 0.2 ref-s; CPU speed 2 → 0.1 s wall.
            yield ctx.parallel([0.05, 0.2, 0.05, 0.05], region="loop")
            times["done"] = ctx.now

        run_world(mc, 1, app)
        assert times["done"] == pytest.approx(0.1, rel=1e-6)

    def test_balanced_team_equals_plain_compute(self, mc):
        times = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.parallel([0.1] * 4)
            else:
                yield ctx.compute(0.1)
            times[ctx.rank] = ctx.now

        run_world(mc, 2, app)
        assert times[0] == pytest.approx(times[1], rel=1e-6)

    def test_validation(self, mc):
        def empty(ctx):
            yield ctx.parallel([])

        with pytest.raises(MPIUsageError):
            run_world(mc, 1, empty)

        def negative(ctx):
            yield ctx.parallel([0.1, -0.1])

        with pytest.raises(MPIUsageError):
            run_world(mc, 1, negative)


class TestIdleThreadsMetric:
    def test_metric_registered_under_execution(self):
        assert metric_by_name(IDLE_THREADS).parent == "execution"

    def test_imbalanced_team_charged(self, mc):
        def app(ctx):
            with ctx.region("main"):
                # One thread does 0.2 ref-s, three do nothing:
                # idle = 4×0.1 − 0.1 = 0.3 thread-seconds (wall, speed 2).
                yield ctx.parallel([0.2, 0.0, 0.0, 0.0], region="hotloop")
            yield ctx.comm.barrier()

        result = analyze(run_app(mc, 2, app, seed=1))
        # Both ranks run the same region.
        assert result.metric_total(IDLE_THREADS) == pytest.approx(0.6, rel=1e-3)

    def test_balanced_team_not_charged(self, mc):
        def app(ctx):
            with ctx.region("main"):
                yield ctx.parallel([0.1] * 4)
            yield ctx.comm.barrier()

        result = analyze(run_app(mc, 2, app, seed=1))
        assert result.metric_total(IDLE_THREADS) == pytest.approx(0.0, abs=1e-9)

    def test_localized_to_region_callpath(self, mc):
        def app(ctx):
            with ctx.region("main"):
                yield ctx.parallel([0.2, 0.0], region="hotloop")
            yield ctx.comm.barrier()

        result = analyze(run_app(mc, 1, app, seed=1))
        assert result.metric_under_region(IDLE_THREADS, "hotloop") == pytest.approx(
            result.metric_total(IDLE_THREADS)
        )
        # Region wall time also shows up in the time metric.
        assert result.metric_under_region(TIME, "hotloop") > 0.09

    def test_mixed_with_mpi_wait_states(self):
        """Hybrid pattern mix: thread imbalance AND grid barrier waits."""
        mc = uniform_metacomputer(metahost_count=2, node_count=1, cpus_per_node=2)

        def app(ctx):
            with ctx.region("main"):
                work = [0.2, 0.05] if ctx.metahost_id == 0 else [0.05, 0.05]
                yield ctx.parallel(work, region="phase")
                yield ctx.comm.barrier()

        result = analyze(run_app(mc, 4, app, seed=2))
        assert result.metric_total(IDLE_THREADS) > 0.25
        assert result.metric_total("grid-wait-at-barrier") > 0.25


class TestTraceLayer:
    def test_buffer_validation(self):
        buf = TraceBuffer(0)
        with pytest.raises(TraceError):
            buf.omp_region(0.0, 1, nthreads=0, busy_sum=0.0, busy_max=0.0)
        with pytest.raises(TraceError):
            buf.omp_region(0.0, 1, nthreads=2, busy_sum=-1.0, busy_max=0.0)

    @pytest.mark.parametrize(
        "busy_sum, busy_max", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)]
    )
    def test_buffer_refuses_non_finite_busy_times(self, busy_sum, busy_max):
        buf = TraceBuffer(0)
        with pytest.raises(TraceError, match="^rank 0: thread busy times must be finite"):
            buf.omp_region(0.0, 1, nthreads=2, busy_sum=busy_sum, busy_max=busy_max)
        assert buf.encoded() == TraceBuffer(0).encoded()

    def test_idle_seconds_formula(self):
        """A team of 4 whose slowest thread is busy 1.0 s, 2.5 s in all,
        idles 4 × 1.0 − 2.5 thread-seconds."""
        from repro.analysis.callpath import CallPathRegistry
        from repro.analysis.instances import build_timeline
        from repro.analysis.replay import ReplayAnalyzer
        from repro.analysis.severity import SeverityCube
        from repro.clocks.sync import LinearConverter
        from repro.ids import Location
        from repro.trace.events import EnterEvent, ExitEvent
        from repro.trace.regions import RegionRegistry

        events = [EnterEvent(0.0, 0), OmpRegionEvent(1.0, 0, 4, 2.5, 1.0), ExitEvent(1.0, 0)]
        timeline = build_timeline(
            0, Location(0, 0, 0), events, LinearConverter.identity(), CallPathRegistry(),
            RegionRegistry.from_list(["loop"]),
        )
        cube = SeverityCube()
        ReplayAnalyzer._base_metrics(cube, {0: timeline})
        assert cube.total(IDLE_THREADS) == pytest.approx(1.5)

    def test_event_round_trip_via_archive(self, mc):
        def app(ctx):
            with ctx.region("main"):
                yield ctx.parallel([0.01, 0.02], region="loop")
            yield ctx.comm.barrier()

        run = run_app(mc, 1, app)
        events = run.reader(0).read_trace(0)
        omp = [e for e in events if isinstance(e, OmpRegionEvent)]
        assert len(omp) == 1
        assert omp[0].nthreads == 2
