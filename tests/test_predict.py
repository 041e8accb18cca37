"""Tests for the DIMEMAS-style trace-driven predictor."""

import pytest

from repro.analysis.patterns import (
    GRID_WAIT_AT_BARRIER,
    LATE_SENDER,
    WAIT_AT_BARRIER,
)
from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app, make_imbalance_app
from repro.errors import ConfigurationError
from repro.predict import predict_run, skeleton_from_run
from repro.predict.skeleton import (
    SendrecvAction,
    invert_bytes_moved,
)
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer

from tests.conftest import run_app


class TestInvertBytesMoved:
    @pytest.mark.parametrize(
        "op,is_root",
        [
            ("MPI_Allreduce", False),
            ("MPI_Allgather", False),
            ("MPI_Alltoall", False),
            ("MPI_Bcast", True),
            ("MPI_Bcast", False),
            ("MPI_Reduce", True),
            ("MPI_Reduce", False),
            ("MPI_Gather", True),
            ("MPI_Scatter", False),
        ],
    )
    def test_inverts_bytes_moved(self, op, is_root):
        from repro.sim.collectives import bytes_moved

        size, nprocs = 4096, 8
        comm_rank = 0 if is_root else 3
        sent, recvd = bytes_moved(op, size, nprocs, comm_rank, root=0)
        assert invert_bytes_moved(op, sent, recvd, nprocs, is_root) == size

    def test_barrier_is_zero(self):
        assert invert_bytes_moved("MPI_Barrier", 0, 0, 4, False) == 0


class TestSkeletonExtraction:
    @pytest.fixture(scope="class")
    def source(self):
        mc = single_cluster(node_count=4, cpus_per_node=1, speed=2.0)
        work = {0: 0.04, 1: 0.01, 2: 0.01, 3: 0.01}
        run = run_app(mc, 4, make_imbalance_app(work, iterations=2), seed=3)
        return run, analyze(run)

    def test_skeleton_covers_all_ranks(self, source):
        run, result = source
        skeleton = skeleton_from_run(run, result)
        assert skeleton.world_size == 4
        assert skeleton.source_speed == {r: 2.0 for r in range(4)}

    def test_compute_segments_exclude_waits(self, source):
        run, result = source
        skeleton = skeleton_from_run(run, result)
        # Rank 0 computed 2 × 0.04 ref-s at speed 2 → 0.04 s wall; the
        # skeleton's compute must be close to that, NOT including the
        # barrier/ring waiting the other ranks saw.
        assert skeleton.compute_seconds(0) == pytest.approx(0.04, rel=0.1)
        assert skeleton.compute_seconds(1) == pytest.approx(0.01, rel=0.2)

    def test_communication_ops_preserved(self, source):
        run, result = source
        skeleton = skeleton_from_run(run, result)
        sendrecvs = [
            a for a in skeleton.actions[0] if isinstance(a, SendrecvAction)
        ]
        assert len(sendrecvs) == 2  # one ring exchange per iteration

    def test_region_attribution_preserved(self, source):
        run, result = source
        skeleton = skeleton_from_run(run, result)
        from repro.predict.skeleton import RegionAction

        names = {
            a.name
            for actions in skeleton.actions.values()
            for a in actions
            if isinstance(a, RegionAction)
        }
        assert "ring" in names


class TestPrediction:
    def test_self_prediction_matches_direct(self):
        """Replaying a skeleton on its own machine reproduces the waits."""
        mc = single_cluster(node_count=4, cpus_per_node=1)
        work = {0: 0.1, 1: 0.01, 2: 0.01, 3: 0.01}
        run = run_app(mc, 4, make_barrier_imbalance_app(work), seed=5)
        direct = analyze(run)
        skeleton = skeleton_from_run(run, direct)
        predicted = predict_run(skeleton, mc, Placement.block(mc, 4), seed=6)
        assert predicted.result.metric_total(WAIT_AT_BARRIER) == pytest.approx(
            direct.metric_total(WAIT_AT_BARRIER), rel=0.05
        )

    def test_speed_rescaling(self):
        """Compute segments shrink when the target CPUs are faster."""
        slow = single_cluster(node_count=2, cpus_per_node=1, speed=1.0)
        fast = single_cluster(
            name="fast", node_count=2, cpus_per_node=1, speed=4.0
        )
        work = {0: 0.1, 1: 0.1}
        run = run_app(slow, 2, make_barrier_imbalance_app(work), seed=1)
        skeleton = skeleton_from_run(run)
        predicted = predict_run(skeleton, fast, Placement.block(fast, 2), seed=2)
        # 100 ms of work at 4× speed → ≈25 ms plus barrier costs.
        assert predicted.predicted_seconds < 0.04
        assert predicted.predicted_seconds > 0.02

    def test_metacomputer_port_creates_grid_waits(self):
        """Port a single-cluster trace onto a metacomputer: the barrier
        imbalance turns into *grid* waiting, before ever running there."""
        source_mc = single_cluster(node_count=4, cpus_per_node=1)
        work = {0: 0.1, 1: 0.1, 2: 0.01, 3: 0.01}
        run = run_app(source_mc, 4, make_barrier_imbalance_app(work), seed=7)
        direct = analyze(run)
        assert direct.metric_total(GRID_WAIT_AT_BARRIER) == 0.0

        target = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        predicted = predict_run(
            skeleton_from_run(run, direct), target, Placement.block(target, 4), seed=8
        )
        assert predicted.result.metric_total(GRID_WAIT_AT_BARRIER) > 0.15

    def test_size_mismatch_rejected(self):
        mc = single_cluster(node_count=4, cpus_per_node=1)
        work = {r: 0.01 for r in range(4)}
        run = run_app(mc, 4, make_barrier_imbalance_app(work))
        skeleton = skeleton_from_run(run)
        with pytest.raises(ConfigurationError):
            predict_run(skeleton, mc, Placement.block(mc, 2))

    def test_prediction_is_analyzable_end_to_end(self):
        mc = single_cluster(node_count=2, cpus_per_node=1)
        work = {0: 0.05, 1: 0.01}
        run = run_app(mc, 2, make_imbalance_app(work), seed=9)
        predicted = predict_run(
            skeleton_from_run(run), mc, Placement.block(mc, 2), seed=10
        )
        # Late Sender localized under the reconstructed 'ring' region.
        assert predicted.result.metric_under_region(LATE_SENDER, "ring") > 0.0


@pytest.mark.slow
class TestMetaTracePrediction:
    def test_exp1_to_exp2_what_if(self, metatrace_exp1, metatrace_exp2):
        """Predicting the homogeneous port from the heterogeneous trace
        reproduces the direct Experiment-2 results."""
        from repro.experiments.configs import experiment2

        skeleton = skeleton_from_run(metatrace_exp1.run, metatrace_exp1.result)
        mc, placement, _config = experiment2()
        predicted = predict_run(skeleton, mc, placement, seed=6)
        direct = metatrace_exp2.result
        assert predicted.result.pct(GRID_WAIT_AT_BARRIER) == 0.0
        assert predicted.result.pct(WAIT_AT_BARRIER) == pytest.approx(
            direct.pct(WAIT_AT_BARRIER), abs=0.5
        )
        predicted_steering = predicted.result.metric_under_region(
            LATE_SENDER, "getsteering"
        )
        direct_steering = direct.metric_under_region(LATE_SENDER, "getsteering")
        assert predicted_steering == pytest.approx(direct_steering, rel=0.2)


class TestScanPrediction:
    def test_scan_survives_skeleton_round_trip(self):
        mc = single_cluster(node_count=4, cpus_per_node=1)

        def app(ctx):
            with ctx.region("main"):
                yield ctx.compute(0.05 if ctx.rank == 0 else 0.01)
                yield ctx.comm.scan(256)

        run = run_app(mc, 4, app, seed=12)
        direct = analyze(run)
        predicted = predict_run(
            skeleton_from_run(run, direct), mc, Placement.block(mc, 4), seed=13
        )
        from repro.analysis.patterns import EARLY_SCAN

        assert predicted.result.metric_total(EARLY_SCAN) == pytest.approx(
            direct.metric_total(EARLY_SCAN), rel=0.1
        )
