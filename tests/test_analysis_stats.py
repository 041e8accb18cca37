"""Tests for trace statistics (comm matrix, histograms, region profile)."""

import pytest

from repro.analysis.request import AnalysisRequest
from repro.analysis.stats import (
    CommMatrix,
    SizeHistogram,
    render_statistics,
    statistics_of,
)
from repro.api import analyze
from repro.apps.imbalance import make_imbalance_app
from repro.errors import AnalysisError, ReportError
from repro.predict.skeleton import CollectiveAction, SendrecvAction, skeleton_from_run
from repro.report.timeline import render_result_timeline
from repro.topology.presets import single_cluster, uniform_metacomputer

from tests.conftest import make_master_worker_app, run_app


class TestCommMatrix:
    def test_accumulation_and_split(self):
        matrix = CommMatrix()
        matrix.add(0, 1, 100, crosses_metahosts=False)
        matrix.add(0, 1, 50, crosses_metahosts=False)
        matrix.add(1, 2, 10, crosses_metahosts=True)
        assert matrix.bytes_sent[(0, 1)] == 150
        assert matrix.messages[(0, 1)] == 2
        assert matrix.internal_bytes == 150
        assert matrix.external_bytes == 10
        assert matrix.total_bytes == 160
        assert matrix.total_messages == 3

    def test_heaviest_pairs(self):
        matrix = CommMatrix()
        matrix.add(0, 1, 10, False)
        matrix.add(2, 3, 100, False)
        assert matrix.heaviest_pairs(1) == [((2, 3), 100)]


class TestSizeHistogram:
    def test_power_of_two_binning(self):
        h = SizeHistogram()
        for size in (0, 1, 2, 3, 4, 1024, 1025, 2047):
            h.add(size)
        assert h.bins[0] == 2  # sizes 0 and 1
        assert h.bins[1] == 2  # sizes 2, 3
        assert h.bins[2] == 1  # size 4
        assert h.bins[10] == 3  # 1024..2047
        assert h.count == 8

    def test_labels(self):
        h = SizeHistogram()
        h.add(1024)
        assert h.rows() == [("1024..2047 B", 1)]

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            SizeHistogram().add(-1)


@pytest.fixture(scope="module")
def ring_run():
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    work = {r: 0.01 for r in range(4)}
    return run_app(mc, 4, make_imbalance_app(work, iterations=3), seed=2)


class TestEndToEndStatistics:
    @pytest.fixture(scope="class")
    def stats(self, ring_run):
        return statistics_of(analyze(ring_run))

    def test_message_counts(self, stats):
        # 4 ranks × 3 iterations × 1 sendrecv each = 12 messages.
        assert stats.comm.total_messages == 12

    def test_internal_external_split(self, stats):
        # The ring crosses the metahost boundary twice per iteration.
        assert stats.comm.external_bytes == 2 * 3 * 1024
        assert stats.comm.internal_bytes == 2 * 3 * 1024

    def test_region_profile_exact_visits(self, stats):
        profile = {r.name: r for r in stats.regions.values()}
        assert profile["work"].visits == 12  # 4 ranks × 3 iterations
        assert profile["MPI_Sendrecv"].visits == 12
        assert profile["main"].visits == 4

    def test_region_exclusive_time(self, stats):
        profile = {r.name: r for r in stats.regions.values()}
        # 4 ranks × 3 iterations × 10 ms compute.
        assert profile["work"].exclusive_s == pytest.approx(0.12, rel=0.05)

    def test_mpi_fraction_bounds(self, stats):
        for fraction in stats.mpi_fraction_of_rank.values():
            assert 0.0 <= fraction <= 1.0

    def test_rendering(self, stats):
        text = render_statistics(stats)
        assert "heaviest sender" in text
        assert "MPI_Sendrecv" in text
        assert "message sizes" in text

    def test_master_worker_matrix_shape(self):
        mc = single_cluster(node_count=4, cpus_per_node=1)
        work = {1: 0.01, 2: 0.01, 3: 0.01}
        run = run_app(mc, 4, make_master_worker_app(work, rounds=2))
        stats = statistics_of(analyze(run))
        # All traffic flows into rank 0.
        assert all(dst == 0 for (_src, dst) in stats.comm.bytes_sent)
        assert {src for (src, _dst) in stats.comm.bytes_sent} == {1, 2, 3}


class TestBoundedResult:
    """A bounded analysis drops the op tables: each reader of them names
    ``bounded`` and refuses, where it used to read dropped as empty."""

    def test_table_readers_refuse_a_bounded_result(self, ring_run):
        retained = analyze(ring_run)
        actions = [a for acts in skeleton_from_run(ring_run, retained).actions.values()
                   for a in acts]
        assert any(isinstance(a, SendrecvAction) for a in actions)
        assert any(isinstance(a, CollectiveAction) for a in actions)
        bounded = analyze(ring_run, request=AnalysisRequest(bounded=True))
        for read, error in (
            (statistics_of, AnalysisError),
            (render_result_timeline, ReportError),
            (lambda result: skeleton_from_run(ring_run, result), AnalysisError),
        ):
            with pytest.raises(error, match="bounded"):
                read(bounded)
