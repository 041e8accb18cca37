"""Tests for MPI_Scan and the Early Scan pattern."""

import pytest

from repro.analysis.patterns import metric_by_name
from repro.analysis.patterns.base import EARLY_SCAN
from repro.api import analyze
from repro.sim import collectives as coll
from repro.topology.presets import single_cluster
from tests.conftest import run_app
from tests.test_sim_collectives import _exits
from tests.test_sim_mpi_p2p import run_world


@pytest.fixture
def mc():
    return single_cluster(node_count=4, cpus_per_node=1)


class TestScanSemantics:
    def test_inclusive_prefix_results(self, mc):
        got = {}

        def app(ctx):
            result = yield ctx.comm.scan(8, data=ctx.rank * 10)
            got[ctx.rank] = result

        run_world(mc, 3, app)
        assert got[0] == {0: 0}
        assert got[1] == {0: 0, 1: 10}
        assert got[2] == {0: 0, 1: 10, 2: 20}

    def test_rank_waits_only_for_lower_ranks(self, mc):
        """Rank 0 exits quickly even while rank 2 is still computing."""
        after = {}

        def app(ctx):
            yield ctx.compute(0.1 * ctx.rank)
            yield ctx.comm.scan(8)
            after[ctx.rank] = ctx.now

        run_world(mc, 3, app)
        assert after[0] < 0.05  # not held back by higher ranks
        assert after[2] >= 0.2

    def test_rank_blocked_by_slowest_lower_rank(self, mc):
        after = {}

        def app(ctx):
            yield ctx.compute(0.3 if ctx.rank == 0 else 0.0)
            yield ctx.comm.scan(8)
            after[ctx.rank] = ctx.now

        run_world(mc, 3, app)
        # Everybody's prefix includes rank 0, which arrives at 0.3.
        assert all(t >= 0.3 for t in after.values())

    def test_cost_model_exit_times(self, mc):
        released_at = {}
        exits = _exits(coll.SCAN, {0: 5.0, 1: 0.0, 2: 0.0}, mc, 3, size=64, released_at=released_at)
        # Rank 1's prefix includes the late rank 0.
        assert exits[1] >= 5.0
        assert exits[2] >= 5.0
        assert released_at == {0: 0, 1: 0, 2: 0}  # the frontier, at once

    def test_bytes_moved(self):
        assert coll.bytes_moved(coll.SCAN, 100, 4, 0, 0) == (100, 0)
        assert coll.bytes_moved(coll.SCAN, 100, 4, 2, 0) == (100, 100)
        assert coll.bytes_moved(coll.SCAN, 100, 4, 3, 0) == (0, 100)


class TestEarlyScanPattern:
    def test_metric_registered(self):
        assert metric_by_name(EARLY_SCAN).parent == "mpi-collective"

    def test_detected_end_to_end(self, mc):
        def app(ctx):
            with ctx.region("main"):
                # Rank 0 is late: everyone's prefix waits on it.
                yield ctx.compute(0.2 if ctx.rank == 0 else 0.01)
                yield ctx.comm.scan(64)

        result = analyze(run_app(mc, 4, app, seed=3))
        early_scan = result.cube.by_rank(EARLY_SCAN)
        assert result.metric_total(EARLY_SCAN) > 0.4  # 3 ranks × ~0.19 s
        assert early_scan.get(0, 0.0) < 0.01  # the culprit never waits

    def test_late_high_rank_costs_nothing(self, mc):
        def app(ctx):
            with ctx.region("main"):
                # The HIGHEST rank is late: nobody's prefix includes it
                # except its own, so no Early Scan waiting exists.
                yield ctx.compute(0.2 if ctx.rank == ctx.size - 1 else 0.01)
                yield ctx.comm.scan(64)

        result = analyze(run_app(mc, 4, app, seed=4))
        assert result.metric_total(EARLY_SCAN) < 0.02
