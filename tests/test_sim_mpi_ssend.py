"""Tests for synchronous sends (MPI_Ssend) and send-to-self semantics."""

import pytest

from repro.analysis.patterns import LATE_RECEIVER
from repro.api import analyze
from repro.topology.presets import single_cluster
from tests.conftest import run_app
from tests.test_sim_mpi_p2p import run_world


@pytest.fixture
def mc():
    return single_cluster(node_count=2, cpus_per_node=2)


class TestSsend:
    def test_small_ssend_still_blocks_for_receiver(self, mc):
        """Synchronous mode forces rendezvous even below the threshold."""
        times = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.ssend(1, 64, tag=0)  # tiny but synchronous
                times["send_done"] = ctx.now
            else:
                yield ctx.compute(0.5)
                yield ctx.comm.recv(0, 0)

        run_world(mc, 2, app)
        assert times["send_done"] > 0.5

    def test_plain_send_same_size_does_not_block(self, mc):
        times = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 64, tag=0)
                times["send_done"] = ctx.now
            else:
                yield ctx.compute(0.5)
                yield ctx.comm.recv(0, 0)

        run_world(mc, 2, app)
        assert times["send_done"] < 0.01

    def test_ssend_traced_as_own_region(self, mc):
        def app(ctx):
            with ctx.region("main"):
                if ctx.rank == 0:
                    yield ctx.comm.ssend(1, 64, tag=0)
                elif ctx.rank == 1:
                    yield ctx.comm.recv(0, 0)
            yield ctx.comm.barrier()

        run = run_app(mc, 2, app)
        assert "MPI_Ssend" in run.definitions.regions.names()

    def test_ssend_produces_late_receiver(self, mc):
        def app(ctx):
            with ctx.region("main"):
                if ctx.rank == 0:
                    yield ctx.comm.ssend(1, 64, tag=0)
                elif ctx.rank == 1:
                    yield ctx.compute(0.3)
                    yield ctx.comm.recv(0, 0)
            yield ctx.comm.barrier()

        result = analyze(run_app(mc, 2, app))
        assert result.metric_total(LATE_RECEIVER) > 0.25
        # Attributed at the sender's MPI_Ssend call path.
        top_path, _ = result.top_callpaths(LATE_RECEIVER, 1)[0]
        assert "MPI_Ssend" in top_path

    def test_ssend_delivers_data(self, mc):
        got = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.ssend(1, 64, tag=3, data="sync")
            else:
                msg = yield ctx.comm.recv(0, 3)
                got["data"] = msg.data

        run_world(mc, 2, app)
        assert got["data"] == "sync"


class TestSendToSelf:
    def test_self_message_via_nonblocking(self, mc):
        """isend-to-self completes once the matching local recv is posted."""
        got = {}

        def app(ctx):
            if ctx.rank == 0:
                handle = yield ctx.comm.isend(0, 64, tag=1, data="loop")
                msg = yield ctx.comm.recv(0, 1)
                yield ctx.comm.wait(handle)
                got["data"] = msg.data
            else:
                yield ctx.compute(0.001)

        run_world(mc, 2, app)
        assert got["data"] == "loop"
