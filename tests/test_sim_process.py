"""Resuming simulated processes: the world's one resume path.

:meth:`World._advance` resumes a rank's generator with the value its last
call returned and dispatches the next request; these cases drive it through
a two-rank world.
"""

import numpy as np
import pytest

from repro.errors import MPIUsageError, SimulationError
from repro.sim.mpi import RequestHandle
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster


def _world(app):
    mc = single_cluster(node_count=2, cpus_per_node=1)
    world = World(mc, Placement.block(mc, 2), rng=np.random.default_rng(0))
    world.launch(app, seed=0)
    return world


def _silent(ctx):
    return
    yield  # pragma: no cover


class TestStepping:
    def test_yields_requests_and_receives_results(self):
        received = {}

        def app(ctx):
            other = 1 - ctx.rank
            got = received.setdefault(ctx.rank, [])
            got.append((yield ctx.compute(0.01)))
            handle = yield ctx.comm.isend(other, 64, tag=ctx.rank, data=ctx.rank)
            got.append(handle)
            message = yield ctx.comm.recv(other, other)
            got.append((message.source, message.tag, message.data))
            got.append((yield ctx.comm.wait(handle)))

        _world(app).run()
        for rank in (0, 1):
            other = 1 - rank
            compute, handle, message, waited = received[rank]
            assert compute is None
            assert isinstance(handle, RequestHandle) and handle.kind == "send"
            assert message == (other, other, other)
            assert waited is None  # a wait on a send hands back no message

    def test_completion(self):
        def app(ctx):
            yield ctx.compute(0.25 * (ctx.rank + 1))

        world = _world(app)
        world.run()
        for rank in (0, 1):
            proc = world._procs[rank]
            assert proc.done
            assert proc.failure is None
            assert proc.finish_time == 0.25 * (rank + 1)

    def test_empty_generator_finishes_immediately(self):
        world = _world(_silent)
        world.run()
        assert all(proc.done and proc.finish_time == 0.0 for proc in world._procs.values())
        assert world.engine.processed_events == 2

    def test_stepping_done_process_raises(self):
        world = _world(_silent)
        world.run()
        with pytest.raises(SimulationError, match="rank 1 already finished"):
            world._advance(world._procs[1])

    def test_app_exception_wrapped_with_rank(self):
        def app(ctx):
            yield ctx.compute(0.01)
            if ctx.rank == 1:
                raise ValueError("boom")

        world = _world(app)
        with pytest.raises(SimulationError, match="rank 1 raised ValueError"):
            world.run()
        proc = world._procs[1]
        assert proc.done
        assert isinstance(proc.failure, ValueError)

    def test_toolkit_error_keeps_its_type(self):
        def app(ctx):
            yield ctx.compute(0.01)
            if ctx.rank == 1:
                yield ctx.comm.send(5, 8)

        world = _world(app)
        with pytest.raises(MPIUsageError, match="dest"):
            world.run()
        proc = world._procs[1]
        assert proc.done
        assert isinstance(proc.failure, MPIUsageError)
