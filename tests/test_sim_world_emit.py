"""Tests for the world's trace emit: the local clock stamp of its records,
region interning and the per-rank buffers of ``World(clocks=...)``."""

import pytest

from repro.clocks.clock import ClockEnsemble, LinearClock
from repro.ids import NodeId
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster
from repro.trace.events import EnterEvent, RecvEvent, SendEvent


def _traced_run(app, nprocs=1, offset=1.0):
    """Run *app* on one rank per node; node 0's clock is ahead by *offset*,
    node 1's behind by it."""
    mc = single_cluster(node_count=2, cpus_per_node=1)
    clocks = ClockEnsemble(
        {NodeId(0, 0): LinearClock(offset_s=offset), NodeId(0, 1): LinearClock(offset_s=-offset)}
    )
    world = World(mc, Placement.block(mc, nprocs), clocks=clocks)
    world.launch(app)
    world.run()
    return world


def _enter_main_at_5(ctx):
    yield ctx.sleep(5.0)
    ctx.enter("main")


class TestStamping:
    def test_events_carry_local_not_true_time(self):
        world = _traced_run(_enter_main_at_5, offset=1.0)
        event = world.buffers[0].events[0]
        assert isinstance(event, EnterEvent)
        assert event.time == pytest.approx(6.0)  # true 5.0 + offset 1.0

    def test_different_nodes_different_stamps(self):
        world = _traced_run(_enter_main_at_5, nprocs=2, offset=1.0)
        t0 = world.buffers[0].events[0].time
        t1 = world.buffers[1].events[0].time
        assert t0 - t1 == pytest.approx(2.0)

    def test_regions_interned_across_ranks(self):
        world = _traced_run(_enter_main_at_5, nprocs=2)
        assert len(world.regions) == 1

    def test_send_recv_records(self):
        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 999, tag=7)
            else:
                yield ctx.comm.recv(0, 7)

        world = _traced_run(app, nprocs=2)
        send = world.buffers[0].events[1]
        assert isinstance(send, SendEvent)
        assert send.dest == 1 and send.size == 999
        recv = world.buffers[1].events[1]
        assert isinstance(recv, RecvEvent)
        assert recv.source == 0 and recv.tag == 7

    def test_coll_exit_record(self):
        def app(ctx):
            yield ctx.comm.barrier()

        world = _traced_run(app, nprocs=2)
        events = world.buffers[1].events
        assert len(events) == 3 and events[1].root == 0


class TestBuffers:
    def test_every_launched_rank_has_a_buffer(self):
        def app(ctx):
            if ctx.rank == 0:
                ctx.enter("m")
                yield ctx.sleep(1.0)
                ctx.exit("m")
            else:
                yield ctx.sleep(1.0)

        world = _traced_run(app, nprocs=2)
        assert sorted(world.buffers) == [0, 1]
        assert len(world.buffers[0]) == 2
        assert len(world.buffers[1]) == 0

    def test_untraced_world_keeps_no_buffers(self):
        mc = single_cluster(node_count=2, cpus_per_node=1)
        world = World(mc, Placement.block(mc, 2))
        world.launch(_enter_main_at_5)
        world.run()
        assert world.buffers == {}
