"""What one simulated MPI call costs in Python, pinned as counts.

Wall time on a shared box is noisy; the number of Python frames a call
enters is not.  Each case runs a traced two-rank ``single_cluster`` world
for 10 and for 30 iterations of one loop body and divides the difference of
``sys.setprofile`` ``"call"`` events (application generator, request
builders, world, engine and trace buffer alike) by 20 iterations x 2 ranks.
The counts are CPython 3.11's; DESIGN.md section 3.1 keeps their history.
Engine events per call are pinned beside them.  The archive depends on the
*order* the engine runs callbacks in, not on how many events carry them: a
change may merge events that run back to back at one instant (a finished
collective releases all its members in one), never reorder callbacks.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.clocks.clock import ClockEnsemble, LinearClock
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster


def _p2p(ctx, iterations):
    other = 1 - ctx.rank
    for i in range(iterations):
        handle = yield ctx.comm.isend(other, 64, tag=i)
        yield ctx.comm.recv(other, i)
        yield ctx.comm.wait(handle)


def _allreduce(ctx, iterations):
    for _ in range(iterations):
        yield ctx.comm.allreduce(8, data=ctx.rank)


def _region_compute(ctx, iterations):
    for _ in range(iterations):
        with ctx.region("r"):
            yield ctx.compute(0.001)


def _run(body, iterations):
    """(profiler call events, engine events) of one traced two-rank run."""
    mc = single_cluster(node_count=2, cpus_per_node=1)
    placement = Placement.block(mc, 2)
    clocks = ClockEnsemble(
        {node: LinearClock(offset_s=0.0, drift=0.0) for node in placement.ranks_by_node()}
    )
    world = World(mc, placement, rng=np.random.default_rng(0), clocks=clocks)
    world.launch(lambda ctx: body(ctx, iterations), seed=0)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the window would add frames that are not the
    # call's: ``gc.callbacks`` (hypothesis registers one once any property
    # test has run) and finalizers.  Where collections fall depends on what
    # ran before, so the collector is off while counting.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        world.run()
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return calls, world.engine.processed_events


@pytest.mark.parametrize(
    "body, frames, events",
    [
        # isend + recv + wait: 64 frames before the one-frame builders and
        # latency draws, 56 before the cached channel lookup; 4 engine events
        # (return, arrival, recv, wait).
        (_p2p, 52.0, 4.0),
        # allreduce: 29.5 before shared results and one membership lookup,
        # 20.5 and one event per member before one event releases both,
        # 19.5 before each exit time was computed once, at the entry that
        # decides it, instead of again by a completion pass.
        (_allreduce, 16.0, 0.5),
        # ctx.region + compute: 18 before the tuple guard.
        (_region_compute, 14.0, 1.0),
    ],
    ids=["isend+recv+wait", "allreduce", "region+compute"],
)
def test_frames_and_events_per_call(body, frames, events):
    calls_10, events_10 = _run(body, 10)
    calls_30, events_30 = _run(body, 30)
    assert (calls_30 - calls_10) / 40 == frames
    assert (events_30 - events_10) / 40 == events


@pytest.mark.parametrize("op", ["allreduce", "allgather", "alltoall"])
def test_n_to_n_members_share_one_result(op):
    results = {}

    def app(ctx):
        results[ctx.rank] = yield getattr(ctx.comm, op)(8, data=ctx.rank * 10)

    mc = single_cluster(node_count=2, cpus_per_node=2)
    world = World(mc, Placement.block(mc, 3), rng=np.random.default_rng(0))
    world.launch(app, seed=0)
    world.run()
    assert type(results[0]) is dict
    assert results[0] == {0: 0, 1: 10, 2: 20}
    assert results[0] is results[1] is results[2]
