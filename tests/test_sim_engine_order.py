"""The engine's callback order, which is all the simulator's archive depends on.

Two arguments are checked here.  The engine (tuple entries, the earliest one
held in a slot in front of the heap) runs callbacks in exactly the order of
a plain ``heapq`` of ``(time, seq)``; and a finished collective, which
releases its members with one event per run of equal exit times, runs their
exits in comm-rank order before any callback a member's continuation
schedules at the same instant — the order one event per member gave.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.clock import ClockEnsemble, LinearClock
from repro.instrument.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster
from repro.trace.buffer import TraceBuffer

#: Few distinct, exactly representable delays, so that equal times are common.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

#: A program: node *i* is ``(parent, delay, use_call_at)``; a node with a
#: parent is scheduled from inside its parent's callback, in node order.
PROGRAMS = st.lists(
    st.tuples(st.integers(0, 10**6), DELAYS, st.booleans()), min_size=1, max_size=60
).map(
    lambda drawn: [
        (None if i == 0 or pick % (i + 1) == i else pick % i, delay, at)
        for i, (pick, delay, at) in enumerate(drawn)
    ]
)


def _children(program):
    children = {i: [] for i in range(len(program))}
    roots = []
    for i, (parent, _delay, _at) in enumerate(program):
        (roots if parent is None else children[parent]).append(i)
    return roots, children


def _engine_order(program):
    engine = Engine()
    roots, children = _children(program)
    seen = []

    def schedule(i):
        _parent, delay, at = program[i]
        if at:
            engine.call_at(engine.now + delay, fire, i)
        else:
            engine.call_later(delay, fire, i)

    def fire(i):
        seen.append((i, engine.now))
        for child in children[i]:
            schedule(child)

    for root in roots:
        schedule(root)
    engine.run()
    assert engine.processed_events == len(program)
    return seen


def _heapq_order(program):
    roots, children = _children(program)
    heap, seq, now, seen = [], 0, 0.0, []
    for i in roots:
        heapq.heappush(heap, (now + program[i][1], seq, i))
        seq += 1
    while heap:
        now, _, i = heapq.heappop(heap)
        seen.append((i, now))
        for child in children[i]:
            heapq.heappush(heap, (now + program[child][1], seq, child))
            seq += 1
    return seen


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_callback_order_is_the_heapq_order_of_time_and_seq(program):
    assert _engine_order(program) == _heapq_order(program)


def test_a_run_resumes_where_the_last_one_stopped():
    engine = Engine()
    seen = []
    engine.call_at(2.0, seen.append, "b")
    engine.call_at(1.0, seen.append, "a")
    engine.run()
    engine.call_at(2.0, seen.append, "c")
    engine.call_at(3.0, seen.append, "e")
    engine.call_at(2.5, seen.append, "d")
    engine.run()
    assert seen == list("abcde") and engine.now == 3.0


class TestBatchedCollectiveExit:
    """Four ranks; the sub-communicator ``pair`` holds global ranks 3 and 1,
    in that comm-rank order.  Every member logs its COLLEXIT record and its
    continuation, which yields a zero-length compute: an event at the
    instant it was released."""

    def _run(self):
        log = []
        mc = single_cluster(node_count=2, cpus_per_node=2)
        placement = Placement.block(mc, 4)
        clocks = ClockEnsemble(
            {node: LinearClock(offset_s=0.0, drift=0.0) for node in placement.ranks_by_node()}
        )
        world = World(mc, placement, rng=np.random.default_rng(0), tracer=Tracer(clocks))
        world.new_communicator("pair", [3, 1])

        def app(ctx):
            pair = ctx.get_comm("pair")
            yield ctx.compute(0.001 * ctx.rank)
            for comm in (ctx.comm, pair):
                if comm is None:
                    continue
                yield comm.barrier()
                log.append(("resumed", comm.name, ctx.rank))
                yield ctx.compute(0.0)
                log.append(("continued", comm.name, ctx.rank))

        original = TraceBuffer.coll_exit

        def coll_exit(buf, time, region, comm, root, sent, recvd):
            log.append(("COLLEXIT", comm, buf.rank))
            original(buf, time, region, comm, root, sent, recvd)

        TraceBuffer.coll_exit = coll_exit
        try:
            world.launch(app, seed=0)
            world.run()
        finally:
            TraceBuffer.coll_exit = original
        return world, log

    def test_members_leave_in_comm_rank_order_before_any_continuation(self):
        _, log = self._run()
        world = [entry for entry in log if entry[1] in ("world", 0)]
        assert world[:8] == [
            step for rank in range(4)
            for step in (("COLLEXIT", 0, rank), ("resumed", "world", rank))
        ]
        # Member 0's same-instant continuation runs after member 3's exit.
        assert world[8:] == [("continued", "world", rank) for rank in range(4)]
        pair = [entry for entry in log if entry[1] in ("pair", 1)]
        assert pair == [
            ("COLLEXIT", 1, 3), ("resumed", "pair", 3),
            ("COLLEXIT", 1, 1), ("resumed", "pair", 1),
            ("continued", "pair", 3), ("continued", "pair", 1),
        ]

    def test_one_event_releases_a_whole_barrier(self):
        world, _ = self._run()
        # Per rank: start, first compute, zero computes after each barrier
        # it is in; plus one release event per barrier.
        assert world.engine.processed_events == 4 + 4 + (4 + 2) + 2
