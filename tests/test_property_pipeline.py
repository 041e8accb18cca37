"""Property-based tests: random communication schedules, full pipeline.

Generates random — but deadlock-free by construction — communication
schedules, runs them through simulate → trace → archive → analyze, and
checks global invariants: every message matches, severities are bounded,
and the analysis is insensitive to archive layout.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.patterns import LATE_SENDER, P2P, TIME
from repro.analysis.replay import ReplayAnalyzer
from repro.api import analyze
from repro.clocks.clock import ClockEnsemble
from repro.report.serialize import result_to_dict
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NPROCS = 4

# One round: a list of (rank, rank, size) exchanges.  `_schedule_app` makes
# every round deadlock-free whatever the sizes (above the eager threshold a
# send blocks until its receive is posted): the lower rank of each pair
# sends, every rank sends before it receives, and receives are posted for
# the highest-ranked sender first.  By downward induction on the sender's
# rank, every send completes: its receiver has only higher-ranked senders
# to hear from first, and those are done by hypothesis.
rounds = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=NPROCS - 1),
            st.integers(min_value=0, max_value=NPROCS - 1),
            st.integers(min_value=0, max_value=100_000),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=5,
)


def _schedule_app(schedule):
    """Each round: chosen senders send, receivers receive, then barrier."""

    def app(ctx):
        with ctx.region("main"):
            for round_index, exchanges in enumerate(schedule):
                clean = [
                    (min(a, b), max(a, b), size)
                    for (a, b, size) in exchanges
                    if a != b
                ]
                with ctx.region("round"):
                    for order, (src, dst, size) in enumerate(clean):
                        tag = round_index * 100 + order
                        if ctx.rank == src:
                            yield ctx.comm.send(dst, size, tag=tag)
                    for order, (src, dst, size) in sorted(
                        enumerate(clean), key=lambda item: -item[1][0]
                    ):
                        tag = round_index * 100 + order
                        if ctx.rank == dst:
                            yield ctx.comm.recv(src, tag=tag)
                yield ctx.comm.barrier()

    return app


# Schedules that deadlocked the simulator before `_schedule_app` ordered
# them: two head-to-head rendezvous sends (found by hypothesis), and an
# up-rank-only round whose receives were posted in exchange order.
HEAD_TO_HEAD = [[(0, 1, 65537), (1, 0, 65537)]]
RECEIVE_ORDER = [[(0, 2, 70000), (0, 3, 70000), (2, 3, 70000)]]


def _message_count(schedule):
    return sum(
        1 for exchanges in schedule for (src, dst, _s) in exchanges if src != dst
    )


class TestRandomSchedules:
    @given(schedule=rounds, seed=st.integers(min_value=0, max_value=2**16))
    @example(schedule=HEAD_TO_HEAD, seed=0)
    @example(schedule=RECEIVE_ORDER, seed=0)
    @SETTINGS
    def test_every_message_matched(self, schedule, seed):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        run = MetaMPIRuntime(mc, placement, seed=seed).run(_schedule_app(schedule))
        assert run.stats.p2p_messages == _message_count(schedule)
        result = analyze(run)
        # The analyzer sees exactly the simulated messages.
        assert result.violations.total == _message_count(schedule)

    @given(schedule=rounds, seed=st.integers(min_value=0, max_value=2**16))
    @example(schedule=HEAD_TO_HEAD, seed=0)
    @example(schedule=RECEIVE_ORDER, seed=0)
    @SETTINGS
    def test_wait_states_bounded_by_op_time(self, schedule, seed):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        run = MetaMPIRuntime(mc, placement, seed=seed).run(_schedule_app(schedule))
        result = analyze(run)
        eps = 1e-9
        assert result.metric_total(LATE_SENDER) <= result.metric_total(P2P) + eps
        assert result.metric_total(P2P) <= result.metric_total(TIME) + eps

    @given(schedule=rounds)
    @example(schedule=HEAD_TO_HEAD)
    @example(schedule=RECEIVE_ORDER)
    @SETTINGS
    def test_true_causality_under_perfect_clocks(self, schedule):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        clocks = ClockEnsemble.synchronized(placement.ranks_by_node())
        run = MetaMPIRuntime(mc, placement, seed=1, clocks=clocks).run(
            _schedule_app(schedule)
        )
        result = analyze(run)
        # Perfect clocks remove drift and offset, but the synchronized
        # stamps still pass through *measured* offsets, whose ping-pong
        # jitter can misplace a near-simultaneous pair by nanoseconds.
        # Any apparent violation must therefore be bounded by
        # measurement-error scale, far below the one-way link latency.
        worst = min((s.slack_s for s in result.violations.stamps), default=0.0)
        assert worst >= -5e-6

    @given(schedule=rounds, seed=st.integers(min_value=0, max_value=2**16))
    @example(schedule=HEAD_TO_HEAD, seed=0)
    @example(schedule=RECEIVE_ORDER, seed=0)
    @SETTINGS
    def test_streaming_serializes_like_buffered(self, schedule, seed):
        """The streaming engine installs its structural MPI-time metrics at
        finalize, one summed expansion per call path; the buffered engine
        adds them op by op up front.  Same exact cells — and no trace of the
        different dict insertion order in the serialized result."""
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        placement = Placement.block(mc, NPROCS)
        run = MetaMPIRuntime(mc, placement, seed=seed).run(_schedule_app(schedule))
        streaming = analyze(run)
        buffered = ReplayAnalyzer(
            {machine: run.reader(machine) for machine in run.machines_used}
        ).analyze()
        assert streaming.cube == buffered.cube
        assert json.dumps(result_to_dict(streaming)) == json.dumps(
            result_to_dict(buffered)
        )
