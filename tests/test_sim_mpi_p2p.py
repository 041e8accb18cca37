"""Tests for point-to-point semantics of the simulated MPI world."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIUsageError
from repro.ids import ANY_SOURCE, ANY_TAG
from repro.sim.mpi import Communicator, CommunicatorData
from repro.sim.transfer import SimParams
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer


def run_world(mc, nprocs, app, seed=0, params=None):
    placement = Placement.block(mc, nprocs)
    world = World(
        mc,
        placement,
        params=params or SimParams(),
        rng=np.random.default_rng(seed),
    )
    world.launch(app, seed=seed)
    stats = world.run()
    return world, stats


@pytest.fixture
def mc():
    return single_cluster(node_count=4, cpus_per_node=2)


class TestBlockingSendRecv:
    def test_message_delivery(self, mc):
        seen = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, size=500, tag=3, data={"v": 42})
            elif ctx.rank == 1:
                msg = yield ctx.comm.recv(0, 3)
                seen["msg"] = msg

        run_world(mc, 2, app)
        assert seen["msg"].data == {"v": 42}
        assert seen["msg"].size == 500
        assert seen["msg"].source == 0
        assert seen["msg"].tag == 3

    def test_recv_blocks_until_message(self, mc):
        times = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.compute(0.5)
                yield ctx.comm.send(1, 100, tag=0)
            else:
                yield ctx.comm.recv(0, 0)
                times["recv_done"] = ctx.now

        run_world(mc, 2, app)
        assert times["recv_done"] > 0.5

    def test_fifo_same_channel(self, mc):
        order = []

        def app(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield ctx.comm.send(1, 64, tag=9, data=i)
            else:
                for _ in range(5):
                    msg = yield ctx.comm.recv(0, 9)
                    order.append(msg.data)

        run_world(mc, 2, app)
        assert order == [0, 1, 2, 3, 4]

    def test_tags_select_messages(self, mc):
        got = []

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 64, tag=1, data="one")
                yield ctx.comm.send(1, 64, tag=2, data="two")
            else:
                msg2 = yield ctx.comm.recv(0, tag=2)
                msg1 = yield ctx.comm.recv(0, tag=1)
                got.extend([msg2.data, msg1.data])

        run_world(mc, 2, app)
        assert got == ["two", "one"]

    def test_any_source_any_tag(self, mc):
        got = []

        def app(ctx):
            if ctx.rank in (0, 1):
                yield ctx.compute(0.01 * (ctx.rank + 1))
                yield ctx.comm.send(2, 64, tag=ctx.rank + 10, data=ctx.rank)
            elif ctx.rank == 2:
                for _ in range(2):
                    msg = yield ctx.comm.recv(ANY_SOURCE, ANY_TAG)
                    got.append(msg.data)

        run_world(mc, 3, app)
        assert sorted(got) == [0, 1]

    def test_eager_sender_does_not_block(self, mc):
        times = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 100, tag=0)  # eager
                times["send_done"] = ctx.now
            else:
                yield ctx.compute(1.0)
                yield ctx.comm.recv(0, 0)

        run_world(mc, 2, app)
        assert times["send_done"] < 0.01

    def test_rendezvous_sender_blocks_for_receiver(self, mc):
        times = {}
        params = SimParams(eager_threshold_bytes=1024)

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 10**6, tag=0)  # rendezvous
                times["send_done"] = ctx.now
            else:
                yield ctx.compute(1.0)
                yield ctx.comm.recv(0, 0)

        run_world(mc, 2, app, params=params)
        assert times["send_done"] > 1.0


class TestSendrecv:
    def test_pairwise_exchange(self, mc):
        got = {}

        def app(ctx):
            other = 1 - ctx.rank
            msg = yield ctx.comm.sendrecv(
                dest=other, send_size=128, send_tag=5, source=other, recv_tag=5,
                data=f"from{ctx.rank}",
            )
            got[ctx.rank] = msg.data

        run_world(mc, 2, app)
        assert got == {0: "from1", 1: "from0"}

    def test_ring_shift(self, mc):
        got = {}

        def app(ctx):
            succ = (ctx.rank + 1) % ctx.size
            pred = (ctx.rank - 1) % ctx.size
            msg = yield ctx.comm.sendrecv(
                dest=succ, send_size=64, send_tag=1, source=pred, recv_tag=1,
                data=ctx.rank,
            )
            got[ctx.rank] = msg.data

        run_world(mc, 4, app)
        assert got == {0: 3, 1: 0, 2: 1, 3: 2}


class TestTiming:
    def test_transfer_respects_link_latency(self):
        mc = uniform_metacomputer(
            metahost_count=2,
            node_count=1,
            cpus_per_node=1,
            external_latency_s=5e-3,
            external_congestion_prob=0.0,
        )
        times = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 64, tag=0)
            else:
                yield ctx.comm.recv(0, 0)
                times["recv"] = ctx.now

        run_world(mc, 2, app)
        assert times["recv"] >= 5e-3

    def test_intra_node_faster_than_internal(self, mc):
        def make_app(receiver):
            times = {}

            def app(ctx):
                if ctx.rank == 0:
                    yield ctx.comm.send(receiver, 64, tag=0)
                elif ctx.rank == receiver:
                    yield ctx.comm.recv(0, 0)
                    times["recv"] = ctx.now

            return app, times

        # rank 1 shares node 0 with rank 0; rank 2 is on node 1.
        app_local, t_local = make_app(1)
        run_world(mc, 3, app_local)
        app_remote, t_remote = make_app(2)
        run_world(mc, 3, app_remote)
        assert t_local["recv"] < t_remote["recv"]


class TestErrors:
    def test_deadlock_detected(self, mc):
        def app(ctx):
            if ctx.rank == 1:
                yield ctx.comm.recv(0, 0)  # never sent

        with pytest.raises(DeadlockError, match="MPI_Recv"):
            run_world(mc, 2, app)

    def test_send_to_invalid_rank(self, mc):
        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(5, 64)

        with pytest.raises(MPIUsageError):
            run_world(mc, 2, app)

    def test_negative_size_rejected(self, mc):
        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, -5)
            else:
                yield ctx.comm.recv(0)

        with pytest.raises(MPIUsageError):
            run_world(mc, 2, app)

    def test_unknown_request_rejected(self, mc):
        def app(ctx):
            yield "not a request"

        with pytest.raises(MPIUsageError):
            run_world(mc, 1, app)

        def late(ctx):
            yield ctx.compute(0.5)
            yield 42

        with pytest.raises(MPIUsageError, match=r"^rank 0 yielded an unknown request at t=0\.5: 42$"):
            run_world(mc, 1, late)


class TestBuilderArguments:
    """The request builders refuse what MPI forbids, naming the argument,
    before anything is simulated or traced."""

    @pytest.fixture
    def comm(self):
        return Communicator(CommunicatorData(0, "world", range(2)), 0)

    def test_fractional_size(self, comm):
        with pytest.raises(MPIUsageError, match=r"^size must be an integer, got 8\.7$"):
            comm.isend(1, 8.7)

    def test_fractional_dest(self, comm):
        with pytest.raises(MPIUsageError, match=r"^dest must be an integer, got 1\.5$"):
            comm.isend(1.5, 8)

    def test_fractional_root(self, comm):
        with pytest.raises(MPIUsageError, match=r"^root must be an integer, got 1\.0$"):
            comm.bcast(8, root=1.0)

    def test_wildcard_send_tag(self, comm):
        with pytest.raises(MPIUsageError, match=r"^tag must be in \[0, 2\*\*31\), got -1$"):
            comm.send(1, 8, tag=ANY_TAG)

    def test_negative_send_tag(self, comm):
        with pytest.raises(MPIUsageError, match=r"^tag must be in \[0, 2\*\*31\), got -7$"):
            comm.send(1, 8, tag=-7)

    def test_tag_beyond_the_trace_format_in_an_untraced_run(self, mc):
        def app(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 8, tag=2**40)
            else:
                yield ctx.comm.recv(0)

        with pytest.raises(MPIUsageError, match=r"^tag must be in \[0, 2\*\*31\), got 1099511627776$"):
            run_world(mc, 2, app)

    def test_size_beyond_the_trace_format(self, comm):
        with pytest.raises(MPIUsageError, match=rf"^size must be in \[0, 2\*\*64\), got {2**70}$"):
            comm.send(1, 2**70)
        with pytest.raises(MPIUsageError, match=r"^send_size must be in \[0, 2\*\*64\)"):
            comm.sendrecv(1, 2**70)

    def test_wildcards_numpy_integers_and_bools(self, comm):
        assert comm.recv(ANY_SOURCE, ANY_TAG) == (0, ANY_SOURCE, ANY_TAG)
        assert comm.irecv(np.int64(1), np.int32(3)) == (0, 1, 3)
        request = comm.isend(np.int64(1), np.uint16(8), tag=np.int8(2))
        assert request == (0, 1, 8, 2, None)
        assert all(type(field) is int for field in request[:4])
        with pytest.raises(MPIUsageError, match="^dest must be an integer, got True$"):
            comm.send(True, 8)
        with pytest.raises(MPIUsageError, match=r"^source must be in \[0, 2\) or -1"):
            comm.recv(2)


class TestSplitArguments:
    """``split`` checks like the other builders: the color is a non-negative
    C int or None (MPI_UNDEFINED), the key an integer."""

    @pytest.fixture
    def comm(self):
        return Communicator(CommunicatorData(0, "world", range(2)), 0)

    @pytest.mark.parametrize(
        "color, message",
        [
            (1.5, r"^color must be an integer, got 1\.5$"),
            (True, r"^color must be an integer, got True$"),
            (-3, r"^color must be in \[0, 2\*\*31\), got -3$"),
            (2**31, r"^color must be in \[0, 2\*\*31\), got 2147483648$"),
        ],
    )
    def test_bad_color(self, comm, color, message):
        with pytest.raises(MPIUsageError, match=message):
            comm.split(color)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("1", r"^key must be an integer, got '1'$"),
            (2.0, r"^key must be an integer, got 2\.0$"),
            (True, r"^key must be an integer, got True$"),
        ],
    )
    def test_bad_key(self, comm, key, message):
        with pytest.raises(MPIUsageError, match=message):
            comm.split(0, key)

    def test_admitted(self, comm):
        assert comm.split(None) == (0, None, 0)
        request = comm.split(np.int64(2), key=np.int32(-5))
        assert request == (0, 2, -5)
        assert type(request.color) is int and type(request.key) is int

    def test_refused_before_a_communicator_is_made(self, mc):
        def app(ctx):
            yield ctx.comm.split(1.5)

        with pytest.raises(MPIUsageError, match="^color must be an integer"):
            run_world(mc, 2, app)


class TestWorkArguments:
    """``compute``, ``sleep`` and ``parallel`` take finite, non-negative
    seconds and name the argument otherwise, before anything is simulated."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda ctx: ctx.compute(True), "work_seconds .* got True$"),
            (lambda ctx: ctx.compute(float("nan")), "work_seconds .* got nan$"),
            (lambda ctx: ctx.compute(-0.5), "work_seconds .* got -0.5$"),
            (lambda ctx: ctx.compute("1"), "work_seconds .* got '1'$"),
            (lambda ctx: ctx.compute(10**400), "work_seconds .* got 1000"),
            (lambda ctx: ctx.sleep(float("inf")), "wall_seconds .* got inf$"),
            (lambda ctx: ctx.sleep(False), "wall_seconds .* got False$"),
            (lambda ctx: ctx.parallel([1.0, float("nan")]), r"work_seconds\[1\] .* got nan$"),
            (lambda ctx: ctx.parallel([float("inf")]), r"work_seconds\[0\] .* got inf$"),
            (lambda ctx: ctx.parallel([0.5, True]), r"work_seconds\[1\] .* got True$"),
        ],
    )
    def test_refused(self, mc, build, message):
        def app(ctx):
            yield build(ctx)

        with pytest.raises(MPIUsageError, match="^" + message.replace(
            " .* ", " must be a number of seconds >= 0 and finite, "
        )):
            run_world(mc, 1, app)

    def test_integers_and_numpy_reals_are_seconds(self, mc):
        done = {}

        def app(ctx):
            yield ctx.compute(1)
            yield ctx.sleep(np.float64(0.5))
            yield ctx.parallel([np.float32(0.25), 0])
            done[ctx.rank] = ctx.now

        run_world(mc, 1, app)
        assert done[0] == 1.75 and type(done[0]) is float


class TestDeterminism:
    def _finish(self, seed):
        mc = single_cluster(node_count=2, cpus_per_node=1)

        def app(ctx):
            for i in range(20):
                if ctx.rank == 0:
                    yield ctx.comm.send(1, 64, tag=i)
                else:
                    yield ctx.comm.recv(0, tag=i)

        _, stats = run_world(mc, 2, app, seed=seed)
        return stats.finish_time

    def test_same_seed_same_run(self):
        assert self._finish(42) == self._finish(42)

    def test_different_seed_different_run(self):
        assert self._finish(42) != self._finish(43)
