"""Golden simulator runs, engine-event budgets and emit equivalence.

The simulator's contract is the archive: for a seed, every byte of every
archive file, :class:`~repro.sim.mpi.WorldStats` and the finish time must
not move when the simulator's internals do.  The digests below were computed
at commit ``ca86993`` (the parent of the due-time-handle rewrite) and must
never be re-pinned by a change that claims to keep behaviour.  Three runs:
the 32-rank MetaTrace workload, the same under a fault plan, and a small
application that enters every request type the benchmark workloads never
reach (rendezvous ``isend``, ``irecv`` + ``wait``, ``sendrecv``, wildcard
receives, rooted-collective early release, ``scan``, ``split``, threads).

Beside them: budgets on engine callbacks (one heap entry per thing that
happens at a distinct time), byte-equality of the world's direct trace emit
with :class:`~repro.instrument.tracer.Tracer`'s by-slot hooks including every
buffer rejection, ``wait`` issued before / between / after match and
completion, and the request-handle bookkeeping rules.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.sim.runtime as runtime_module
from repro.apps.metatrace import make_metatrace_app
from repro.clocks.clock import ClockEnsemble, LinearClock
from repro.errors import EncodingError, MPIUsageError, SimulationError, TraceError
from repro.experiments.configs import scaled_experiment1
from repro.experiments.faults import escalating_fault_plans
from repro.ids import ANY_SOURCE, ANY_TAG
from repro.instrument.tracer import Tracer
from repro.sim.mpi import RequestHandle, SendReq, World, WorldStats
from repro.sim.runtime import MetaMPIRuntime
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer
from tests.conftest import archive_digest

#: ``Engine.processed_events`` of the 32-rank golden run at the parent.
PARENT_EVENTS_32 = 49_723


# --------------------------------------------------------------------------
# The "every request type" application
# --------------------------------------------------------------------------


def every_request_app(observed):
    """App entering each request type once or more; logs what it is handed."""

    def app(ctx):
        comm, rank, n = ctx.comm, ctx.rank, ctx.size
        right, left = (rank + 1) % n, (rank - 1) % n
        seen = observed.setdefault(rank, [])

        def note(label, value):
            seen.append((label, repr(value), repr(ctx.now)))

        def payload(msg):
            return None if msg is None else (msg.source, msg.tag, msg.size, msg.data)

        with ctx.region("p2p"):
            yield ctx.compute(0.001 * (rank % 3))
            yield ctx.compute(0.0)
            # Blocking eager / rendezvous / synchronous sends around a ring.
            if rank % 2 == 0:
                yield comm.send(right, 256, tag=1, data=("eager", rank))
                yield comm.send(right, 100_000, tag=2, data=("rdv", rank))
                yield comm.ssend(right, 64, tag=3)
                for tag in (1, 2, 3):
                    note("recv", payload((yield comm.recv(left, tag))))
            else:
                for tag in (1, 2, 3):
                    note("recv", payload((yield comm.recv(left, tag))))
                yield comm.send(right, 256, tag=1, data=("eager", rank))
                yield comm.send(right, 100_000, tag=2, data=("rdv", rank))
                yield comm.ssend(right, 64, tag=3)
            # Rendezvous isend + wait, irecv + wait (early and late waiters).
            h_recv = yield comm.irecv(left, 4)
            h_send = yield comm.isend(right, 50_000, tag=4, data=rank)
            yield ctx.compute(0.004 * (rank % 2))
            note("wait", payload((yield comm.wait(h_recv))))
            note("wait", payload((yield comm.wait(h_send))))
            # irecvs + waitall mixed with send handles; odd ranks arrive late
            # (handles past due), even ranks early (handles still open).
            handles = []
            for d in (1, 2, 3):
                handles.append((yield comm.irecv((rank - d) % n, 10 + d)))
            for d in (1, 2, 3):
                handles.append(
                    (yield comm.isend((rank + d) % n, 128 * d, tag=10 + d, data=d))
                )
            yield ctx.compute(0.003 * (rank % 2))
            results = yield comm.waitall(handles)
            note("waitall", [payload(m) for m in results])
            note("waitall", (yield comm.waitall([])))
            # sendrecv with an eager and with a rendezvous send half.
            note("sendrecv", payload((yield comm.sendrecv(right, 512, 20, left, 20))))
            note(
                "sendrecv",
                payload((yield comm.sendrecv(right, 80_000, 21, left, 21, data=rank))),
            )
            # Wildcard receives fed by every other rank.
            if rank == 0:
                for _ in range(n - 1):
                    note("any", payload((yield comm.recv(ANY_SOURCE, ANY_TAG))))
            else:
                yield ctx.compute(0.0002 * ((rank * 5) % n))
                yield comm.send(0, 64 * rank, tag=30 + rank, data=rank)

        with ctx.region("collectives"):
            yield ctx.compute(0.0007 * ((rank * 3) % n))
            note("bcast", (yield comm.bcast(1024, root=2, data=f"b{rank}")))
            note("reduce", (yield comm.reduce(2048, root=3, data=rank)))
            yield ctx.compute(0.0005 * ((n - rank) % 4))
            note("gather", (yield comm.gather(64, root=1, data=rank * rank)))
            note("scatter", (yield comm.scatter(64, root=0, data=f"s{rank}")))
            note("scan", (yield comm.scan(8, data=rank)))
            note("allreduce", (yield comm.allreduce(8, data=rank)))
            note("barrier", (yield comm.barrier()))
            # Lockstep after the barrier: every rank's handles fall due at
            # the same instants, so same-time ordering decides the draws.
            h_send = yield comm.isend(right, 64, tag=40)
            note("wait", payload((yield comm.wait(h_send))))  # due, not yet
            h_recv = yield comm.irecv(left, 40)
            h_send = yield comm.isend(right, 2048, tag=41, data=rank)
            note("waitall", [payload(m) for m in (yield comm.waitall([h_send, h_recv]))])
            note("recv", payload((yield comm.recv(left, 41))))
            note("allgather", (yield comm.allgather(16, data=-rank)))
            note("alltoall", (yield comm.alltoall(32, data=rank)))
            sub = yield comm.split(color=rank % 2, key=-rank)
            note("split", (sub.name, sub.rank, sub.size))
            note("sub.allreduce", (yield sub.allreduce(16, data=rank)))
            peer = (sub.rank + 1) % sub.size
            note(
                "sub.sendrecv",
                payload((yield sub.sendrecv(peer, 96, 5, ANY_SOURCE, 5, data=rank))),
            )

        ctx.enter("threads")
        yield ctx.parallel([0.001, 0.002 + 0.0001 * rank, 0.0005], region="omp_kernel")
        ctx.exit("threads")

    return app


def _observed_digest(observed):
    h = hashlib.sha256()
    for rank in sorted(observed):
        h.update(repr((rank, observed[rank])).encode())
    return h.hexdigest()


def _metatrace_run(seed, fault_plan=None, **config_kwargs):
    metacomputer, placement, config = scaled_experiment1(1, **config_kwargs)
    runtime = MetaMPIRuntime(
        metacomputer,
        placement,
        seed=seed,
        subcomms=config.subcomms(),
        fault_plan=fault_plan,
    )
    return runtime.run(make_metatrace_app(config))


def _every_request_run(observed):
    metacomputer = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    runtime = MetaMPIRuntime(
        metacomputer,
        Placement.block(metacomputer, 8),
        params=SimParams(eager_threshold_bytes=4096),
        seed=5,
    )
    return runtime.run(every_request_app(observed))


@pytest.fixture
def worlds(monkeypatch):
    """Every :class:`World` a runtime builds while the test runs."""
    built = []

    class CapturedWorld(World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runtime_module, "World", CapturedWorld)
    return built


# --------------------------------------------------------------------------
# Golden archives (computed at the parent commit; never re-pin)
# --------------------------------------------------------------------------


class TestGoldenArchives:
    def test_metatrace_32_ranks_seed1(self, worlds):
        run = _metatrace_run(seed=1)
        assert archive_digest(run) == (
            "3abedc9f5fd79ced1ea366040a98ee652ccf7f82a7badb6212dd029261ded435"
        )
        assert run.stats == WorldStats(
            p2p_messages=8592,
            p2p_bytes=1396015104,
            collectives=306,
            rendezvous_messages=96,
            finish_time=4.958050216056012,
            retransmits=0,
        )
        assert repr(run.stats.finish_time) == "4.958050216056012"
        assert run.total_trace_bytes == 1_400_544
        # One heap entry per thing that happens at a distinct time.
        assert worlds[0].engine.processed_events <= 0.75 * PARENT_EVENTS_32

    def test_fault_plan_run_seed1(self):
        plan = escalating_fault_plans(1)[2]  # degraded-links+flaky-fs
        run = _metatrace_run(seed=1, fault_plan=plan, coupling_intervals=1)
        assert archive_digest(run) == (
            "10553587a58fa5401c8e960429383c98c9118fef9ab9b0d18f1cc6690eeb00c9"
        )
        assert run.stats == WorldStats(
            p2p_messages=1432,
            p2p_bytes=232669184,
            collectives=51,
            rendezvous_messages=16,
            finish_time=0.8679319581963426,
            retransmits=36,
        )
        assert repr(run.stats.finish_time) == "0.8679319581963426"

    def test_every_request_type(self):
        observed = {}
        run = _every_request_run(observed)
        assert archive_digest(run) == (
            "14597d04513f87c284aa122822903945136e75a8dd490fad4834ee03974b29a8"
        )
        assert run.stats == WorldStats(
            p2p_messages=103,
            p2p_bytes=1872256,
            collectives=12,
            rendezvous_messages=32,
            finish_time=0.07791093341737527,
            retransmits=0,
        )
        assert repr(run.stats.finish_time) == "0.07791093341737527"
        assert _observed_digest(observed) == (
            "6545c33f45c89c66e27dcfe437b4f845f88aebc33e5ceb1e99b7c8d8e4c91b26"
        )


# --------------------------------------------------------------------------
# Engine-event budgets
# --------------------------------------------------------------------------


def _bare_world(nprocs=2, tracer=None, **kwargs):
    mc = single_cluster(node_count=2, cpus_per_node=2)
    return World(
        mc, Placement.block(mc, nprocs), rng=np.random.default_rng(0), tracer=tracer,
        **kwargs,
    )


class TestEventBudget:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_eager_isends_and_one_waitall(self, k):
        """k eager isends + one waitall cost 2 events each plus a constant:
        the call's return and the arrival — no completion marker, no
        per-handle wake-up."""

        def app(ctx):
            if ctx.rank == 0:
                handles = []
                for i in range(k):
                    handles.append((yield ctx.comm.isend(1, 64, tag=i)))
                yield ctx.compute(0.01)
                yield ctx.comm.waitall(handles)
            else:
                yield ctx.compute(0.02)

        world = _bare_world()
        world.launch(app, seed=0)
        world.run()
        # 2 starters + 2 computes + the waitall's single completion.
        assert world.engine.processed_events <= 2 * k + 5


# --------------------------------------------------------------------------
# One encoder, two callers
# --------------------------------------------------------------------------


def _skewed_clocks(mc, nprocs):
    placement = Placement.block(mc, nprocs)
    return placement, ClockEnsemble(
        {
            node: LinearClock(offset_s=0.25 * (i + 1), drift=3e-6 * (i + 1))
            for i, node in enumerate(sorted(placement.ranks_by_node()))
        }
    )


class TestEmitEquivalence:
    def test_direct_emit_equals_by_slot_hooks(self):
        """The world's emit and the tracer's hooks write the same bytes."""
        mc = single_cluster(node_count=2, cpus_per_node=1)
        placement, clocks = _skewed_clocks(mc, 2)
        script = []  # (hook, slot, args...) in global execution order

        def app(ctx):
            slot, comm = ctx.slot, ctx.comm
            ctx.enter("user")
            script.append(("enter", slot, "user", ctx.now))
            yield ctx.compute(0.125)
            if ctx.rank == 0:
                script.append(("enter", slot, "MPI_Send", ctx.now))
                script.append(("send", slot, ctx.now, 1, 7, 0, 300))
                yield comm.send(1, 300, tag=7)
                script.append(("exit", slot, "MPI_Send", ctx.now))
            else:
                script.append(("enter", slot, "MPI_Recv", ctx.now))
                yield comm.recv(0, 7)
                script.append(("recv", slot, ctx.now, 0, 7, 0, 300))
                script.append(("exit", slot, "MPI_Recv", ctx.now))
            script.append(("enter", slot, "omp", ctx.now))
            yield ctx.parallel([0.5, 0.25], region="omp")
            script.append(("omp_region", slot, ctx.now, "omp", 2, 0.75, 0.5))
            script.append(("exit", slot, "omp", ctx.now))
            script.append(("enter", slot, "MPI_Barrier", ctx.now))
            yield comm.barrier()
            script.append(("coll_exit", slot, ctx.now, "MPI_Barrier", 0, 0, 0, 0))
            script.append(("exit", slot, "MPI_Barrier", ctx.now))
            ctx.exit("user")
            script.append(("exit", slot, "user", ctx.now))

        direct = Tracer(clocks)
        world = World(mc, placement, rng=np.random.default_rng(3), tracer=direct)
        world.launch(app, seed=0)
        world.run()

        hooked = Tracer(clocks)
        for hook, *args in script:
            getattr(hooked, hook)(*args)
        assert hooked.regions.to_list() == direct.regions.to_list()
        for rank in (0, 1):
            assert len(direct.buffer(rank)) == 11
            assert hooked.buffer(rank).encoded() == direct.buffer(rank).encoded()

    # Each rejection, provoked once through the world's emit and once
    # through the by-slot hook; type and text are the parent's.

    def _world_error(self, app, prepare=None):
        mc = single_cluster(node_count=1, cpus_per_node=2)
        placement, clocks = _skewed_clocks(mc, 2)
        tracer = Tracer(clocks)
        if prepare is not None:
            prepare(tracer)
        world = World(mc, placement, rng=np.random.default_rng(0), tracer=tracer)
        world.launch(app, seed=0)
        with pytest.raises(Exception) as caught:
            world.run()
        return caught.value

    def _hook_error(self, call, prepare=None):
        mc = single_cluster(node_count=1, cpus_per_node=2)
        placement, clocks = _skewed_clocks(mc, 2)
        tracer = Tracer(clocks)
        if prepare is not None:
            prepare(tracer)
        with pytest.raises(Exception) as caught:
            call(tracer, placement.slot(0))
        return caught.value

    @staticmethod
    def _same(errors, kind, text):
        for error in errors:
            assert type(error) is kind
            assert str(error) == text

    def test_time_reversal(self):
        def ahead(tracer):
            tracer.buffer(0).enter(1000.0, 0)

        def app(ctx):
            ctx.enter("late")
            yield ctx.compute(0.0)

        self._same(
            [
                self._world_error(app, ahead),
                self._hook_error(lambda t, slot: t.enter(slot, "late", 0.0), ahead),
            ],
            TraceError,
            "rank 0: non-monotonic local time stamp 0.25 after 1000.0",
        )

    def test_exit_without_enter(self):
        def app(ctx):
            ctx.exit("never_entered")
            yield ctx.compute(0.0)

        self._same(
            [
                self._world_error(app),
                self._hook_error(lambda t, slot: t.exit(slot, "never_entered", 0.0)),
            ],
            TraceError,
            "rank 0: EXIT without matching ENTER",
        )

    def test_append_after_finalize(self):
        def closed(tracer):
            tracer.buffer(0).finalize()

        def app(ctx):
            yield ctx.compute(0.0)
            if ctx.rank == 0:
                yield ctx.comm.send(1, 8)
            else:
                yield ctx.comm.recv(0)

        self._same(
            [
                self._world_error(app, closed),
                self._hook_error(lambda t, slot: t.enter(slot, "MPI_Send", 0.0), closed),
            ],
            TraceError,
            "trace buffer of rank 0 already finalized",
        )

    def test_unencodable_field(self):
        def app(ctx):
            if ctx.rank == 0:
                # Built by hand: ``comm.send`` itself refuses a tag >= 2**31.
                yield SendReq(ctx.comm.id, 1, 8, 2**40)
            else:
                yield ctx.comm.recv(0)

        errors = [
            self._world_error(app),
            self._hook_error(lambda t, slot: t.send(slot, 0.0, 1, 2**40, 0, 8)),
        ]
        for error in errors:
            assert type(error) is EncodingError
            assert str(error).startswith("rank 0: cannot encode SEND event: ")
        assert str(errors[0]) == str(errors[1])


# --------------------------------------------------------------------------
# wait() relative to match and completion time
# --------------------------------------------------------------------------


class TestWaitTiming:
    """Times pinned from the parent commit (seed 0, 2 ranks, one node pair)."""

    PARAMS = SimParams(eager_threshold_bytes=512)

    def _run(self, recv_delay, send_delay, size, post_delay=0.0):
        out = {}

        def app(ctx):
            if ctx.rank == 0:
                yield ctx.compute(send_delay)
                yield ctx.comm.send(1, size, tag=9, data="payload")
            else:
                yield ctx.compute(post_delay)
                handle = yield ctx.comm.irecv(0, 9)
                yield ctx.compute(recv_delay)
                out["wait_enter"] = ctx.now
                msg = yield ctx.comm.wait(handle)
                out["msg"] = (msg.source, msg.tag, msg.size, msg.data)
                out["wait_exit"] = ctx.now

        mc = single_cluster(node_count=2, cpus_per_node=1)
        world = World(
            mc, Placement.block(mc, 2), params=self.PARAMS, rng=np.random.default_rng(0)
        )
        world.launch(app, seed=0)
        world.run()
        return out

    # Rendezvous: match at the RTS arrival, completion a 1 MB transfer later.
    @pytest.mark.parametrize(
        "recv_delay, expected_exit",
        [
            (0.0, "0.005060975468534419"),  # wait before the match
            (0.002, "0.005060975468534419"),  # between match and completion
            (0.5, "0.5000005"),  # after completion
        ],
    )
    def test_rendezvous(self, recv_delay, expected_exit):
        out = self._run(recv_delay, send_delay=0.001, size=1_000_000)
        assert out["msg"] == (0, 9, 1_000_000, "payload")
        assert repr(out["wait_exit"]) == expected_exit

    def test_eager_unexpected_message_waited_at_once(self):
        """The message is there when the irecv is posted: the wait lands
        between the match (post time) and completion (post + overhead)."""
        out = self._run(0.0, send_delay=0.0, size=64, post_delay=0.001)
        assert out["msg"] == (0, 9, 64, "payload")
        assert repr(out["wait_exit"]) == "0.001001"


# --------------------------------------------------------------------------
# Request-handle rules
# --------------------------------------------------------------------------


class TestRequestHandles:
    def test_double_completion_rejected_before_it_is_due(self):
        """A second completion is refused even while the first lies in the
        future (the old guard only looked at a flag set at the due time)."""
        world = _bare_world()
        handle = RequestHandle(1, "recv", 0)
        world._complete_handle(handle, 1.0, None)
        with pytest.raises(SimulationError, match="completed twice"):
            world._complete_handle(handle, 2.0, None)

    def test_wait_and_waitall_on_one_handle_rejected(self):
        shared = {}

        def app(ctx):
            if ctx.rank == 0:
                shared["handle"] = yield ctx.comm.irecv(2, 0)
                yield ctx.comm.wait(shared["handle"])
            elif ctx.rank == 1:
                yield ctx.compute(0.01)
                yield ctx.comm.waitall([shared["handle"]])
            else:
                yield ctx.compute(0.1)
                yield ctx.comm.send(0, 64, tag=0)

        world = _bare_world(nprocs=3)
        world.launch(app, seed=0)
        with pytest.raises(MPIUsageError, match="waited on twice"):
            world.run()

    def test_handle_ids_repeat_per_world(self):
        """Identical runs number their handles identically, so error texts
        that name a handle are reproducible per seed."""

        def one_run():
            ids = []

            def app(ctx):
                other = 1 - ctx.rank
                for tag in range(3):
                    h_send = yield ctx.comm.isend(other, 64, tag=tag)
                    h_recv = yield ctx.comm.irecv(other, tag)
                    ids.append((ctx.rank, h_send.id, h_recv.id))
                    yield ctx.comm.waitall([h_send, h_recv])
                pending = yield ctx.comm.irecv(other, 99)
                yield ctx.comm.waitall([pending, pending])

            world = _bare_world()
            world.launch(app, seed=0)
            with pytest.raises(MPIUsageError) as caught:
                world.run()
            return ids, str(caught.value)

        first, second = one_run(), one_run()
        assert first == second
        assert sorted(i for _, s, r in first[0] for i in (s, r)) == list(range(1, 13))
        assert "waited on twice" in first[1]
