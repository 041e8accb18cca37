"""Skeleton re-execution on a target metacomputer.

The replay application walks each rank's action list: compute segments are
rescaled by the CPU-speed ratio, communication operations are re-issued
through the target world's MPI layer — their timing (including every wait
state) emerges from the target machine's latency/bandwidth/speed model.
The re-timed run is traced and archived like a real one, so the standard
analyzer produces a *predicted* wait-state report for the target machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.result import AnalysisResult
from repro.analysis.streaming import analyze
from repro.errors import ConfigurationError
from repro.predict.skeleton import (
    CollectiveAction,
    ComputeAction,
    ProgramSkeleton,
    RecvAction,
    RegionAction,
    SendAction,
    SendrecvAction,
    WaitSendsAction,
)
from repro.sim.mpi import Communicator
from repro.sim.runtime import MetaMPIRuntime, RunResult
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Metacomputer, Placement


@dataclass
class PredictionOutcome:
    """A predicted run plus its analysis."""

    run: RunResult
    result: AnalysisResult
    skeleton: ProgramSkeleton

    @property
    def predicted_seconds(self) -> float:
        """Predicted wall time of the slowest rank."""
        return self.run.stats.finish_time


def _make_replay_app(skeleton: ProgramSkeleton, comm_names: Dict[int, str]):
    def app(ctx):
        actions = skeleton.actions.get(ctx.rank, [])
        speed_ratio = skeleton.source_speed[ctx.rank] / ctx.slot.cpu.speed_factor
        comms: Dict[int, Optional[Communicator]] = {}

        def comm_for(comm_id: int) -> Communicator:
            if comm_id not in comms:
                name = comm_names[comm_id]
                comms[comm_id] = ctx.comm if name == "world" else ctx.get_comm(name)
            comm = comms[comm_id]
            if comm is None:
                raise ConfigurationError(
                    f"rank {ctx.rank} replays an op on communicator "
                    f"{comm_names[comm_id]!r} it does not belong to"
                )
            return comm

        pending_sends = []
        open_region: Optional[str] = None
        for action in actions:
            if isinstance(action, ComputeAction):
                yield ctx.sleep(action.seconds * speed_ratio)
            elif isinstance(action, RegionAction):
                if open_region is not None:
                    ctx.exit(open_region)
                ctx.enter(action.name)
                open_region = action.name
            elif isinstance(action, SendAction):
                comm = comm_for(action.comm)
                dest = comm.data.comm_rank(action.dest_global)
                if action.nonblocking:
                    handle = yield comm.isend(dest, action.size, tag=action.tag)
                    pending_sends.append(handle)
                elif action.synchronous:
                    yield comm.ssend(dest, action.size, tag=action.tag)
                else:
                    yield comm.send(dest, action.size, tag=action.tag)
            elif isinstance(action, RecvAction):
                comm = comm_for(action.comm)
                yield comm.recv(comm.data.comm_rank(action.source_global), action.tag)
            elif isinstance(action, SendrecvAction):
                comm = comm_for(action.comm)
                yield comm.sendrecv(
                    dest=comm.data.comm_rank(action.dest_global),
                    send_size=action.send_size,
                    send_tag=action.send_tag,
                    source=comm.data.comm_rank(action.source_global),
                    recv_tag=action.recv_tag,
                )
            elif isinstance(action, WaitSendsAction):
                if action.all_pending:
                    if pending_sends:
                        yield ctx.comm.waitall(pending_sends)
                        pending_sends = []
                elif pending_sends:
                    yield ctx.comm.wait(pending_sends.pop(0))
            elif isinstance(action, CollectiveAction):
                comm = comm_for(action.comm)
                root = comm.data.comm_rank(action.root_global)
                op = action.op
                if op == "MPI_Barrier":
                    yield comm.barrier()
                elif op == "MPI_Allreduce":
                    yield comm.allreduce(action.size)
                elif op == "MPI_Allgather":
                    yield comm.allgather(action.size)
                elif op == "MPI_Alltoall":
                    yield comm.alltoall(action.size)
                elif op == "MPI_Bcast":
                    yield comm.bcast(action.size, root=root)
                elif op == "MPI_Scatter":
                    yield comm.scatter(action.size, root=root)
                elif op == "MPI_Reduce":
                    yield comm.reduce(action.size, root=root)
                elif op == "MPI_Gather":
                    yield comm.gather(action.size, root=root)
                elif op == "MPI_Scan":
                    yield comm.scan(action.size)
                else:
                    raise ConfigurationError(f"cannot replay collective {op!r}")
            else:  # pragma: no cover - closed union
                raise ConfigurationError(f"unknown action {action!r}")
        if pending_sends:
            yield ctx.comm.waitall(pending_sends)
        if open_region is not None:
            ctx.exit(open_region)

    return app


def predict_run(
    skeleton: ProgramSkeleton,
    target: Metacomputer,
    placement: Placement,
    params: SimParams = SimParams(),
    seed: int = 0,
) -> PredictionOutcome:
    """Re-execute *skeleton* on the target machine and analyze the result.

    The placement must provide exactly the skeleton's world size; rank *i*
    of the skeleton runs on slot *i* of the target placement.
    """
    if placement.size != skeleton.world_size:
        raise ConfigurationError(
            f"skeleton has {skeleton.world_size} ranks but the target "
            f"placement provides {placement.size}"
        )
    comm_names = {cid: name for cid, (name, _r) in skeleton.communicators.items()}
    subcomms = {
        name: list(ranks)
        for cid, (name, ranks) in skeleton.communicators.items()
        if name != "world"
    }
    runtime = MetaMPIRuntime(
        target,
        placement,
        params=params,
        seed=seed,
        subcomms=subcomms,
        archive_path="/work/epik_predicted",
    )
    run = runtime.run(_make_replay_app(skeleton, comm_names))
    result = analyze(run)
    return PredictionOutcome(run=run, result=result, skeleton=skeleton)
