"""Program-skeleton extraction from analyzed traces.

A skeleton is, per rank, the ordered sequence of

* **compute segments** — the gaps between consecutive MPI operations
  (application work, *excluding* any waiting, which lives inside the MPI
  operations and is re-derived by the target simulation), and
* **communication operations** — sends/receives/collectives with their
  byte counts, tags, communicators and (global-rank) peers.

Limitations, by design: non-blocking receives are replayed as blocking
receives at their completion point (the posting ``MPI_Irecv`` carries no
matching information in the trace); an ``MPI_Wait``/``MPI_Waitall`` without
receive records is replayed as completing the oldest / all outstanding
non-blocking sends.  Region structure is flattened to the innermost user
region enclosing each operation, so predicted severities can still be
localized to functions like ``cgiteration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.analysis.instances import MPIOpInstance
from repro.analysis.result import AnalysisResult
from repro.analysis.streaming import analyze
from repro.errors import AnalysisError, ConfigurationError
from repro.trace.regions import RegionRegistry, is_mpi_region

# -- actions -----------------------------------------------------------------


@dataclass(frozen=True)
class ComputeAction:
    """Source-machine wall seconds of application work."""

    seconds: float


@dataclass(frozen=True)
class SendAction:
    dest_global: int
    size: int
    tag: int
    comm: int
    synchronous: bool = False
    nonblocking: bool = False


@dataclass(frozen=True)
class RecvAction:
    source_global: int
    tag: int
    comm: int


@dataclass(frozen=True)
class SendrecvAction:
    dest_global: int
    send_size: int
    send_tag: int
    source_global: int
    recv_tag: int
    comm: int


@dataclass(frozen=True)
class WaitSendsAction:
    """Complete outstanding non-blocking sends (oldest one, or all)."""

    all_pending: bool


@dataclass(frozen=True)
class CollectiveAction:
    op: str
    comm: int
    root_global: int
    size: int


@dataclass(frozen=True)
class RegionAction:
    """Switch the active (flattened) user region."""

    name: str


Action = Union[
    ComputeAction,
    SendAction,
    RecvAction,
    SendrecvAction,
    WaitSendsAction,
    CollectiveAction,
    RegionAction,
]


@dataclass
class ProgramSkeleton:
    """Everything needed to re-execute a traced program elsewhere."""

    actions: Dict[int, List[Action]] = field(default_factory=dict)
    #: Communicator id → (name, global ranks), copied from the source run.
    communicators: Dict[int, Tuple[str, Tuple[int, ...]]] = field(default_factory=dict)
    #: Source CPU speed factor per rank (for compute rescaling).
    source_speed: Dict[int, float] = field(default_factory=dict)

    @property
    def world_size(self) -> int:
        return len(self.actions)

    def compute_seconds(self, rank: int) -> float:
        return sum(
            a.seconds for a in self.actions.get(rank, []) if isinstance(a, ComputeAction)
        )


def invert_bytes_moved(
    op: str, sent: int, recvd: int, nprocs: int, is_root: bool
) -> int:
    """Recover the per-rank payload size from a COLLEXIT's byte counters."""
    others = max(1, nprocs - 1)
    if op == "MPI_Barrier":
        return 0
    if op == "MPI_Alltoall":
        return sent // others
    if op in ("MPI_Allreduce", "MPI_Allgather"):
        return sent
    if op in ("MPI_Bcast", "MPI_Scatter"):
        return (sent // others) if is_root else recvd
    if op in ("MPI_Reduce", "MPI_Gather"):
        return (recvd // others) if is_root else sent
    if op == "MPI_Scan":
        return max(sent, recvd)
    raise AnalysisError(f"unknown collective {op!r}")


def _enclosing_user_region(
    op: MPIOpInstance, callpaths: CallPathRegistry, regions: RegionRegistry
) -> Optional[str]:
    """Innermost non-MPI region on the op's call path."""
    cpid = callpaths.path(op.cpid).parent
    while cpid != ROOT_PATH:
        name = regions.name_of(callpaths.path(cpid).region)
        if not is_mpi_region(name):
            return name
        cpid = callpaths.path(cpid).parent
    return None


def _op_actions(
    op: MPIOpInstance, rank: int, comm_sizes: Dict[int, int]
) -> List[Action]:
    """Translate one MPI op instance of *rank* into replayable actions."""
    name = op.op_name
    coll = op.coll
    if coll is not None:
        if name == "MPI_Comm_split":
            # The created communicator's membership is not recorded in the
            # trace; replay the operation's synchronization effect (it
            # behaves like a small allgather) as a barrier.
            name = "MPI_Barrier"
        nprocs = comm_sizes.get(coll.comm)
        if nprocs is None:
            raise AnalysisError(f"collective on unknown communicator {coll.comm}")
        size = invert_bytes_moved(
            name, coll.sent, coll.recvd, nprocs=nprocs, is_root=coll.root == rank
        )
        return [CollectiveAction(name, coll.comm, coll.root, size)]
    if name == "MPI_Sendrecv":
        if len(op.sends) != 1 or len(op.recvs) != 1:
            raise AnalysisError("sendrecv op without exactly one send and recv")
        send, recv = op.sends[0], op.recvs[0]
        return [
            SendrecvAction(
                dest_global=send.dest,
                send_size=send.size,
                send_tag=send.tag,
                source_global=recv.source,
                recv_tag=recv.tag,
                comm=send.comm,
            )
        ]
    actions: List[Action] = []
    for send in op.sends:
        actions.append(
            SendAction(
                dest_global=send.dest,
                size=send.size,
                tag=send.tag,
                comm=send.comm,
                synchronous=(name == "MPI_Ssend"),
                nonblocking=(name == "MPI_Isend"),
            )
        )
    for recv in op.recvs:
        actions.append(RecvAction(source_global=recv.source, tag=recv.tag, comm=recv.comm))
    if name == "MPI_Waitall":
        actions.append(WaitSendsAction(all_pending=True))
    elif name == "MPI_Wait" and not op.recvs:
        actions.append(WaitSendsAction(all_pending=False))
    # MPI_Irecv instances carry nothing (their RECV lands in the wait).
    return actions


def extract_skeleton(
    result: AnalysisResult,
    source_speed: Dict[int, float],
) -> ProgramSkeleton:
    """Extract the skeleton of an analyzed run.

    Parameters
    ----------
    result:
        The analysis of the source run (its timelines drive extraction).
    source_speed:
        Rank → CPU speed factor of the *source* machine, used later to
        rescale compute segments (``target_time = source_time × source_speed
        / target_speed``).
    """
    skeleton = ProgramSkeleton(
        communicators=dict(result.definitions.communicators),
        source_speed=dict(source_speed),
    )
    comm_sizes = {
        cid: len(ranks) for cid, (_name, ranks) in skeleton.communicators.items()
    }
    callpaths = result.callpaths
    regions = result.definitions.regions

    for rank, timeline in result.timelines.items():
        if rank not in source_speed:
            raise ConfigurationError(f"no source CPU speed for rank {rank}")
        actions: List[Action] = []
        cursor = timeline.first_time
        current_region: Optional[str] = None
        for op in timeline.mpi_ops:
            # The compute gap leading up to an op is attributed to that
            # op's enclosing region, so the region switch comes first.
            region = _enclosing_user_region(op, callpaths, regions)
            if region != current_region:
                actions.append(RegionAction(region or "untracked"))
                current_region = region
            gap = op.enter - cursor
            if gap > 0:
                actions.append(ComputeAction(gap))
            cursor = max(cursor, op.exit)
            actions.extend(_op_actions(op, rank, comm_sizes))
        tail = timeline.last_time - cursor
        if tail > 0:
            actions.append(ComputeAction(tail))
        skeleton.actions[rank] = actions
    return skeleton


def skeleton_from_run(run_result, analysis: Optional[AnalysisResult] = None) -> ProgramSkeleton:
    """Extract a skeleton directly from a :class:`RunResult`.

    Analyzes the run first when *analysis* is not supplied (hierarchical
    synchronization), and reads the source CPU speeds off the placement.
    """
    if analysis is None:
        analysis = analyze(run_result)
    speeds = {
        slot.rank: slot.cpu.speed_factor for slot in run_result.placement.slots
    }
    return extract_skeleton(analysis, speeds)
