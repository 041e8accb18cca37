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
from repro.analysis.instances import record_rows, require_tables
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
    cpid: int, callpaths: CallPathRegistry, regions: RegionRegistry
) -> Optional[str]:
    """Innermost non-MPI region on the call path of an op at *cpid*."""
    cpid = callpaths.path(cpid).parent
    while cpid != ROOT_PATH:
        name = regions.name_of(callpaths.path(cpid).region)
        if not is_mpi_region(name):
            return name
        cpid = callpaths.path(cpid).parent
    return None


def _op_actions(
    name: str, sends: List[tuple], recvs: List[tuple], coll: Optional[tuple],
    rank: int, comm_sizes: Dict[int, int],
) -> List[Action]:
    """Translate one MPI op of *rank*, given its record rows as the op table
    holds them, into replayable actions."""
    if coll is not None:
        _, _, comm, root, sent, recvd = coll
        if name == "MPI_Comm_split":
            # The created communicator's membership is not recorded in the
            # trace; replay the operation's synchronization effect (it
            # behaves like a small allgather) as a barrier.
            name = "MPI_Barrier"
        nprocs = comm_sizes.get(comm)
        if nprocs is None:
            raise AnalysisError(f"collective on unknown communicator {comm}")
        size = invert_bytes_moved(name, sent, recvd, nprocs=nprocs, is_root=root == rank)
        return [CollectiveAction(name, comm, root, size)]
    if name == "MPI_Sendrecv":
        if len(sends) != 1 or len(recvs) != 1:
            raise AnalysisError("sendrecv op without exactly one send and recv")
        (_, dest, send_tag, comm, size), (_, source, recv_tag, _, _) = sends[0], recvs[0]
        return [SendrecvAction(dest, size, send_tag, source, recv_tag, comm)]
    actions: List[Action] = [
        SendAction(dest, size, tag, comm, synchronous=(name == "MPI_Ssend"),
                   nonblocking=(name == "MPI_Isend"))
        for _, dest, tag, comm, size in sends
    ]
    actions += [RecvAction(source, tag, comm) for _, source, tag, comm, _ in recvs]
    if name == "MPI_Waitall":
        actions.append(WaitSendsAction(all_pending=True))
    elif name == "MPI_Wait" and not recvs:
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
    require_tables(result.timelines, "skeleton extraction", AnalysisError)
    skeleton = ProgramSkeleton(
        communicators=dict(result.definitions.communicators),
        source_speed=dict(source_speed),
    )
    comm_sizes = {
        cid: len(ranks) for cid, (_name, ranks) in skeleton.communicators.items()
    }
    callpaths = result.callpaths
    regions = result.definitions.regions
    #: cpid → the user region enclosing an op there.
    user_region: Dict[int, Optional[str]] = {}

    for rank, timeline in result.timelines.items():
        if rank not in source_speed:
            raise ConfigurationError(f"no source CPU speed for rank {rank}")
        ops = timeline.mpi_ops
        s, sends = record_rows(ops.sends)
        r, recvs = record_rows(ops.recvs)
        c, colls = record_rows(ops.colls)
        actions: List[Action] = []
        cursor = timeline.first_time
        current_region: Optional[str] = None
        columns = (ops.region.tolist(), ops.cpid.tolist(), ops.enter.tolist(), ops.exit.tolist())
        for i, (op_region, cpid, enter, exit) in enumerate(zip(*columns)):
            # The compute gap leading up to an op is attributed to that
            # op's enclosing region, so the region switch comes first.
            if cpid not in user_region:
                user_region[cpid] = _enclosing_user_region(cpid, callpaths, regions)
            region = user_region[cpid]
            if region != current_region:
                actions.append(RegionAction(region or "untracked"))
                current_region = region
            gap = enter - cursor
            if gap > 0:
                actions.append(ComputeAction(gap))
            cursor = max(cursor, exit)
            actions.extend(_op_actions(
                ops.names[op_region],
                sends[s[i]:s[i + 1]],
                recvs[r[i]:r[i + 1]],
                # An op's last COLLEXIT counts.
                colls[c[i + 1] - 1] if c[i + 1] > c[i] else None,
                rank,
                comm_sizes,
            ))
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
