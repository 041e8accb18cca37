"""The collective cost model: when each member of a collective leaves.

The world calls :func:`exits_on_entry` once per member entry, and it returns
the exits that entry made known, so every member's exit time is computed
once, at the entry that decides it.  The models are deliberately simple
(logarithmic latency terms, bandwidth terms on the slowest link spanned by
the communicator) — the wait-state patterns depend on the *synchronization
semantics*, which are modeled exactly:

* barrier and n-to-n operations (allreduce, allgather, alltoall): every
  member leaves once the last one has entered (→ *Wait at Barrier* /
  *Wait at N×N*).
* 1-to-n operations (bcast, scatter): the root leaves after injecting its
  data; a non-root leaves once the root's binomial subtree reaches it, so
  never before the root has entered (→ *Late Broadcast*).
* n-to-1 operations (reduce, gather): a non-root leaves after injecting its
  data, at its own entry; the root once the last member has entered
  (→ *Early Reduce*).
* prefix operations (scan): comm rank i leaves once ranks 0..i have all
  entered (→ *Early Scan*).
"""

from __future__ import annotations

from math import ceil, log2
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import MPIUsageError
from repro.ids import Location
from repro.sim.transfer import SimParams
from repro.topology.metacomputer import Metacomputer

#: Collective operation names (the MPI region names recorded in traces).
BARRIER = "MPI_Barrier"
BCAST = "MPI_Bcast"
REDUCE = "MPI_Reduce"
ALLREDUCE = "MPI_Allreduce"
GATHER = "MPI_Gather"
ALLGATHER = "MPI_Allgather"
ALLTOALL = "MPI_Alltoall"
SCATTER = "MPI_Scatter"
SCAN = "MPI_Scan"

#: Operations with n-to-n synchronization semantics (Wait at N×N applies).
N_TO_N_OPS = frozenset({ALLREDUCE, ALLGATHER, ALLTOALL})
#: Operations with 1-to-n semantics (Late Broadcast applies).
ONE_TO_N_OPS = frozenset({BCAST, SCATTER})
#: Operations with n-to-1 semantics (Early Reduce applies).
N_TO_1_OPS = frozenset({REDUCE, GATHER})
#: Prefix operations: rank i depends on ranks 0..i (Early Scan applies).
PREFIX_OPS = frozenset({SCAN})

ALL_COLLECTIVES = frozenset(
    {BARRIER} | N_TO_N_OPS | ONE_TO_N_OPS | N_TO_1_OPS | PREFIX_OPS
)


def comm_alpha_beta(
    metacomputer: Metacomputer,
    locations: Sequence[Location],
    params: SimParams,
) -> tuple:
    """Worst-case per-stage latency (alpha) and inverse bandwidth (beta).

    Collective algorithms are dominated by their slowest hop; we use the
    most expensive link class spanned by the communicator.
    """
    alpha = 0.0
    inv_bw = 0.0
    machines = {loc.machine for loc in locations}
    if len(machines) > 1:
        machines_sorted = sorted(machines)
        for i, a in enumerate(machines_sorted):
            for b in machines_sorted[i + 1 :]:
                link = metacomputer.external_link(a, b)
                alpha = max(alpha, link.latency_s)
                inv_bw = max(inv_bw, 1.0 / link.bandwidth_bps)
    for machine in sorted(machines):
        link = metacomputer.internal_link(machine)
        alpha = max(alpha, link.latency_s)
        inv_bw = max(inv_bw, 1.0 / link.bandwidth_bps)
    return alpha * params.collective_alpha_factor, inv_bw


def _stages(nprocs: int) -> int:
    return max(1, ceil(log2(max(2, nprocs))))


def exits_on_entry(
    op: str,
    root: int,
    size: int,
    enter_times: Dict[int, float],
    released: Set[int],
    comm_rank: int,
    own_size: int,
    nprocs: int,
    cost: Tuple[float, float],
) -> List[Tuple[int, float]]:
    """The ``(comm rank, exit time)`` pairs that *comm_rank*'s entry made
    known, in release order.

    *enter_times* (comm rank → entry time) already holds the entry, made at
    ``enter_times[comm_rank]``; *size* is the largest payload entered so
    far and *own_size* the entering rank's; *released* holds the comm ranks
    whose exits are already known; *cost* is the communicator's
    ``(alpha, 1/bandwidth)`` from :func:`comm_alpha_beta`.  *op* and *root*
    are the caller's to check.  Members enter in time order, so the last
    entry is the latest: a completion exit counts from it.
    """
    alpha, inv_bw = cost
    now = enter_times[comm_rank]
    complete = len(enter_times) == nprocs
    if op in N_TO_1_OPS:
        # Non-roots inject and leave; the root waits for the slowest
        # contributor.
        exits = [] if comm_rank == root else [(comm_rank, now + alpha + own_size * inv_bw)]
        if complete:
            exits.append((root, now + _stages(nprocs) * (alpha + size * inv_bw)))
        return exits
    if op in ONE_TO_N_OPS:
        # Binomial tree from the root: the root leaves after injecting, and
        # a non-root once the root has entered and the tree has reached it.
        if comm_rank == root:
            exits = [(root, now + alpha + own_size * inv_bw)]
            waiting = [r for r in sorted(enter_times) if r != root]
        elif root in enter_times:
            exits, waiting = [], [comm_rank]
        else:
            return []
        stage_cost = alpha + size * inv_bw
        root_enter = enter_times[root]
        for r in waiting:
            depth = max(1, ((r - root) % nprocs).bit_length())
            exits.append((r, max(enter_times[r], root_enter) + depth * stage_cost))
        return exits
    if op in PREFIX_OPS:
        # Rank i's result depends on ranks 0..i: release the frontier of
        # complete prefixes, which ends at the first rank not yet entered.
        step = _stages(nprocs) * (alpha + size * inv_bw)
        prefix_max = float("-inf")
        exits = []
        for r in range(nprocs):
            enter = enter_times.get(r)
            if enter is None:
                break
            prefix_max = max(prefix_max, enter)
            if r not in released:
                exits.append((r, prefix_max + step))
        return exits
    if not complete:
        return []
    if op == BARRIER:
        # Dissemination barrier: one latency round per stage after the last
        # arrival.
        finish = now + _stages(nprocs) * alpha
    else:
        # Butterfly / recursive doubling: log(p) stages each moving the
        # payload (p times over for alltoall).
        volume_factor = nprocs if op == ALLTOALL else 1
        finish = now + _stages(nprocs) * (alpha + size * inv_bw) * volume_factor
    return [(r, finish) for r in range(nprocs)]


def split_exit(last_enter: float, nprocs: int, cost: Tuple[float, float]) -> float:
    """When an ``MPI_Comm_split`` whose last member entered at *last_enter*
    ends: its (color, key) exchange costs what an 8-byte allgather does."""
    alpha, inv_bw = cost
    return last_enter + _stages(nprocs) * (alpha + 8 * inv_bw)


def bytes_moved(op: str, size_bytes: int, nprocs: int, comm_rank: int, root: int) -> tuple:
    """(sent, received) byte counts recorded in a rank's COLLEXIT event.

    Mirrors the bookkeeping of EPILOG collective-exit records; the pattern
    analysis itself only needs the op semantics, but reports use the
    volumes.
    """
    if op == BARRIER:
        return (0, 0)
    if op in N_TO_N_OPS:
        if op == ALLTOALL:
            return (size_bytes * (nprocs - 1), size_bytes * (nprocs - 1))
        return (size_bytes, size_bytes * (nprocs - 1))
    if op in ONE_TO_N_OPS:
        if comm_rank == root:
            return (size_bytes * (nprocs - 1), 0)
        return (0, size_bytes)
    if op in N_TO_1_OPS:
        if comm_rank == root:
            return (0, size_bytes * (nprocs - 1))
        return (size_bytes, 0)
    if op in PREFIX_OPS:
        # Each rank forwards its prefix once and receives one contribution.
        sent = size_bytes if comm_rank < nprocs - 1 else 0
        recvd = size_bytes if comm_rank > 0 else 0
        return (sent, recvd)
    raise MPIUsageError(f"unknown collective operation {op!r}")
