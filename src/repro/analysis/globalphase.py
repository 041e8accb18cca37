"""The columnar global phase: matching, patterns and severities by array passes.

Everything the replay does after the local phase is a pure function of the
admitted ranks' op tables (:mod:`repro.analysis.optable`), each read whole,
and no op, record, pair or collective instance is ever made an object:

* **matching** — the SEND and RECV rows of every op are gathered
  rank-major in trace order, each with its op's enter, exit and call path;
  one ``lexsort`` over ``(source, destination, tag, communicator, side)``
  lines up every channel's sends before its receives, and the *k*-th
  receive of a run takes the run's *k*-th send.  Pairs come out in
  receiver-major receive order; the leftovers are the unmatched counts, and
  the lowest unmatched receive row is the strict starved-receive error;
* **point-to-point patterns** — the Late Sender / Late Receiver waits and
  the grid predicate are ufuncs over the pair columns; Wrong Order is an
  exclusive running maximum of send stamps per ``(receiver, communicator)``;
  the clock-condition checker takes the pairs' node and stamp columns;
* **collectives** — a member's instance is ``(communicator, its running
  count on it)``; members are sorted by ``(communicator, index, rank)`` and
  last enter, spans-metahosts, the causing metahost (lowest rank on a tie),
  the root and every wait are ``reduceat`` passes.  An instance with
  members missing (excluded or unadmitted ranks) is evaluated over those present;
* **severities** — each metric's hits are summed exactly per cell
  (:func:`~repro.analysis.severity.exact_expansion`) and enter the cube and
  the grid breakdown in the order the object-wise reference meets them
  (pairs receiver-major, instances by ``(communicator, index)``, members by
  rank), so the results are equal to the reference's down to dict order.

The object-wise definitions — :mod:`repro.analysis.matching` and
:mod:`repro.analysis.patterns`, driven by the buffered reference analyzer —
are the oracle: ``tests/test_global_phase.py`` holds the two together,
interrupted runs included.  They take the match accounting (:class:`MatchStats`, the
metadata byte sizes) from this module; nothing here imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.instances import OpTable, ProcessTimeline
from repro.analysis.patterns.base import (
    BARRIER_COMPLETION,
    COLLECTIVE,
    COMMUNICATION,
    EARLY_REDUCE,
    EARLY_SCAN,
    GRID_LATE_RECEIVER,
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    GRID_WAIT_AT_NXN,
    IDLE_THREADS,
    LATE_BROADCAST,
    LATE_RECEIVER,
    LATE_SENDER,
    LATE_SENDER_WRONG_ORDER,
    MPI,
    N_TO_1_OPS,
    NXN_COMPLETION,
    NXN_OPS,
    ONE_TO_N_OPS,
    P2P,
    PREFIX_OPS,
    SYNC_REGIONS,
    SYNCHRONIZATION,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
    classify_region,
)
from repro.analysis.result import GridPairBreakdown
from repro.analysis.severity import Partials, SeverityCube, exact_expansion
from repro.analysis.severity_timeline import SeverityTimeline
from repro.clocks.condition import ClockConditionChecker
from repro.errors import AnalysisError
from repro.ids import node_of
from repro.trace.archive import Definitions

#: Bytes of metadata the replay ships per matched message
#: (send-enter time, send time, sender location, call path, sizes).
PAIR_METADATA_BYTES = 48
#: Bytes each member contributes to a collective gather (enter time + ids).
COLLECTIVE_MEMBER_BYTES = 16


@dataclass
class MatchStats:
    """What one replay's matching found, and the metadata bytes it shipped."""

    matched: int = 0
    unmatched_sends: int = 0
    unmatched_recvs: int = 0
    collective_instances: int = 0
    metadata_bytes: int = 0


#: Structural metrics an MPI op's duration is charged to, by region class.
_BASE_METRICS = {
    P2P: (MPI, COMMUNICATION, P2P),
    COLLECTIVE: (MPI, COMMUNICATION, COLLECTIVE),
    SYNCHRONIZATION: (MPI, SYNCHRONIZATION),
    None: (MPI,),
}

#: Most ops of consecutive ranks whose base metrics one set of array
#: passes charges (a larger rank is a slice alone); results never depend on it.
_SLICE_OPS = 1 << 14

#: What a collective's wait states depend on, by region name.
_NXN, _BARRIER, _N_TO_1, _ONE_TO_N, _PREFIX = range(1, 6)
_COLLECTIVE_KINDS = (
    (NXN_OPS, _NXN),
    (SYNC_REGIONS, _BARRIER),
    (N_TO_1_OPS, _N_TO_1),
    (ONE_TO_N_OPS, _ONE_TO_N),
    (PREFIX_OPS, _PREFIX),
)


def global_phase(
    definitions: Definitions,
    timelines: Dict[int, ProcessTimeline],
    allow_unmatched: bool,
    timeline: Optional[SeverityTimeline] = None,
) -> Tuple[SeverityCube, GridPairBreakdown, ClockConditionChecker, MatchStats]:
    """Match, search patterns and accumulate over every admitted rank's
    whole tables; see the module docstring.

    *allow_unmatched* counts a receive whose send is in no admitted rank
    (degraded replay, an interrupted local phase) instead of raising the
    strict starved-receive error.  Pattern hits and the structural MPI-time
    metrics are also charged to *timeline* when one is given.
    """
    ranks = sorted(timelines)
    tables = {rank: timelines[rank].mpi_ops for rank in ranks}
    machine = np.zeros(ranks[-1] + 1, np.int64)
    for rank in ranks:
        machine[rank] = timelines[rank].location.machine
    cube = SeverityCube()
    grid_pairs = GridPairBreakdown()
    stats = MatchStats()

    def charge(metric, hits, cpid, rank, enter, exit, value) -> None:
        """Rows *hits* of the columns, each *value* seconds of *metric* at
        ``(cpid, rank)`` waited inside ``[enter, exit]``."""
        rows = np.flatnonzero(hits)
        if not len(rows):
            return
        cpid, rank, value = cpid[rows], rank[rows], value[rows]
        for path, process, partials in _sum_cells(cpid, rank, value):
            cube.add_expansion(metric, path, process, partials)
        if timeline is not None:
            timeline.add_columns((metric,), cpid, rank, enter[rows], exit[rows], value)

    _local_metrics(timelines, cube, timeline, charge)
    pairs = _point_to_point(tables, machine, allow_unmatched, charge, grid_pairs, stats)
    _collectives(tables, machine, definitions, charge, grid_pairs, stats)
    # Last, so that the one per-pair product is not alive during the passes.
    return cube, grid_pairs, _stamps(timelines, *pairs), stats


# -- shared array idioms -------------------------------------------------------


def _runs(*keys: np.ndarray, order: Optional[np.ndarray] = None):
    """Runs of equal keys in columns sorted by them — as they stand, or when
    read through *order*: ``(each run's first row, each row's run)``."""
    new = np.zeros(len(keys[0]), bool)
    new[:1] = True
    for key in keys:
        if order is not None:
            key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new), np.cumsum(new) - 1


def _sum_cells(
    a: np.ndarray, b: np.ndarray, values: np.ndarray
) -> Iterator[Tuple[int, int, Partials]]:
    """``(a, b, exact sum of values)`` per distinct ``(a, b)``, cells in the
    order their first rows come: the dict order one ``add`` per row leaves."""
    order = np.lexsort((b, a))
    starts, _ = _runs(a, b, order=order)
    # lexsort is stable: a run's first element is the cell's first row.
    first = order[starts]
    bounds = starts.tolist() + [len(order)]
    ordered = values[order].tolist()
    cells = zip(a[first].tolist(), b[first].tolist(), bounds, bounds[1:])
    for _, (x, y, lo, hi) in sorted(zip(first.tolist(), cells)):
        yield x, y, exact_expansion(ordered[lo:hi])


def _gather(
    tables: Dict[int, OpTable], kind: str, fields: slice,
    of_op: Sequence[str] = ("cpid", "enter", "exit"), last: bool = False,
) -> List[np.ndarray]:
    """Rows of one record kind, rank-major in trace order.

    Columns: the owning op's rank and its *of_op* columns, then the record's
    own *fields* in their trace dtypes.  *last* keeps only an op's final
    record (a later COLLEXIT of the same op replaces an earlier one).
    Row-level on purpose: whole op columns are never concatenated.
    """
    parts = []
    for rank, ops in tables.items():
        start, columns = getattr(ops, kind)
        if last:
            owner = np.flatnonzero(start[1:] > start[:-1])
            rows = start[1:][owner] - 1
            record = [column[rows] for column in columns[fields]]
        else:
            owner = np.repeat(np.arange(len(ops)), np.diff(start))
            record = list(columns[fields])
        parts.append((
            np.full(len(owner), rank, np.int32),
            *[getattr(ops, name)[owner] for name in of_op],
            *record,
        ))
    return [np.concatenate(column) for column in zip(*parts)]


def _install_grid(breakdown: GridPairBreakdown, *entries) -> None:
    """Sum ``(metric, hit rows, causing machine, waiting machine, seconds)``
    entries into *breakdown*: metrics in the order of their first hit, cells
    in first-encounter order — the printed order of the reference engine.
    Each metric is installed whole, once, so its cells are written directly.
    """
    entries = [entry for entry in entries if len(entry[1])]
    for metric, rows, causer, waiter, value in sorted(entries, key=lambda e: e[1][0]):
        breakdown._partials[metric] = {
            (c, w): partials
            for c, w, partials in _sum_cells(causer[rows], waiter[rows], value[rows])
        }


# -- per-rank metrics ----------------------------------------------------------


def _local_metrics(timelines, cube, timeline, charge) -> None:
    """Structural MPI time, charged in slices of whole ranks of at most
    :data:`_SLICE_OPS` ops, and fork-join idling."""
    names = {r: n for process in timelines.values() for r, n in process.mpi_ops.names.items()}
    metrics_of = {region: _BASE_METRICS[classify_region(name)] for region, name in names.items()}
    def charge_slice(parts) -> None:
        rank, cpid, region, enter, exit = (np.concatenate(column) for column in zip(*parts))
        kept = exit - enter > 0.0
        rank, cpid, region, enter, exit = (c[kept] for c in (rank, cpid, region, enter, exit))
        duration = exit - enter
        # A call path has one region, so these are per-path sums.
        region_of = np.zeros(int(cpid.max(initial=0)) + 1, np.int64)
        region_of[cpid] = region
        region_of = region_of.tolist()
        for path, process, partials in _sum_cells(cpid, rank, duration):
            for metric in metrics_of[region_of[path]]:
                cube.add_expansion(metric, path, process, partials)
        for metrics in sorted(set(metrics_of.values())) if timeline is not None else ():
            rows = np.isin(region, [r for r, charged in metrics_of.items() if charged == metrics])
            timeline.add_columns(metrics, *(c[rows] for c in (cpid, rank, enter, exit, duration)))

    parts, idle_parts = [], []
    for rank, process in sorted(timelines.items()):
        ops, count = process.mpi_ops, len(process.mpi_ops)
        if parts and sum(len(part[0]) for part in parts) + count > _SLICE_OPS:
            charge_slice(parts)
            parts = []
        parts.append((np.full(count, rank, np.int32), ops.cpid, ops.region, ops.enter, ops.exit))
        forks = len(process.omp_regions)
        if forks:
            idle_parts.append((np.full(forks, rank), *process.omp_regions.columns))
    charge_slice(parts)
    if idle_parts:
        columns = (np.concatenate(column) for column in zip(*idle_parts))
        rank, cpid, enter, exit, nthreads, busy_sum, busy_max = columns
        idle = nthreads * busy_max - busy_sum
        charge(IDLE_THREADS, idle > 0.0, cpid, rank, enter, exit, idle)


# -- point-to-point ------------------------------------------------------------


def _match(sends: Sequence[np.ndarray], recvs: Sequence[np.ndarray]):
    """FIFO matching per channel as one sort.

    *sends* and *recvs* are ``(source, destination, tag, communicator)``
    columns, rows rank-major in trace order.  Returns the matched pairs as
    ``(send rows, recv rows)`` in recv-row order.
    """
    count = len(sends[0])
    keys = [np.concatenate(pair) for pair in zip(sends, recvs)]
    side = np.arange(len(keys[0])) >= count
    order = np.lexsort((side, *keys[::-1]))
    starts, run = _runs(*keys, order=order)
    del keys
    receiving = side[order]
    sent = np.add.reduceat(~receiving, starts, dtype=np.int64)  # sends per run
    at = np.flatnonzero(receiving)
    run = run[at]
    # A receive's number among its run's receives; it has a send iff < sent.
    k = at - starts[run] - sent[run]
    matched = k < sent[run]
    recv_rows = order[at[matched]] - count
    send_rows = order[starts[run[matched]] + k[matched]]
    by_recv = np.argsort(recv_rows)
    return send_rows[by_recv], recv_rows[by_recv]


def _wrong_order(receiver: np.ndarray, comm: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """Pairs (in receive order) sent before the latest-sent message the same
    receiver had already retrieved on the same communicator."""
    wrong = np.zeros(len(sent), bool)
    order = np.lexsort((comm, receiver))
    starts, _ = _runs(receiver, comm, order=order)
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(order)]):
        rows = order[lo:hi]
        stamps = sent[rows]
        wrong[rows[1:]] = stamps[1:] < np.maximum.accumulate(stamps)[:-1]
    return wrong


def _point_to_point(
    tables, machine, allow_unmatched, charge, grid_pairs, stats
) -> Tuple[np.ndarray, ...]:
    """Match the sends and receives, charge the five point-to-point
    patterns and the grid breakdown.

    Returns the matched pairs' ``(sender, receiver, send stamp, receive
    stamp)`` columns in receive order; everything else dies with this scope.
    """
    s_rank, s_cpid, s_enter, s_exit, s_time, dest, s_tag, s_comm = _gather(
        tables, "sends", slice(0, 4)
    )
    r_rank, r_cpid, r_enter, r_exit, r_time, source, r_tag, r_comm = _gather(
        tables, "recvs", slice(0, 4)
    )
    send, recv = (
        _match((s_rank, dest, s_tag, s_comm), (source, r_rank, r_tag, r_comm))
        if len(s_rank) and len(r_rank)
        else (np.empty(0, np.int64),) * 2
    )
    stats.matched = len(recv)
    stats.unmatched_sends = len(s_rank) - len(recv)
    stats.unmatched_recvs = len(r_rank) - len(recv)
    stats.metadata_bytes += len(recv) * PAIR_METADATA_BYTES
    if stats.unmatched_recvs and not allow_unmatched:
        starved = np.ones(len(r_rank), bool)
        starved[recv] = False
        row = starved.argmax()  # the first in receiver-major replay order
        raise AnalysisError(
            f"rank {r_rank[row]}: RECV from {source[row]} "
            f"(tag {r_tag[row]}, comm {r_comm[row]}) has no matching SEND"
        )

    sender, receiver = s_rank[send], r_rank[recv]
    s_enter, s_exit, s_time = s_enter[send], s_exit[send], s_time[send]
    r_enter, r_exit, r_time = r_enter[recv], r_exit[recv], r_time[recv]
    late_sender = np.minimum(s_enter, r_exit) - r_enter
    late_receiver = np.minimum(r_enter, s_exit) - s_enter
    from_machine, to_machine = machine[sender], machine[receiver]
    crosses = from_machine != to_machine
    waiting = late_sender > 0.0
    at_receiver = (r_cpid[recv], receiver, r_enter, r_exit, late_sender)
    charge(LATE_SENDER, waiting, *at_receiver)
    charge(GRID_LATE_SENDER, waiting & crosses, *at_receiver)
    charge(
        LATE_SENDER_WRONG_ORDER,
        waiting & _wrong_order(receiver, r_comm[recv], s_time),
        *at_receiver,
    )
    blocked = late_receiver > 0.0
    at_sender = (s_cpid[send], sender, s_enter, s_exit, late_receiver)
    charge(LATE_RECEIVER, blocked, *at_sender)
    charge(GRID_LATE_RECEIVER, blocked & crosses, *at_sender)
    _install_grid(
        grid_pairs,
        (GRID_LATE_SENDER, np.flatnonzero(waiting & crosses),
         from_machine, to_machine, late_sender),
        (GRID_LATE_RECEIVER, np.flatnonzero(blocked & crosses),
         to_machine, from_machine, late_receiver),
    )
    return sender, receiver, s_time, r_time


def _stamps(timelines, sender, receiver, sent, received) -> ClockConditionChecker:
    """The matched pairs' clock-condition stamps, as the checker's columns."""
    # NodeId sorts by (machine, node), so a node's place among the sorted
    # nodes stands for both.
    nodes = sorted({node_of(process.location) for process in timelines.values()})
    place_of = {node: place for place, node in enumerate(nodes)}
    place = np.zeros(max(timelines) + 1, np.int64)
    for rank, process in timelines.items():
        place[rank] = place_of[node_of(process.location)]
    return ClockConditionChecker(nodes, place[sender], place[receiver], sent, received)


# -- collectives ---------------------------------------------------------------


def _collectives(tables, machine, definitions, charge, grid_pairs, stats) -> None:
    """Group the COLLEXIT records into instances and charge the nine
    collective patterns and the grid breakdown."""
    rank, op_region, cpid, enter, exit, region, comm, root = _gather(
        tables, "colls", slice(1, 4), ("region", "cpid", "enter", "exit"), last=True
    )
    members = len(rank)
    stats.metadata_bytes += members * COLLECTIVE_MEMBER_BYTES
    if not members:
        return
    # A member's instance on its communicator is its running count there.
    by_stream = np.lexsort((comm, rank))
    starts, run = _runs(rank, comm, order=by_stream)
    index = np.empty(members, np.int64)
    index[by_stream] = np.arange(members) - starts[run]
    order = np.lexsort((rank, index, comm))
    rank, op_region, cpid, enter, exit, region, comm, root, index = (
        column[order]
        for column in (rank, op_region, cpid, enter, exit, region, comm, root, index)
    )
    starts, instance = _runs(comm, index)
    stats.collective_instances = len(starts)
    expected = region[starts][instance]  # what the lowest-rank member recorded
    if (region != expected).any():
        # The first member, rank-major in trace order, that disagrees.
        mismatched = np.flatnonzero(region != expected)
        row = mismatched[order[mismatched].argmin()]
        raise AnalysisError(
            f"collective mismatch on comm {comm[row]} instance {index[row]}: "
            f"rank {rank[row]} recorded region {region[row]}, others {expected[row]}"
        )

    kinds = np.array([
        next((code for names, code in _COLLECTIVE_KINDS if name in names), 0)
        for name in definitions.regions.names()
    ])
    kind = kinds[op_region[starts]]  # per instance: its lowest-rank member's call
    where = machine[rank]
    last = np.maximum.reduceat(enter, starts)[instance]
    spans = np.minimum.reduceat(where, starts) != np.maximum.reduceat(where, starts)
    # The causing metahost hosts the last arriver, the lowest rank on a tie.
    latest = np.where(enter == last, np.arange(members), members)
    causer = where[np.minimum.reduceat(latest, starts)][instance]
    wait = np.minimum(last, exit) - enter
    completion = exit - np.maximum(last, enter)
    at_member = (cpid, rank, enter, exit)
    grid = []
    for code, waits, grid_waits, completes in (
        (_NXN, WAIT_AT_NXN, GRID_WAIT_AT_NXN, NXN_COMPLETION),
        (_BARRIER, WAIT_AT_BARRIER, GRID_WAIT_AT_BARRIER, BARRIER_COMPLETION),
    ):
        of_kind = (kind == code)[instance]
        waiting = of_kind & (wait > 0.0)
        across = waiting & spans[instance]
        charge(waits, waiting, *at_member, wait)
        charge(grid_waits, across, *at_member, wait)
        charge(completes, of_kind & (completion > 0.0), *at_member, completion)
        grid.append((grid_waits, np.flatnonzero(across), causer, where, wait))
    _install_grid(grid_pairs, *grid)

    # Rooted operations: an absent root (excluded, or never admitted) leaves
    # -inf behind, which no wait survives.
    is_root = rank == root[starts][instance]
    others_last = np.maximum.reduceat(np.where(is_root, -np.inf, enter), starts)
    early = np.minimum(others_last[instance], exit) - enter
    charge(
        EARLY_REDUCE, (kind == _N_TO_1)[instance] & is_root & (early > 0.0),
        *at_member, early,
    )
    root_enter = np.maximum.reduceat(np.where(is_root, enter, -np.inf), starts)
    late = np.minimum(root_enter[instance], exit) - enter
    charge(
        LATE_BROADCAST, (kind == _ONE_TO_N)[instance] & ~is_root & (late > 0.0),
        *at_member, late,
    )

    # Early Scan waits for the slowest member at or below one's own place in
    # communicator-rank order, which the definitions document holds.
    rows: List[int] = []
    waits = []
    bounds = starts.tolist() + [members]
    for i in np.flatnonzero(kind == _PREFIX).tolist():
        lo, hi = bounds[i], bounds[i + 1]
        present = rank[lo:hi].tolist()
        row_of = dict(zip(present, range(lo, hi)))
        entry = definitions.communicators.get(int(comm[lo]))
        # An unknown communicator falls back to global-rank order.
        ordered = [row_of[r] for r in (entry and entry[1]) or present if r in row_of]
        prefix_last = np.maximum.accumulate(enter[ordered])
        waits.append(np.minimum(prefix_last, exit[ordered]) - enter[ordered])
        rows += ordered
    if rows:
        wait = np.concatenate(waits)
        charge(EARLY_SCAN, wait > 0.0, cpid[rows], rank[rows], enter[rows], exit[rows], wait)
