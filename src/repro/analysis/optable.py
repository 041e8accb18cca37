"""The columnar local phase: a batch of ranks' trace blobs → op tables, by array passes.

:func:`build_tables` computes, for every rank of a batch, what the
sequential :func:`~repro.analysis.instances.build_timeline` computes —
synchronized stamps, ENTER/EXIT pairing, call paths, exclusive time,
visits, completed MPI operations with their records, fork-join regions —
without one Python object per event, and with one set of array passes per
batch, not per rank.  The batch's records are decoded into per-kind arrays,
rank after rank (:func:`repro.trace.encoding.decode_batch`), and everything
after is array work over batch-wide event indices, which order the ranks
as well as each rank's events:

* nesting depth is one cumulative sum over the batch: every consistent
  rank starts and ends at depth 0;
* frames are paired by cumulative depth: a stable sort of ENTERs and of
  EXITs by nesting level lines the k-th ENTER of a level up with its EXIT;
* a frame's parent, and the frame a SEND/RECV/COLLEXIT/OMPREGION record
  sits in, is the last ENTER one level up (at that level) before it — one
  ``searchsorted`` over ``level * events + index`` keys;
* call paths are interned level by level, the rank in the key of the top
  level so that no two ranks share one, and numbered in first-ENTER order,
  i.e. rank after rank exactly as the sequential walk meets them;
* child and exclusive time are ``np.bincount`` sums over frames in EXIT
  order — the sequential loop's additions in the sequential loop's order,
  hence the same floats; ``visits`` and ``exclusive_time`` keep its dict
  insertion orders (first ENTER, first EXIT).

Each rank's result is then cut out of the batch: a
:class:`~repro.analysis.instances.ProcessTimeline` whose ``mpi_ops`` and
``omp_regions`` are an :class:`~repro.analysis.instances.OpTable` and an
:class:`~repro.analysis.instances.OmpTable` over slices of the batch's
columns — the columns the sequential builder writes, which the global phase
(:mod:`repro.analysis.globalphase`) and every result consumer read.

A rank the passes find inconsistent — undecodable, unbalanced, a record
outside its frame, an unknown region — is set aside and the passes run
again over the others, so it reaches nothing of theirs.  The sequential
builder walks it once more, and its error is the canonical one: strict
mode raises it, degraded mode reports it as the rank's exclusion reason.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.analysis.instances import (
    OmpTable,
    OpTable,
    ProcessTimeline,
    Records,
    build_timeline,
)
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError, EncodingError, ReproError, TraceError
from repro.ids import Location
from repro.trace.encoding import (
    RecordScan,
    decode_batch,
    header_rank,
    iter_events,
    scan_records,
)
from repro.trace.events import EventKind
from repro.trace.regions import RegionRegistry, is_mpi_region

class RankTrace(NamedTuple):
    """One admitted rank, as the local phase reads it."""

    rank: int
    location: Location
    blob: bytes
    converter: LinearConverter
    #: The blob's grammar walk, when admission has made it (None: walk here).
    scan: Optional[RecordScan] = None


def build_tables(
    traces: Sequence[RankTrace], callpaths: CallPathRegistry, regions: RegionRegistry
) -> List[Union[ProcessTimeline, ReproError]]:
    """The local phase of a batch of ranks; see the module docstring.

    Returns, per trace in order, its timeline — equal, field for field, to
    ``build_timeline`` over its decoded events, dict orders included, with
    ``mpi_ops`` / ``omp_regions`` as tables — or the error the sequential
    builder raises for it.  The call paths of the ranks that succeed enter
    *callpaths* in the order of *traces*, as the sequential builder run
    rank after rank would intern them; nothing enters for a rank that fails.
    """
    outcome: List[Union[ProcessTimeline, ReproError, None]] = [None] * len(traces)
    pending: List[Tuple[int, np.ndarray]] = []  # (position, record offsets)
    for position, trace in enumerate(traces):
        scan = trace.scan if trace.scan is not None else scan_records(trace.blob)
        try:
            header_rank(trace.blob)
            if scan.error:
                raise EncodingError(scan.error)
        except EncodingError as exc:
            outcome[position] = _canonical_error(trace, regions, exc)
            continue
        pending.append((position, scan.offsets))
    while pending:
        try:
            built = _array_passes(
                [traces[position] for position, _ in pending],
                [offsets for _, offsets in pending],
                callpaths,
                regions,
            )
        except _Inconsistent as exc:
            for index in exc.indices:
                position = pending[index][0]
                trace = traces[position]
                outcome[position] = _canonical_error(
                    trace,
                    regions,
                    AnalysisError(f"rank {trace.rank}: trace is structurally inconsistent"),
                )
            pending = [entry for index, entry in enumerate(pending) if index not in exc.indices]
            continue
        for (position, _), timeline in zip(pending, built):
            outcome[position] = timeline
        break
    return outcome  # type: ignore[return-value]


def _canonical_error(trace: RankTrace, regions: RegionRegistry, found: ReproError) -> ReproError:
    """What the sequential builder raises for *trace*: which defect a reader
    meets first is its definition.  *found* if it raises nothing."""
    try:
        build_timeline(
            trace.rank,
            trace.location,
            iter_events(trace.blob)[1],
            trace.converter,
            CallPathRegistry(),
            regions,
        )
    except ReproError as exc:
        return exc
    return found


class _Inconsistent(Exception):
    """The passes found these traces (indices into the batch) inconsistent."""

    def __init__(self, indices: Set[int]) -> None:
        super().__init__(sorted(indices))
        self.indices = indices


_ENTER, _EXIT, _SEND, _RECV, _COLLEXIT, _OMP = map(int, EventKind)


def _array_passes(traces, offsets, callpaths, regions) -> List[ProcessTimeline]:
    counts = np.array([len(where) for where in offsets], np.int64)
    kinds, stamps, records = decode_batch([trace.blob for trace in traces], offsets)
    # Two ufuncs, two roundings: the scalar ``time * slope + intercept``.
    stamps *= np.repeat([trace.converter.slope for trace in traces], counts)
    stamps += np.repeat([trace.converter.intercept for trace in traces], counts)
    first = np.cumsum(counts) - counts  # each trace's first event

    def trace_of(index: np.ndarray) -> np.ndarray:
        return np.searchsorted(first, index, side="right") - 1

    def reject(*event_sets: np.ndarray) -> None:
        """Set aside the traces the events of *event_sets* belong to."""
        indices = set(trace_of(np.concatenate(event_sets)).tolist())
        if indices:
            raise _Inconsistent(indices)

    f_enter, f_exit, f_region, f_parent, levels, placed, mismatched = _frames(
        kinds, records.pop(_ENTER)["region"], records.pop(_EXIT)["region"], first, counts, reject
    )
    del kinds  # a batch's transient arrays are the local phase's memory peak
    frames = len(f_enter)

    # -- call paths: interned level by level, numbered by first ENTER ----------
    f_path = np.empty(frames, np.int64)  # provisional ids, level-major
    path_first: List[np.ndarray] = []
    path_parent: List[np.ndarray] = []
    path_region: List[np.ndarray] = []
    paths = 0
    span = int(f_region.max()) + 1 if frames else 1
    for lo, hi in zip(levels[:-1], levels[1:]):
        if lo:
            parent_path = f_path[f_parent[lo:hi]]
            scope = parent_path + len(traces)
        else:  # the top level: a path is a region of one trace
            parent_path = np.full(hi - lo, -1)
            scope = trace_of(f_enter[lo:hi])
        _, first_frame, inverse = np.unique(
            scope * span + f_region[lo:hi], return_index=True, return_inverse=True
        )
        f_path[lo:hi] = paths + inverse
        path_first.append(f_enter[lo:hi][first_frame])
        path_parent.append(parent_path[first_frame])
        path_region.append(f_region[lo:hi][first_frame])
        paths += len(first_frame)
    first_enter = np.concatenate(path_first) if paths else np.empty(0, np.int64)
    order = np.argsort(first_enter)
    parents = np.concatenate(path_parent).tolist() if paths else []
    path_regions = np.concatenate(path_region).tolist() if paths else []
    names: Dict[int, str] = {}
    unknown = []
    for region in sorted(set(path_regions)):
        try:
            names[region] = regions.name_of(region)
        except TraceError:
            unknown.append(region)
    f_mpi = np.isin(f_region, [r for r, name in names.items() if is_mpi_region(name)])

    # -- records: each must sit in a frame of the right kind -------------------
    omp = records[_OMP]
    misplaced = [mismatched, f_enter[np.isin(f_region, unknown)]]
    for kind, (index, frame) in placed.items():
        outside = frame < 0
        inside = np.flatnonzero(~outside)
        if kind == _OMP:
            outside[inside] = f_region[frame[inside]] != omp["region"][inside]
        else:
            outside[inside] = ~f_mpi[frame[inside]]
        misplaced.append(index[outside])
    reject(*misplaced)

    # The batch is consistent: nothing below can fail, so interning is safe.
    cpid_of = [ROOT_PATH] * paths
    for path in order.tolist():
        parent = parents[path]
        cpid_of[path] = callpaths.intern(
            ROOT_PATH if parent < 0 else cpid_of[parent], path_regions[path]
        )
    f_cpid = np.take(np.array(cpid_of, np.int64), f_path)
    f_start = stamps[f_enter]
    f_end = stamps[f_exit]
    exclusive_sum, by_exit = _exclusive_time(f_start, f_end, f_exit, f_parent, f_path, paths)
    visit_count = np.bincount(f_path, minlength=paths).tolist()

    # -- ops: MPI frames in completion order, records grouped under them -------
    op_frames = np.flatnonzero(f_mpi)
    op_frames = op_frames[np.argsort(f_exit[op_frames])]
    ops = len(op_frames)
    op_of_frame = np.empty(frames, np.int64)
    op_of_frame[op_frames] = np.arange(ops)
    op_exit = f_exit[op_frames]

    def grouped(kind: int, *fields: str) -> Records:
        # Stable: an op's records stay in trace order.  Fancy indexing copies,
        # so no column keeps the gathered record block alive.
        index, frame = placed[kind]
        owner_op = op_of_frame[frame]
        order = np.argsort(owner_op, kind="stable")
        start = np.searchsorted(owner_op[order], np.arange(ops + 1))
        rows = records[kind]
        return start, (stamps[index][order], *[rows[name][order] for name in fields])

    sends = grouped(_SEND, "dest", "tag", "comm", "size")
    recvs = grouped(_RECV, "source", "tag", "comm", "size")
    colls = grouped(_COLLEXIT, "region", "comm", "root", "sent", "recvd")
    op_columns = (
        f_region[op_frames],
        f_cpid[op_frames],
        f_start[op_frames],
        f_end[op_frames],
    )
    omp_index, omp_frame = placed[_OMP]
    omp_columns = (
        f_cpid[omp_frame],
        f_start[omp_frame],
        stamps[omp_index],
        *[omp[name].copy() for name in ("nthreads", "busy_sum", "busy_max")],
    )

    # -- each trace's slice of the batch ---------------------------------------
    cut = np.append(first, len(stamps))
    op_bounds = np.searchsorted(op_exit, cut)
    omp_bounds = np.searchsorted(omp_index, cut).tolist()
    # Per kind, one column of every trace's record bounds rebased to its
    # first record, back to back: trace t's ops [a, b) own rows [a + t, b + t].
    inner, ops_of = op_bounds[1:-1], np.diff(op_bounds)
    kinds = []
    for start, columns in (sends, recvs, colls):
        bounds = np.insert(start, inner, start[inner])
        bounds -= np.repeat(start[op_bounds[:-1]], ops_of + 1)
        kinds.append((bounds, start[op_bounds].tolist(), columns))
    # The MPI regions each trace's ops are in, ascending.
    present = np.zeros((len(traces), span), bool)
    present[np.repeat(np.arange(len(traces)), ops_of), op_columns[0]] = True
    used_by, used = np.nonzero(present)
    used_bounds, used = np.searchsorted(used_by, np.arange(len(traces) + 1)).tolist(), used.tolist()
    op_bounds = op_bounds.tolist()
    path_trace = trace_of(first_enter)
    entered = order.tolist()
    entered_bounds = np.searchsorted(path_trace[order], np.arange(len(traces) + 1)).tolist()
    left = by_exit.tolist()
    left_bounds = np.searchsorted(path_trace[by_exit], np.arange(len(traces) + 1)).tolist()
    timelines = []
    for t, trace in enumerate(traces):
        a, b = op_bounds[t], op_bounds[t + 1]
        c, d = omp_bounds[t], omp_bounds[t + 1]
        count = int(counts[t])
        timelines.append(ProcessTimeline(
            rank=trace.rank,
            location=trace.location,
            first_time=float(stamps[cut[t]]) if count else 0.0,
            last_time=float(stamps[cut[t] + count - 1]) if count else 0.0,
            exclusive_time={
                cpid_of[path]: exclusive_sum[path]
                for path in left[left_bounds[t]:left_bounds[t + 1]]
            },
            visits={
                cpid_of[path]: visit_count[path]
                for path in entered[entered_bounds[t]:entered_bounds[t + 1]]
            },
            mpi_ops=OpTable(
                trace.rank,
                {r: names[r] for r in used[used_bounds[t]:used_bounds[t + 1]]},
                *[column[a:b] for column in op_columns],
                *[
                    (bounds[a + t:b + t + 1], tuple(column[at[t]:at[t + 1]] for column in columns))
                    for bounds, at, columns in kinds
                ],
            ),
            omp_regions=OmpTable(tuple(column[c:d] for column in omp_columns)),
            event_count=count,
        ))
    return timelines


def _frames(kinds, enter_regions, exit_regions, first, counts, reject):
    """ENTER/EXIT pairs of a batch; see the module docstring.

    Returns the frames' ENTER and EXIT indices, regions and parents (-1 at
    level 1), in (level, ENTER index) order; where each level starts (and
    where the last ends); per record kind, each record's index and the
    frame it sits in (-1: none); and the ENTERs whose EXIT names another
    region.  A trace whose depth goes negative or ends above 0 is
    *reject*-ed first: nothing else lines up without balance.
    """
    events = len(kinds)
    entering = kinds == _ENTER
    exiting = kinds == _EXIT
    # Depth after each event; once every trace balances, each starts at 0.
    depth = np.cumsum(entering.view(np.int8) - exiting.view(np.int8), dtype=np.int64)
    filled = np.flatnonzero(counts)
    if len(filled):
        start, last = first[filled], first[filled] + counts[filled] - 1
        # Until then a trace's own depth is counted from where it starts.
        base = np.where(start > 0, depth[start - 1], 0)
        low = np.minimum.reduceat(depth, start) - base
        reject(start[(low < 0) | (depth[last] != base)])
    enters = np.flatnonzero(entering)
    exits = np.flatnonzero(exiting)
    by_level = np.argsort(depth[enters], kind="stable")
    exit_by_level = np.argsort(depth[exits], kind="stable")
    f_enter = enters[by_level]
    f_exit = exits[exit_by_level]
    f_level = depth[f_enter]
    f_region = enter_regions[by_level].astype(np.int64)
    mismatched = f_enter[f_region != exit_regions[exit_by_level]]
    top = int(f_level[-1]) if len(f_level) else 0
    levels = np.searchsorted(f_level, np.arange(1, top + 2)).tolist()
    # The innermost frame open at event i, nested D deep, is the last frame
    # of level D entered before i: keys sort by level, then by ENTER index.
    keys = f_level * events + f_enter

    def frame_at(index: np.ndarray, level: np.ndarray) -> np.ndarray:
        return np.searchsorted(keys, level * events + index) - 1

    f_parent = frame_at(f_enter, f_level - 1)  # -1 at level 1
    placed = {}
    for kind in (_SEND, _RECV, _COLLEXIT, _OMP):
        index = np.flatnonzero(kinds == kind)
        placed[kind] = index, frame_at(index, depth[index])
    return f_enter, f_exit, f_region, f_parent, levels, placed, mismatched


def _exclusive_time(f_start, f_end, f_exit, f_parent, f_path, paths):
    """The sequential loop's sums, in its order: each path's exclusive time,
    and the paths in first-EXIT order."""
    exit_order = np.argsort(f_exit)
    duration = (f_end - f_start)[exit_order]  # frames in EXIT order from here on
    duration[duration < 0.0] = 0.0
    parent_x = f_parent[exit_order]
    nested = parent_x >= 0
    child_time = np.bincount(parent_x[nested], weights=duration[nested], minlength=len(f_exit))
    exclusive = duration
    exclusive -= child_time[exit_order]
    exclusive[~(exclusive > 0.0)] = 0.0
    path_x = f_path[exit_order]
    exclusive_sum = np.bincount(path_x, weights=exclusive, minlength=paths).tolist()
    exited, first_exit = np.unique(path_x, return_index=True)
    return exclusive_sum, exited[np.argsort(first_exit)]
