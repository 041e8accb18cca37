"""The columnar local phase: one rank's trace blob → op tables, by array passes.

:func:`build_rank_tables` computes what the sequential
:func:`~repro.analysis.instances.build_timeline` computes — synchronized
stamps, ENTER/EXIT pairing, call paths, exclusive time, visits, completed
MPI operations with their records, fork-join regions — without one Python
object per event.  The trace is decoded into per-kind arrays
(:func:`repro.trace.encoding.decode_columns`), and everything after is
array work:

* frames are paired by cumulative depth: a stable sort of ENTERs and of
  EXITs by nesting level lines the k-th ENTER of a level up with its EXIT;
* a frame's parent, and the frame a SEND/RECV/COLLEXIT/OMPREGION record
  sits in, is the last ENTER one level up (at that level) before it — one
  ``searchsorted`` over ``level * events + index`` keys;
* call paths are interned level by level and numbered in first-ENTER
  order, i.e. exactly as the sequential walk meets them;
* child and exclusive time are ``np.bincount`` sums over frames in EXIT
  order — the sequential loop's additions in the sequential loop's order,
  hence the same floats; ``visits`` and ``exclusive_time`` keep its dict
  insertion orders (first ENTER, first EXIT).

The result is a :class:`~repro.analysis.instances.ProcessTimeline` whose
``mpi_ops`` and ``omp_regions`` are an :class:`OpTable` and an
:class:`OmpTable`: lazy sequences over numpy columns that make
:class:`~repro.analysis.instances.MPIOpInstance` /
:class:`~repro.analysis.instances.OmpRegionRecord` objects on read.  That
protocol is for result consumers: the replay's global phase
(:mod:`repro.analysis.globalphase`) reads the columns and never iterates a
table, and a retained result keeps the columns, not objects.

A trace the passes find inconsistent is walked again by the sequential
builder, whose error is the canonical one: strict mode raises it, degraded
mode reports it as the rank's exclusion reason.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.callpath import ROOT_PATH, CallPathRegistry
from repro.analysis.instances import (
    CollRecord,
    MPIOpInstance,
    OmpRegionRecord,
    ProcessTimeline,
    RecvRecord,
    SendRecord,
    build_timeline,
)
from repro.clocks.sync import LinearConverter
from repro.errors import AnalysisError, ReproError
from repro.ids import Location
from repro.trace.encoding import RecordScan, decode_columns, iter_events
from repro.trace.events import EventKind
from repro.trace.regions import RegionRegistry, is_mpi_region

#: Objects made per batch when a table is iterated: bounds the transient
#: column-to-list copies, large enough that per-batch numpy calls vanish.
_BATCH = 256

#: One kind of record in a table: (each op's first row, ``len(ops) + 1``
#: long; the record columns, rows grouped by owning op in trace order).
_Records = Tuple[np.ndarray, Tuple[np.ndarray, ...]]


class _LazySequence(Sequence):
    """List behaviour over columns: objects exist only while being read."""

    __slots__ = ()

    def span(self, lo: int, hi: int) -> Iterator:
        """Elements ``lo`` to ``hi``, made as the iterator advances."""
        raise NotImplementedError

    def __iter__(self) -> Iterator:
        return self.span(0, len(self))

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            lo, hi, step = index.indices(size)
            if step == 1:
                return list(self.span(lo, hi))
            return [self[i] for i in range(lo, hi, step)]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return next(self.span(index, index + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, _LazySequence)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)}>"


@dataclass(eq=False, repr=False, slots=True)
class OpTable(_LazySequence):
    """One rank's completed MPI operations, in completion (EXIT) order."""

    rank: int
    #: region id → name, for the MPI regions that occur.
    names: Dict[int, str]
    region: np.ndarray
    cpid: np.ndarray
    enter: np.ndarray
    exit: np.ndarray
    #: Index, in the rank's trace, of the EXIT that completed each op.
    exit_event: np.ndarray
    sends: _Records
    recvs: _Records
    colls: _Records

    def __len__(self) -> int:
        return len(self.region)

    def span(self, lo: int, hi: int) -> Iterator[MPIOpInstance]:
        rank = self.rank
        names = self.names
        for a in range(lo, hi, _BATCH):
            b = min(a + _BATCH, hi)
            sends, s = _rows(self.sends, a, b, SendRecord)
            recvs, r = _rows(self.recvs, a, b, RecvRecord)
            colls, c = _rows(self.colls, a, b, CollRecord)
            columns = zip(
                self.region[a:b].tolist(),
                self.cpid[a:b].tolist(),
                self.enter[a:b].tolist(),
                self.exit[a:b].tolist(),
            )
            for i, (region, cpid, enter, exit) in enumerate(columns):
                yield MPIOpInstance(
                    rank, region, names[region], cpid, enter, exit,
                    tuple(sends[s[i]:s[i + 1]]) if s[i + 1] > s[i] else (),
                    tuple(recvs[r[i]:r[i + 1]]) if r[i + 1] > r[i] else (),
                    # A later COLLEXIT of the same op replaces an earlier one.
                    colls[c[i + 1] - 1] if c[i + 1] > c[i] else None,
                )

    def remap(self, lookup: np.ndarray) -> None:
        """Renumber call paths: ``lookup[old cpid]`` is the new one."""
        self.cpid = np.take(lookup, self.cpid)


@dataclass(eq=False, repr=False, slots=True)
class OmpTable(_LazySequence):
    """One rank's fork-join region records, in trace order."""

    #: cpid, enter, exit, nthreads, busy_sum, busy_max — one array each.
    columns: Tuple[np.ndarray, ...]
    #: Index, in the rank's trace, of each OMPREGION record.
    event: np.ndarray

    def __len__(self) -> int:
        return len(self.event)

    def span(self, lo: int, hi: int) -> Iterator[OmpRegionRecord]:
        return map(
            partial(tuple.__new__, OmpRegionRecord),
            zip(*[column[lo:hi].tolist() for column in self.columns]),
        )

    def remap(self, lookup: np.ndarray) -> None:
        self.columns = (np.take(lookup, self.columns[0]),) + self.columns[1:]


def _rows(records: _Records, a: int, b: int, cls) -> Tuple[list, List[int]]:
    """Records of ops ``[a, b)`` as objects, and each op's bounds among them."""
    start, columns = records
    bounds = start[a:b + 1].tolist()
    lo, hi = bounds[0], bounds[-1]
    if hi == lo:
        return [], bounds
    # tuple.__new__ builds a NamedTuple without entering its Python __new__.
    make = partial(tuple.__new__, cls)
    rows = list(map(make, zip(*[column[lo:hi].tolist() for column in columns])))
    return rows, ([bound - lo for bound in bounds] if lo else bounds)


def build_rank_tables(
    rank: int,
    location: Location,
    blob: bytes,
    converter: LinearConverter,
    callpaths: CallPathRegistry,
    regions: RegionRegistry,
    scan: Optional[RecordScan] = None,
) -> ProcessTimeline:
    """One rank's local phase from its trace blob; see the module docstring.

    Equal, field for field, to ``build_timeline`` over the decoded events —
    dict orders and the order paths enter *callpaths* included — with
    ``mpi_ops`` / ``omp_regions`` as tables.  Nothing is interned into
    *callpaths* unless the whole trace is consistent.  *scan* is the grammar
    walk of *blob* when admission has already made it.
    """
    try:
        return _array_passes(rank, location, blob, converter, callpaths, regions, scan)
    except ReproError:
        # Undecodable or structurally inconsistent.  Which defect a reader
        # meets first is defined by the sequential walk, so let it say.
        build_timeline(
            rank, location, iter_events(blob)[1], converter, CallPathRegistry(), regions
        )
        raise


_ENTER, _EXIT, _SEND, _RECV, _COLLEXIT, _OMP = map(int, EventKind)


def _array_passes(rank, location, blob, converter, callpaths, regions, scan) -> ProcessTimeline:
    trace = decode_columns(blob, scan)
    kinds = trace.kinds
    events = len(kinds)
    inconsistent = AnalysisError(f"rank {rank}: trace is structurally inconsistent")
    # Two ufuncs, two roundings: the scalar ``time * slope + intercept``.
    stamps = trace.times * converter.slope + converter.intercept

    # -- frames: ENTER/EXIT pairs, in (level, ENTER index) order ---------------
    entering = kinds == _ENTER
    exiting = kinds == _EXIT
    depth = np.cumsum(entering.astype(np.int64) - exiting)  # after each event
    if events and (depth.min() < 0 or depth[-1] != 0):
        raise inconsistent
    enters = np.flatnonzero(entering)
    exits = np.flatnonzero(exiting)
    by_level = np.argsort(depth[enters], kind="stable")
    exit_by_level = np.argsort(depth[exits], kind="stable")
    f_enter = enters[by_level]
    f_exit = exits[exit_by_level]
    f_level = depth[f_enter]
    frames = len(f_enter)
    f_region = trace.records[_ENTER]["region"][by_level].astype(np.int64)
    if (f_region != trace.records[_EXIT]["region"][exit_by_level]).any():
        raise inconsistent
    # The innermost frame open at event i, nested D deep, is the last frame
    # of level D entered before i: keys sort by level, then by ENTER index.
    keys = f_level * events + f_enter

    def frame_at(index: np.ndarray, level: np.ndarray) -> np.ndarray:
        return np.searchsorted(keys, level * events + index) - 1

    f_parent = frame_at(f_enter, f_level - 1)  # -1 at level 1

    # -- call paths: interned level by level, numbered by first ENTER ----------
    f_path = np.empty(frames, np.int64)  # provisional ids, level-major
    path_first: List[np.ndarray] = []
    path_parent: List[np.ndarray] = []
    path_region: List[np.ndarray] = []
    paths = 0
    span = int(f_region.max()) + 1 if frames else 1
    bounds = np.searchsorted(f_level, np.arange(1, (int(f_level[-1]) if frames else 0) + 2))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        parent_path = f_path[f_parent[lo:hi]] if lo else np.full(hi - lo, -1)
        _, first, inverse = np.unique(
            (parent_path + 1) * span + f_region[lo:hi],
            return_index=True,
            return_inverse=True,
        )
        f_path[lo:hi] = paths + inverse
        path_first.append(f_enter[lo:hi][first])
        path_parent.append(parent_path[first])
        path_region.append(f_region[lo:hi][first])
        paths += len(first)
    order = np.argsort(np.concatenate(path_first)).tolist() if paths else []
    parents = np.concatenate(path_parent).tolist() if paths else []
    path_regions = np.concatenate(path_region).tolist() if paths else []
    names = {}
    for region in sorted(set(path_regions)):
        name = regions.name_of(region)
        if is_mpi_region(name):
            names[region] = name
    f_mpi = np.isin(f_region, list(names))

    # -- records: each must sit in a frame of the right kind -------------------
    def owners(kind: int) -> Tuple[np.ndarray, np.ndarray]:
        index = np.flatnonzero(kinds == kind)
        frame = frame_at(index, depth[index])
        if (frame < 0).any():
            raise inconsistent
        return index, frame

    record_frames = {}
    for kind in (_SEND, _RECV, _COLLEXIT):
        record_frames[kind] = index, frame = owners(kind)
        if not f_mpi[frame].all():
            raise inconsistent
    omp_index, omp_frame = owners(_OMP)
    omp = trace.records[_OMP]
    if (f_region[omp_frame] != omp["region"]).any():
        raise inconsistent

    # The trace is consistent: nothing below can fail, so interning is safe.
    cpid_of = [ROOT_PATH] * paths
    for path in order:
        parent = parents[path]
        cpid_of[path] = callpaths.intern(
            ROOT_PATH if parent < 0 else cpid_of[parent], path_regions[path]
        )
    f_cpid = np.take(np.array(cpid_of, np.int64), f_path)

    # -- times: the sequential loop's sums, in its order -----------------------
    f_start = stamps[f_enter]
    f_end = stamps[f_exit]
    duration = f_end - f_start
    duration = np.where(duration < 0.0, 0.0, duration)
    exit_order = np.argsort(f_exit)
    parent_x = f_parent[exit_order]
    nested = parent_x >= 0
    child_time = np.bincount(
        parent_x[nested], weights=duration[exit_order][nested], minlength=frames
    )
    exclusive = duration - child_time
    exclusive = np.where(exclusive > 0.0, exclusive, 0.0)
    path_x = f_path[exit_order]
    exclusive_sum = np.bincount(path_x, weights=exclusive[exit_order], minlength=paths).tolist()
    exited, first_exit = np.unique(path_x, return_index=True)
    visit_count = np.bincount(f_path, minlength=paths).tolist()

    # -- ops: MPI frames in completion order, records grouped under them -------
    op_frames = np.flatnonzero(f_mpi)
    op_frames = op_frames[np.argsort(f_exit[op_frames])]
    ops = len(op_frames)
    op_of_frame = np.empty(frames, np.int64)
    op_of_frame[op_frames] = np.arange(ops)

    def grouped(kind: int, *fields: str) -> _Records:
        # Stable: an op's records stay in trace order.  Fancy indexing copies,
        # so no column keeps the gathered record block alive.
        index, frame = record_frames[kind]
        owner = op_of_frame[frame]
        order = np.argsort(owner, kind="stable")
        start = np.searchsorted(owner[order], np.arange(ops + 1))
        rows = trace.records[kind]
        return start, (stamps[index][order], *[rows[name][order] for name in fields])

    return ProcessTimeline(
        rank=rank,
        location=location,
        first_time=float(stamps[0]) if events else 0.0,
        last_time=float(stamps[-1]) if events else 0.0,
        exclusive_time={
            cpid_of[path]: exclusive_sum[path]
            for path in exited[np.argsort(first_exit)].tolist()
        },
        visits={cpid_of[path]: visit_count[path] for path in order},
        mpi_ops=OpTable(
            rank,
            names,
            f_region[op_frames],
            f_cpid[op_frames],
            f_start[op_frames],
            f_end[op_frames],
            f_exit[op_frames],
            grouped(_SEND, "dest", "tag", "comm", "size"),
            grouped(_RECV, "source", "tag", "comm", "size"),
            grouped(_COLLEXIT, "region", "comm", "root", "sent", "recvd"),
        ),
        omp_regions=OmpTable(
            (
                f_cpid[omp_frame],
                f_start[omp_frame],
                stamps[omp_index],
                *[omp[name].copy() for name in ("nthreads", "busy_sum", "busy_max")],
            ),
            omp_index,
        ),
        event_count=events,
    )
