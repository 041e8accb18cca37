"""One ``fsum`` per cell, installed once, and a checker that sorts on read.

The global phase sums each severity cell's rows once with :func:`math.fsum`
and installs the sum into a cell that holds nothing yet
(:meth:`SeverityCube.install`); the cube fed row by row through
:meth:`SeverityCube.add` is its oracle, values and nested dict orders alike.
The clock-condition checker keeps its columns in the order they arrive and
sorts only in ``stamps``, so any order of the same messages is the same
checker.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.globalphase import _sum_cells
from repro.analysis.severity import SeverityCube
from repro.clocks.condition import ClockConditionChecker, MessageStamp
from repro.errors import AnalysisError
from repro.ids import NodeId

#: Positive finite doubles from the subnormals to 2**100: over a thousand binades.
_WIDE = st.builds(
    math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 100)
).filter(lambda value: value > 0.0)
_VALUES = st.one_of(
    _WIDE,
    st.floats(min_value=5e-324, max_value=1e-300, allow_subnormal=True),
    st.floats(min_value=1e-9, max_value=1e3),
)


@st.composite
def _rows(draw):
    """Rows of cells ``(cpid, rank, seconds)``: a few cells, some of one row,
    values drawn from a small pool so that repeats are common."""
    pool = draw(st.lists(_VALUES, min_size=1, max_size=8))
    count = draw(st.integers(1, 60))
    cpid = draw(st.lists(st.integers(0, 5), min_size=count, max_size=count))
    rank = draw(st.lists(st.integers(0, 300), min_size=count, max_size=count))
    value = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    return np.array(cpid, np.int64), np.array(rank, np.int32), np.array(value)


def _cells(cube):
    """The cube's cells in nested dict order, values bit for bit."""
    return [
        (metric, cpid, rank, value.hex())
        for metric, by_cpid in cube.data.items()
        for cpid, by_rank in by_cpid.items()
        for rank, value in by_rank.items()
    ]


@settings(max_examples=300, deadline=None)
@given(_rows(), _rows())
def test_install_equals_add_row_by_row(first, second):
    installed, added = SeverityCube(), SeverityCube()
    for metric, (cpid, rank, value) in (("late_sender", first), ("wait_at_nxn", second)):
        installed.install(metric, *_sum_cells(cpid, rank, value))
        for row in zip(cpid.tolist(), rank.tolist(), value.tolist()):
            added.add(metric, *row)
    assert _cells(installed) == _cells(added)


@settings(max_examples=100, deadline=None)
@given(_rows())
def test_a_spread_of_binades_sums_exactly(rows):
    """Each cell reads ``fsum`` of its rows: the correctly rounded exact sum."""
    cpid, rank, value = rows
    cube = SeverityCube()
    cube.install("mpi", *_sum_cells(cpid, rank, value))
    for c, by_rank in cube.data["mpi"].items():
        for r, total in by_rank.items():
            rows_of_cell = value[(cpid == c) & (rank == r)].tolist()
            assert total == math.fsum(rows_of_cell)


@settings(max_examples=100, deadline=None)
@given(_rows(), st.data())
def test_a_second_install_into_a_held_cell_raises(rows, data):
    cpid, rank, value = rows
    cube = SeverityCube()
    cells = _sum_cells(cpid, rank, value)
    cube.install("mpi", *cells)
    held = data.draw(st.integers(0, len(cells[0]) - 1))
    with pytest.raises(AnalysisError, match="installed twice"):
        cube.install("mpi", [cells[0][held]], [cells[1][held]], [1.0])
    # Another metric's cell at the same place is a different cell.
    cube.install("p2p", [cells[0][held]], [cells[1][held]], [1.0])


def test_install_skips_zeros_as_add_does():
    installed, added = SeverityCube(), SeverityCube()
    for cube in (installed, added):
        cube.add("mpi", 0, 0, 1.0)
    installed.install("time", [1, 2], [0, 0], [0.0, 0.5])
    installed.install("idle", [3], [0], [0.0])
    added.add("time", 2, 0, 0.5)
    added.add("idle", 3, 0, 0.0)
    assert _cells(installed) == _cells(added)
    assert list(installed.data) == ["mpi", "time"]


_NODES = [NodeId(machine, node) for machine in range(3) for node in range(2)]


@st.composite
def _messages(draw):
    stamp = st.floats(-10.0, 10.0, allow_nan=False)
    count = draw(st.integers(0, 40))
    index = st.integers(0, len(_NODES) - 1)
    return [
        MessageStamp(_NODES[draw(index)], _NODES[draw(index)], draw(stamp), draw(stamp))
        for _ in range(count)
    ]


def _checker(stamps):
    """The columns as the replay hands them over: node places, in the given order."""
    place = {node: index for index, node in enumerate(_NODES)}
    columns = list(zip(*stamps)) or [(), (), (), ()]
    return ClockConditionChecker(
        _NODES,
        np.array([place[node] for node in columns[0]], np.int64),
        np.array([place[node] for node in columns[1]], np.int64),
        np.array(columns[2], np.float64),
        np.array(columns[3], np.float64),
    )


@settings(max_examples=200, deadline=None)
@given(_messages(), st.randoms(use_true_random=False))
def test_checker_is_the_same_in_any_column_order(stamps, random):
    shuffled = list(stamps)
    random.shuffle(shuffled)
    one, other = _checker(stamps), _checker(shuffled)
    assert one.stamps == other.stamps == sorted(stamps)
    assert one == other
    assert one.summary() == other.summary()
    assert ClockConditionChecker.from_stamps(one.stamps).stamps == one.stamps
    assert ClockConditionChecker.from_stamps(shuffled) == one
