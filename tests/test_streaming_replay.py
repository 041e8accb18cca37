"""The single-pass streaming replay and the AnalysisRequest surface.

Three contracts under test:

* **Golden equivalence** — the streaming analyzer (the default serial
  path of ``analyze``) reproduces the buffered
  :class:`~repro.analysis.replay.ReplayAnalyzer` bit for bit: same cube
  floats, same call-path ids, same stamps, same rendered report bytes —
  strict and degraded, retained and bounded, serial and sharded.
* **Bounded memory** — ``bounded=True`` drops per-op retention without
  changing any aggregate, and peak memory on a 10× longer trace stays
  within the acceptance envelope (the irreducible O(trace) residuals —
  raw blobs and the clock-condition stamp list — are small).
* **Time-resolved severity** — ``timeline=True`` yields a
  :class:`~repro.analysis.severity_timeline.SeverityTimeline` whose bins
  conserve the cube's totals, without perturbing the aggregate result.

Plus unit coverage of :class:`AnalysisRequest` (validation, canonical
config form, the removed legacy keywords).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.parallel as parallel_module
import repro.analysis.severity_timeline as timeline_module
from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.request import AnalysisRequest
from repro.analysis.severity_timeline import SeverityTimeline
from repro.api import analyze
from repro.apps.imbalance import make_imbalance_app
from repro.errors import AnalysisError, ReproError
from repro.faults import FaultPlan, TraceCorruption, TraceTruncation
from repro.report import render_analysis, render_severity_timeline
from repro.report.serialize import result_to_dict
from repro.topology.presets import uniform_metacomputer

from tests.conftest import run_app
from tests.test_parallel_analysis import assert_identical


def _readers(run):
    return {machine: run.reader(machine) for machine in run.machines_used}


def _buffered(run, degraded=False):
    """The reference implementation: the two-pass buffered analyzer."""
    return ReplayAnalyzer(_readers(run), degraded=degraded).analyze()


@pytest.fixture(scope="module")
def small_run():
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    work = {r: 0.005 * (1 + r % 3) for r in range(8)}
    return run_app(mc, 8, make_imbalance_app(work, iterations=3), seed=5)


@pytest.fixture(scope="module")
def damaged_run():
    """Upper ranks lose trace data: one truncated, one corrupted."""
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    work = {r: 0.005 * (1 + r % 3) for r in range(8)}
    plan = FaultPlan(
        name="damage",
        seed=3,
        specs=(
            TraceTruncation(rank=6, keep_fraction=0.5),
            TraceCorruption(rank=3, at_fraction=0.5, length=8),
        ),
    )
    return run_app(
        mc, 8, make_imbalance_app(work, iterations=3), seed=3, fault_plan=plan
    )


class TestStreamingEquivalence:
    def test_strict_matches_buffered(self, small_run):
        streaming = analyze(small_run, request=AnalysisRequest())
        assert_identical(_buffered(small_run), streaming)

    def test_degraded_matches_buffered(self, damaged_run):
        def caught(fn):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                result = fn()
            return result, [(w.category, str(w.message)) for w in log]

        buffered, buffered_warnings = caught(
            lambda: _buffered(damaged_run, degraded=True)
        )
        streaming, streaming_warnings = caught(
            lambda: analyze(damaged_run, request=AnalysisRequest(degraded=True))
        )
        assert_identical(buffered, streaming)
        assert buffered.excluded_ranks == streaming.excluded_ranks
        # Same exclusions, same messages, same order — the fault
        # experiments count these warnings.
        assert buffered_warnings == streaming_warnings

    def test_bounded_matches_retained(self, small_run, jobs=None):
        retained = analyze(small_run, request=AnalysisRequest(jobs=jobs))
        bounded = analyze(small_run, request=AnalysisRequest(bounded=True, jobs=jobs))
        assert retained.cube.data == bounded.cube.data
        assert retained.grid_pairs.data == bounded.grid_pairs.data
        assert retained.violations.stamps == bounded.violations.stamps
        assert retained.total_time == bounded.total_time
        assert render_analysis(retained) == render_analysis(bounded)
        # The one observable difference: per-op retention is dropped.
        assert all(tl.mpi_ops for tl in retained.timelines.values())
        assert all(not tl.mpi_ops for tl in bounded.timelines.values())
        assert all(not tl.omp_regions for tl in bounded.timelines.values())
        # Exclusive time survives (it feeds the TIME metric).
        for rank, tl in retained.timelines.items():
            assert bounded.timelines[rank].exclusive_time == tl.exclusive_time

    def test_bounded_means_the_same_on_the_pool(self, small_run):
        """``bounded`` is the analyzer's, not the in-process local phase's:
        shard workers' tables are dropped after the global phase like any others."""
        self.test_bounded_matches_retained(small_run, jobs=2)

    def test_consumers_agree_on_reference_and_engine(self, small_run):
        """The Gantt view, the trace statistics and the skeleton extractor
        read the op tables: the reference's, built by the sequential walk,
        and the engine's, built by the array passes, give the same output."""
        from repro.analysis.instances import OpTable
        from repro.analysis.stats import render_statistics, statistics_of
        from repro.predict.skeleton import skeleton_from_run
        from repro.report.timeline import render_result_timeline

        reference = _buffered(small_run)
        engine = analyze(small_run, request=AnalysisRequest())
        for result in (reference, engine):
            assert all(isinstance(tl.mpi_ops, OpTable) for tl in result.timelines.values())
        assert reference.timelines == engine.timelines
        assert render_result_timeline(reference) == render_result_timeline(engine)
        assert render_statistics(statistics_of(reference)) == render_statistics(
            statistics_of(engine)
        )
        assert skeleton_from_run(small_run, reference) == skeleton_from_run(
            small_run, engine
        )

    def test_statistics_place_excluded_receivers_on_their_metahost(self, damaged_run):
        """A send to an excluded rank is internal or external by where the
        run's definitions put that rank, not external for want of its
        timeline."""
        from repro.analysis.stats import statistics_of

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = analyze(damaged_run, request=AnalysisRequest(degraded=True))
        assert result.excluded_ranks == [3, 6]
        comm = statistics_of(result).comm
        assert (comm.internal_bytes, comm.external_bytes) == (15360, 3072)

    def test_bounded_degraded_matches_buffered(self, damaged_run):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            buffered = _buffered(damaged_run, degraded=True)
            bounded = analyze(
                damaged_run, request=AnalysisRequest(degraded=True, bounded=True)
            )
        assert buffered.cube.data == bounded.cube.data
        assert render_analysis(buffered) == render_analysis(bounded)


class TestBatchIndependence:
    """The replay needs per-rank trace order and message matching, nothing
    global: how the local phase cuts the world into batches must not reach
    any aggregate — wherever it ran (``jobs``)."""

    #: One rank per batch, a few ranks per batch, and the default (the whole
    #: world at once).
    BATCHES = (1, 2048, parallel_module._BATCH_BYTES)
    #: In-process, and three shards on the pool.  A loop, not a parameter:
    #: every outcome below must equal every other, across both axes.
    JOBS = (1, 3)

    def _outcomes(self, monkeypatch, run, degraded):
        """Per (jobs, batch): the serialized result, or the error it raised."""
        outcomes = []
        for jobs, size in itertools.product(self.JOBS, self.BATCHES):
            monkeypatch.setattr(parallel_module, "_BATCH_BYTES", size)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    result = analyze(
                        run, request=AnalysisRequest(degraded=degraded, jobs=jobs)
                    )
                except ReproError as exc:
                    outcomes.append((type(exc), str(exc)))
                else:
                    outcomes.append(json.dumps(result_to_dict(result)))
        return outcomes

    @pytest.mark.parametrize("degraded", [False, True])
    def test_clean_run(self, monkeypatch, small_run, degraded):
        outcomes = self._outcomes(monkeypatch, small_run, degraded)
        assert isinstance(outcomes[0], str)
        assert outcomes.count(outcomes[0]) == len(self.JOBS) * len(self.BATCHES)

    @pytest.mark.parametrize("degraded", [False, True])
    def test_faulted_run(self, monkeypatch, damaged_run, degraded):
        outcomes = self._outcomes(monkeypatch, damaged_run, degraded)
        # Strict replay of a damaged archive raises (the lowest damaged
        # rank's decode error, met in the local phase); degraded returns.
        assert isinstance(outcomes[0], str) == degraded
        assert outcomes.count(outcomes[0]) == len(self.JOBS) * len(self.BATCHES)

    def test_timeline_counters_match_buffered(self, monkeypatch, small_run):
        # One rank per batch, so every rank is cut out of its own batch.
        monkeypatch.setattr(parallel_module, "_BATCH_BYTES", 1)
        buffered = _buffered(small_run)
        for jobs in self.JOBS:
            streaming = analyze(small_run, request=AnalysisRequest(jobs=jobs))
            for rank, reference in buffered.timelines.items():
                timeline = streaming.timelines[rank]
                assert timeline.event_count > 8
                assert (timeline.event_count, timeline.first_time, timeline.last_time) == (
                    reference.event_count, reference.first_time, reference.last_time,
                )


@pytest.mark.slow
class TestGoldenFigure6:
    """The acceptance pin: figure6 seed 1, clean and faulted, jobs 1 and 4,
    streaming vs the buffered reference — byte-identical reports."""

    @pytest.fixture(scope="class")
    def clean_run(self):
        from repro.apps.metatrace import make_metatrace_app
        from repro.experiments.configs import experiment1
        from repro.sim.runtime import MetaMPIRuntime

        metacomputer, placement, config = experiment1()
        runtime = MetaMPIRuntime(
            metacomputer, placement, seed=1, subcomms=config.subcomms()
        )
        return runtime.run(make_metatrace_app(config))

    @pytest.fixture(scope="class")
    def faulted_run(self):
        from repro.apps.metatrace import make_metatrace_app
        from repro.experiments.configs import experiment1
        from repro.sim.runtime import MetaMPIRuntime

        metacomputer, placement, config = experiment1()
        plan = FaultPlan(
            name="figure6-damage",
            seed=1,
            specs=(TraceTruncation(rank=5, keep_fraction=0.6),),
        )
        runtime = MetaMPIRuntime(
            metacomputer, placement, seed=1, subcomms=config.subcomms(),
            fault_plan=plan,
        )
        return runtime.run(make_metatrace_app(config))

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_clean_matches_buffered(self, clean_run, jobs):
        reference = _buffered(clean_run)
        result = analyze(clean_run, request=AnalysisRequest(jobs=jobs))
        assert_identical(reference, result)
        assert render_analysis(reference).encode() == render_analysis(result).encode()

    def test_grid_pair_key_order_is_the_buffered_engines(self, monkeypatch, clean_run):
        """``figure6`` prints the grid breakdown's dicts in insertion order:
        cells must enter in the reference's first-encounter order (pairs
        receiver-major, instances by ``(comm, index)``, members by rank),
        whatever the batch size and wherever the local phase ran."""

        def key_order(result):
            return {m: list(cells) for m, cells in result.grid_pairs.data.items()}

        reference = key_order(_buffered(clean_run))
        assert any(len(cells) > 1 for cells in reference.values())
        for jobs, size in itertools.product((1, 4), (1, 1 << 16, 1 << 20)):
            monkeypatch.setattr(parallel_module, "_BATCH_BYTES", size)
            result = analyze(clean_run, request=AnalysisRequest(jobs=jobs))
            assert key_order(result) == reference, (jobs, size)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_faulted_matches_buffered(self, faulted_run, jobs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = _buffered(faulted_run, degraded=True)
            result = analyze(
                faulted_run, request=AnalysisRequest(degraded=True, jobs=jobs)
            )
        assert_identical(reference, result)
        assert reference.excluded_ranks == result.excluded_ranks


# -- bounded memory ------------------------------------------------------------

_MEASURE = """
import resource, sys
from repro.analysis.request import AnalysisRequest
from repro.analysis.streaming import analyze
from repro.apps.imbalance import make_imbalance_app
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

iterations = int(sys.argv[1])
mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
work = {r: 0.002 * (1 + r % 3) for r in range(4)}
placement = Placement.block(mc, 4)
run = MetaMPIRuntime(mc, placement, seed=2).run(
    make_imbalance_app(work, iterations=iterations)
)
result = analyze(run, request=AnalysisRequest(bounded=True))
assert result.cube.metrics()
# VmHWM is this process's own peak (a fresh address space after exec); Linux
# folds the parent's peak into ru_maxrss, so it is only the fallback.
try:
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _long_short_runs(iterations):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    work = {r: 0.002 * (1 + r % 3) for r in range(4)}
    return run_app(mc, 4, make_imbalance_app(work, iterations=iterations), seed=2)


@pytest.mark.slow
class TestBoundedMemory:
    def test_bounded_peak_below_retained_on_long_trace(self):
        """A retained result keeps op *columns*, not op objects, so keeping
        it costs next to nothing over the bounded run.

        Measured on this workload (tracemalloc peaks): bounded and retained
        both ~0.80 MB, the transient arrays of the local phase's one batch
        (its 164 KB of trace); with one rank's passes at a time they were
        ~0.49 / ~0.52 MB.  The parent of the columnar local phase retained
        one object per op and record and peaked at 1.11 MB retained against
        0.65 MB bounded.  1.25x the bounded peak and 0.8x the parent's
        retained peak leave headroom against allocator noise while still
        failing if per-op objects quietly come back.
        """
        import tracemalloc

        parent_retained_peak = 1_114_794
        run = _long_short_runs(300)
        analyze(_long_short_runs(3))  # first-call caches are not the subject

        def peak(bounded):
            tracemalloc.start()
            result = analyze(run, request=AnalysisRequest(bounded=bounded))
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return result, peak_bytes

        retained, retained_peak = peak(False)
        bounded, bounded_peak = peak(True)
        assert retained.cube.data == bounded.cube.data
        assert retained_peak <= 1.25 * bounded_peak, (
            f"retained peak {retained_peak} above 1.25x bounded {bounded_peak}: "
            "a retained result holds more than its tables"
        )
        assert retained_peak < 0.8 * parent_retained_peak, (
            f"retained peak {retained_peak} not below 0.8x the object-retaining "
            f"parent's {parent_retained_peak}"
        )

    def test_timeline_adds_nothing_to_the_bounded_peak(self):
        """The timeline's chunks and its charges' transient arrays stay
        under the local phase's peak.  Measured on this workload (tracemalloc
        peaks, timeline on / off): 0.997–1.000 here and at the dict-store
        parent alike; 1.05 is headroom for allocator noise, not for a
        timeline that outgrows the batch it was charged from."""
        import tracemalloc

        run = _long_short_runs(300)
        analyze(_long_short_runs(3), request=AnalysisRequest(timeline=True))

        def peak(timeline):
            tracemalloc.start()
            result = analyze(run, request=AnalysisRequest(bounded=True, timeline=timeline))
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return result, peak_bytes

        _, off = peak(False)
        result, on = peak(True)
        assert result.severity_timeline.metrics()
        assert on <= 1.05 * off, f"timeline-on peak {on} above 1.05x timeline-off {off}"

    def test_retained_result_holds_no_op_objects(self):
        """The census: after a retained analyze nothing per-op is alive —
        the objects the replay made died with their matching windows."""
        import gc

        from repro.analysis.matching import (
            CollRecord,
            MPIOpInstance,
            RecvRecord,
            SendRecord,
        )
        from repro.apps.metatrace import make_metatrace_app
        from repro.experiments.configs import scaled_experiment1
        from repro.sim.runtime import MetaMPIRuntime

        metacomputer, placement, config = scaled_experiment1(1, coupling_intervals=1)
        run = MetaMPIRuntime(
            metacomputer, placement, seed=1, subcomms=config.subcomms()
        ).run(make_metatrace_app(config))
        result = analyze(run, request=AnalysisRequest())
        assert len(result.timelines) == 32
        assert sum(len(tl.mpi_ops) for tl in result.timelines.values()) > 1000
        gc.collect()
        alive = [
            type(obj).__name__
            for obj in gc.get_objects()
            if isinstance(obj, (MPIOpInstance, SendRecord, RecvRecord, CollRecord))
        ]
        assert alive == []

    def test_rss_flat_across_10x_trace(self):
        """The acceptance criterion: peak RSS of a bounded analyze on a
        10× longer trace stays within 2× of the short-trace baseline.
        Measured ratio is ~1.01; 2.0 is the contract.  The long run must
        also fit an absolute 256 MiB (measured 55–65 MiB): headroom for
        allocator and interpreter drift, not for an O(trace) regression."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def peak_rss_kib(iterations):
            proc = subprocess.run(
                [sys.executable, "-c", _MEASURE, str(iterations)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout.strip())

        short = peak_rss_kib(30)
        long = peak_rss_kib(300)
        assert long <= 2.0 * short, (
            f"10x trace RSS {long} KiB exceeds 2x short-trace baseline "
            f"{short} KiB"
        )
        budget_kib = 256 * 1024
        assert long < budget_kib, (
            f"bounded analyze peaked at {long} KiB, over the {budget_kib} KiB budget"
        )


# -- the severity timeline -----------------------------------------------------


def _flat(timeline):
    """``{(metric, cpid, rank, bin): seconds}`` of every charged bin."""
    return {
        (metric, *key): seconds
        for metric in timeline.metrics()
        for *key, seconds in zip(*(column.tolist() for column in timeline.cells(metric)))
    }


def _scalar_add(bins, stride, metric, cpid, rank, start, end, value):
    """The oracle: the per-row loop the columnar store replaced, charging
    *bins* keyed like :func:`_flat`."""
    if not value > 0.0:
        return
    lo = math.floor(start / stride)
    hi = lo if end <= start else math.floor(end / stride)
    for b in range(lo, hi + 1):
        overlap = min(end, (b + 1) * stride) - max(start, b * stride)
        if lo == hi or overlap > 0.0:
            key = (metric, cpid, rank, b)
            term = value if lo == hi else value * overlap / (end - start)
            bins[key] = bins.get(key, 0.0) + term


#: Times on a 1/64 s grid: edge-aligned at strides 0.25 and 1, not at 0.1,
#: never so close to an edge that the overlaps lose the mass's precision.
_grid_times = st.integers(-192, 320).map(lambda k: k / 64)
_timeline_rows = st.builds(
    lambda cpid, rank, interval, value: (cpid, rank, *interval, value),
    st.integers(0, 3),
    st.integers(0, 3),
    st.one_of(
        st.tuples(_grid_times, _grid_times),  # ends before its start half the time
        _grid_times.map(lambda t: (t, t)),  # degenerate
    ),
    st.one_of(st.floats(1e-6, 1e3), st.sampled_from([0.0, -1.0, math.nan])),
)


class TestSeverityTimelineUnit:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window_s"):
            SeverityTimeline(window_s=0.0)
        with pytest.raises(ValueError, match="stride_s"):
            SeverityTimeline(stride_s=-1.0)

    def test_overlap_weighted_binning(self):
        tl = SeverityTimeline(window_s=1.0, stride_s=1.0)
        # [0.5, 2.5] spans three 1s bins with overlaps 0.5 / 1.0 / 0.5.
        tl.add("m", 1, 0, 0.5, 2.5, 2.0)
        bins = tl.bins("m")
        assert bins == {0: pytest.approx(0.5), 1: pytest.approx(1.0),
                        2: pytest.approx(0.5)}
        assert sum(bins.values()) == pytest.approx(2.0)

    def test_degenerate_interval_charges_one_bin(self):
        tl = SeverityTimeline(stride_s=0.25)
        tl.add("m", 1, 0, 1.0, 1.0, 3.0)
        assert tl.bins("m") == {4: pytest.approx(3.0)}

    def test_nonpositive_value_ignored(self):
        """Zero, negative and NaN values charge nothing, by either entry point."""
        tl = SeverityTimeline()
        for bad in (0.0, -1.0, math.nan):
            tl.add("m", 1, 0, 0.0, 1.0, bad)
            tl.add_columns(("m",), np.array([1]), np.array([0]), np.array([0.0]),
                           np.array([1.0]), np.array([bad]))
        assert tl.metrics() == [] and tl.bins("m") == {}

    def test_column_charge_equals_per_item_add(self):
        """``add_columns`` against one ``add`` per row on the same inputs:
        degenerate interval, single bin, spans over several bins, zero and
        negative values skipped, several metrics charged from one pass."""
        rows = [
            # cpid, rank, start, end, value
            (1, 0, 1.0, 1.0, 3.0),      # degenerate: its single bin
            (1, 0, 0.30, 0.20, 1.5),    # end before start: likewise
            (1, 0, 0.26, 0.49, 0.7),    # inside one bin
            (1, 0, 0.10, 1.35, 2.0),    # six bins, same cell as above
            (2, 3, 0.50, 1.00, 1.0),    # ends on a bin edge: no empty bin
            (2, 3, -0.60, 0.10, 4.0),   # negative bins
            (2, 1, 0.00, 9.99, 0.0),    # zero: skipped
            (2, 1, 0.00, 9.99, -1.0),   # negative: skipped
            (7, 1, 3.10, 3.90, 1e-9),
        ]
        itemwise = SeverityTimeline(stride_s=0.25)
        for metric in ("a", "b"):
            for cpid, rank, start, end, value in rows:
                itemwise.add(metric, cpid, rank, start, end, value)
        columnar = SeverityTimeline(stride_s=0.25)
        columnar.add_columns(("a", "b"), *(np.array(column) for column in zip(*rows)))

        assert _flat(columnar).keys() == _flat(itemwise).keys()
        assert ("a", 2, 1) not in {key[:3] for key in _flat(columnar)}
        for key, value in _flat(itemwise).items():
            assert _flat(columnar)[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        # A second pass accumulates into the same bins.
        columnar.add_columns(("a",), *(np.array(column) for column in zip(*rows)))
        for key, value in _flat(itemwise).items():
            times = 2 if key[0] == "a" else 1
            assert _flat(columnar)[key] == pytest.approx(times * value, rel=1e-12), key
        empty = SeverityTimeline()
        empty.add_columns(("a",), *(np.empty(0) for _ in range(5)))
        assert empty.metrics() == []
        cpid, rank, b, seconds = empty.cells("a")
        assert len(cpid) == len(rank) == len(b) == len(seconds) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(_timeline_rows, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=6),
        charged=st.lists(st.sampled_from([("a",), ("b",), ("a", "b")]), min_size=7, max_size=7),
        reads=st.lists(st.booleans(), min_size=7, max_size=7),
        stride=st.sampled_from([0.25, 0.1, 1.0]),
    )
    def test_columns_match_scalar_oracle(self, rows, cuts, charged, reads, stride):
        """Drawn rows, charged in drawn batches to drawn metrics with reads
        in between, bin exactly where the scalar loop puts them: same keys,
        values to 1e-12, and each metric's mass is the sum charged to it
        (to 1e-9: an overlap is a difference of times, exact only on a grid
        the 0.1 s stride is not)."""
        timeline = SeverityTimeline(stride_s=stride)
        expected, mass = {}, {}
        bounds = [0, *sorted(cuts), len(rows)]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            batch = rows[lo:hi]
            columns = [np.array(column, dtype=float) for column in zip(*batch)] or [
                np.empty(0) for _ in range(5)
            ]
            columns[0], columns[1] = columns[0].astype(int), columns[1].astype(int)
            timeline.add_columns(charged[i], *columns)
            for metric in charged[i]:
                for row in batch:
                    _scalar_add(expected, stride, metric, *row)
                    mass[metric] = mass.get(metric, 0.0) + (row[4] if row[4] > 0.0 else 0.0)
            if reads[i]:
                assert _flat(timeline).keys() == expected.keys()
        got = _flat(timeline)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        assert timeline.metrics() == sorted({key[0] for key in expected})
        for metric in timeline.metrics():
            seconds = timeline.cells(metric)[3]
            assert float(seconds.sum()) == pytest.approx(mass[metric], rel=1e-9)
            assert sum(timeline.bins(metric).values()) == pytest.approx(mass[metric], rel=1e-9)

    def test_cells_are_a_read_only_cache_over_any_key_space(self):
        """``cells`` sums equal keys however far apart the keys lie (call
        path and rank at the int32 top), hands out read-only columns, and a
        later charge rebuilds them."""
        tl = SeverityTimeline(stride_s=0.25)
        top = 2**31 - 1
        tl.add("m", top, top, 2.5e8, 2.5e8, 1.0)
        tl.add("m", 0, 0, 0.0, 0.0, 2.0)
        tl.add("m", top, top, 2.5e8, 2.5e8, 3.0)
        assert _flat(tl) == {("m", 0, 0, 0): 2.0, ("m", top, top, 10**9): 4.0}
        cpid, rank, b, seconds = tl.cells("m")
        with pytest.raises(ValueError):
            seconds[0] = 0.0
        tl.add("m", 0, 0, 0.1, 0.1, 0.5)
        assert _flat(tl)[("m", 0, 0, 0)] == 2.5
        assert tl.ranks("m") == [0, top]

    @pytest.mark.parametrize("start, end", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
    ])
    def test_non_finite_interval_raises_from_both_entry_points(self, start, end):
        for charge in (
            lambda tl: tl.add("m", 7, 3, start, end, 1.0),
            lambda tl: tl.add_columns(
                ("m",), np.array([1, 7]), np.array([0, 3]), np.array([0.0, start]),
                np.array([0.5, end]), np.array([1.0, 1.0]),
            ),
        ):
            tl = SeverityTimeline()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AnalysisError, match=r"m at cpid 7, rank 3 .*non-finite"):
                    charge(tl)
            assert tl.metrics() == []

    def test_tiny_stride_is_refused_not_allocated(self):
        tl = SeverityTimeline(stride_s=1e-9)
        needs = r"timeline needs \d+ bins past its rows' first, .* at stride_s=1e-09; raise"
        with pytest.raises(AnalysisError, match=needs):
            tl.add("m", 1, 0, 0.0, 10.0, 1.0)
        with pytest.raises(AnalysisError, match=r"needs 0 bins past .*, up to index 10{21}, "):
            tl.add("m", 1, 0, 1e12, 1e12, 1.0)
        with pytest.raises(AnalysisError, match="raise stride_s"):
            tl.add("m", 1, 0, 1e300, 1e300, 1.0)  # a bin index past float range
        assert tl.metrics() == []
        # The budget counts the bins past each row's first over the timeline's
        # calls: single-bin rows, however many a long run has, never reach it.
        tl = SeverityTimeline(stride_s=1.0)
        rows = np.arange(6)
        with mock.patch.object(timeline_module, "_MAX_TERMS", 10):
            for _ in range(3):
                tl.add_columns(("m",), rows, rows, rows * 1.0, rows * 1.0, rows + 1.0)
            tl.add_columns(("m",), rows, rows, rows * 1.0, rows + 1.5, rows + 1.0)
            with pytest.raises(AnalysisError, match="needs 12 bins past"):
                tl.add_columns(("m",), rows, rows, rows * 1.0, rows + 1.5, rows + 1.0)
        assert sum(tl.bins("m").values()) == pytest.approx(84.0)

    def test_tiny_stride_fails_fast_through_analyze(self):
        """A 32-rank run at ``stride_s=1e-7`` used to run for tens of
        seconds and then exhaust memory; now its first charge refuses it.
        At the default stride the same run builds its timeline under a
        budget below its cell count: only bins past a row's first count."""
        from repro.apps.metatrace import make_metatrace_app
        from repro.experiments.configs import scaled_experiment1
        from repro.sim.runtime import MetaMPIRuntime

        metacomputer, placement, config = scaled_experiment1(1, coupling_intervals=1)
        run = MetaMPIRuntime(
            metacomputer, placement, seed=1, subcomms=config.subcomms()
        ).run(make_metatrace_app(config))
        charge = SeverityTimeline.add_columns
        with mock.patch.object(
            SeverityTimeline, "add_columns", autospec=True, side_effect=charge
        ) as charges:
            with pytest.raises(AnalysisError, match=r"at stride_s=1e-07; raise stride_s"):
                analyze(run, request=AnalysisRequest(timeline=True, stride_s=1e-7))
        assert charges.call_count == 1
        with mock.patch.object(timeline_module, "_MAX_TERMS", 1000):
            timeline = analyze(run, request=AnalysisRequest(timeline=True)).severity_timeline
        assert sum(len(timeline.cells(metric)[0]) for metric in timeline.metrics()) > 1000

    def test_rolling_window_series(self):
        tl = SeverityTimeline(window_s=2.0, stride_s=1.0)
        tl.add("m", 1, 0, 0.0, 1.0, 1.0)   # bin 0
        tl.add("m", 1, 0, 2.0, 3.0, 4.0)   # bin 2
        assert tl.window_bins == 2
        series = tl.series("m")
        # One entry per stride, value = bin + predecessor.
        assert [t for t, _ in series] == [0.0, 1.0, 2.0]
        assert [v for _, v in series] == [
            pytest.approx(1.0), pytest.approx(1.0), pytest.approx(4.0)
        ]
        assert tl.peak_window("m") == (2.0, pytest.approx(4.0))

    def test_peak_of_empty_metric(self):
        tl = SeverityTimeline()
        assert tl.peak_window("nothing") == (0.0, 0.0)
        assert tl.series("nothing") == []

    def test_filters_and_ranks(self):
        tl = SeverityTimeline(stride_s=1.0)
        tl.add("m", 1, 0, 0.0, 1.0, 1.0)
        tl.add("m", 2, 3, 0.0, 1.0, 2.0)
        assert tl.ranks("m") == [0, 3]
        assert tl.bins("m", rank=3) == {0: pytest.approx(2.0)}
        assert tl.bins("m", cpid=1) == {0: pytest.approx(1.0)}
        assert tl.bins("m") == {0: pytest.approx(3.0)}

    def test_payload_shape(self):
        tl = SeverityTimeline(window_s=2.0, stride_s=1.0)
        tl.add("m", 1, 0, 0.0, 1.0, 1.0)
        payload = tl.to_payload()
        assert payload["window_s"] == 2.0 and payload["stride_s"] == 1.0
        entry = payload["metrics"]["m"]
        assert entry["ranks"] == [0]
        assert entry["series"] and entry["peak"][1] == pytest.approx(1.0)
        assert entry["by_rank"]["0"] == entry["series"]
        # A named metric with no contributions still gets an entry.
        empty = tl.to_payload("absent")["metrics"]["absent"]
        assert empty["series"] == [] and empty["peak"] == [0.0, 0.0]


class TestTimelineThroughAnalyze:
    def test_timeline_conserves_cube_totals(self, small_run):
        request = AnalysisRequest(timeline=True, window_s=0.5, stride_s=0.1)
        result = analyze(small_run, request=request)
        timeline = result.severity_timeline
        assert timeline is not None
        assert "mpi" in timeline.metrics()
        # Every binned metric's mass equals its cube total (floats: the
        # timeline is diagnostic, so approx — the cube itself is exact).
        for metric in timeline.metrics():
            binned = sum(timeline.bins(metric).values())
            assert binned == pytest.approx(result.cube.total(metric), rel=1e-9), metric

    def test_timeline_does_not_perturb_aggregates(self, small_run):
        plain = analyze(small_run, request=AnalysisRequest())
        timed = analyze(small_run, request=AnalysisRequest(timeline=True))
        assert plain.cube.data == timed.cube.data
        assert render_analysis(plain) == render_analysis(timed)
        assert plain.severity_timeline is None

    def test_parallel_timeline_matches_serial_mass(self, small_run):
        request = AnalysisRequest(timeline=True)
        serial = analyze(small_run, request=request).severity_timeline
        parallel = analyze(
            small_run, request=AnalysisRequest(timeline=True, jobs=2)
        ).severity_timeline
        assert parallel is not None
        assert serial.metrics() == parallel.metrics()
        for metric in serial.metrics():
            assert sum(parallel.bins(metric).values()) == pytest.approx(
                sum(serial.bins(metric).values()), rel=1e-9
            ), metric

    def test_render_severity_timeline(self, small_run):
        request = AnalysisRequest(timeline=True)
        result = analyze(small_run, request=request)
        text = render_severity_timeline(result.severity_timeline)
        assert text.startswith("Time-resolved severity (window 1 s")
        assert "mpi" in text and "peak" in text and "|" in text
        only = render_severity_timeline(result.severity_timeline, metric="mpi")
        assert "mpi" in only and "late-sender" not in only


# -- the request object and its shim -------------------------------------------


class TestAnalysisRequest:
    def test_validation(self):
        with pytest.raises(AnalysisError, match="jobs"):
            AnalysisRequest(jobs=-1)
        with pytest.raises(AnalysisError, match="timeout"):
            AnalysisRequest(timeout=0.0)
        with pytest.raises(AnalysisError, match="max_retries"):
            AnalysisRequest(max_retries=-1)
        with pytest.raises(AnalysisError, match="window_s"):
            AnalysisRequest(window_s=0.0)
        with pytest.raises(AnalysisError, match="stride_s"):
            AnalysisRequest(stride_s=-0.1)

    @pytest.mark.parametrize("value", [1.5, True, False, "2"])
    def test_non_integer_jobs_rejected(self, value):
        # Refused here, or plan_shards dies on it with a raw TypeError.
        with pytest.raises(AnalysisError, match="jobs must be an integer"):
            AnalysisRequest(jobs=value)

    @pytest.mark.parametrize("value", [1.5, True, False])
    def test_non_integer_max_retries_rejected(self, value):
        with pytest.raises(AnalysisError, match="max_retries must be an integer"):
            AnalysisRequest(max_retries=value)

    @pytest.mark.parametrize("name", ["timeout", "deadline_s", "window_s", "stride_s"])
    def test_nan_durations_rejected(self, name):
        with pytest.raises(AnalysisError, match=name):
            AnalysisRequest(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["window_s", "stride_s"])
    def test_infinite_timeline_widths_rejected(self, name):
        # The timeline cannot bin with them: inf * 0 is NaN.
        with pytest.raises(AnalysisError, match=f"{name} must be a number of seconds > 0 and finite"):
            AnalysisRequest(timeline=True, **{name: math.inf})

    def test_frozen(self):
        request = AnalysisRequest()
        with pytest.raises(Exception):
            request.jobs = 4  # type: ignore[misc]

    def test_canonical_config_omits_defaults(self):
        assert AnalysisRequest().to_config() == {}
        assert AnalysisRequest(jobs=4, timeline=True).to_config() == {
            "jobs": 4, "timeline": True,
        }

    def test_config_round_trip(self):
        request = AnalysisRequest(
            degraded=True, jobs=2, timeout=5.0, timeline=True, stride_s=0.5
        )
        assert AnalysisRequest.from_config(request.to_config()) == request

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(AnalysisError, match="unknown analysis config"):
            AnalysisRequest.from_config({"jbos": 4})

    def test_from_config_overrides(self):
        request = AnalysisRequest.from_config({"jobs": 2}, timeline=True)
        assert request.jobs == 2 and request.timeline


class TestDeprecatedKwargShim:
    def test_removed_keywords_are_type_errors(self, small_run):
        """The one-release shims are gone: a legacy keyword is a TypeError."""
        import repro.api as api
        from repro.experiments.figures import run_metatrace_experiment

        with pytest.raises(TypeError):
            analyze(small_run, jobs=1)
        with pytest.raises(TypeError):
            analyze(small_run, degraded=False)
        with pytest.raises(TypeError):
            api.run_experiment("table3", seed=0, verify_archive=True)
        with pytest.raises(TypeError):
            run_metatrace_experiment(1)

    def test_request_form_is_warning_free(self, small_run):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            analyze(small_run, request=AnalysisRequest(jobs=1))
