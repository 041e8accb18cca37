"""Serial/parallel analysis equivalence and the sharding machinery.

The contract under test: for every ``jobs`` value, ``analyze`` produces a
result *bit-identical* to the serial analyzer — same severity cube (float
for float), same call-path ids, same clock-condition stamps, same rendered
report bytes — in both strict and degraded mode.
"""

from __future__ import annotations

import dataclasses
import pickle
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.parallel as parallel_module
from repro.analysis.callpath import CallPathRegistry
from repro.analysis.instances import build_timeline
from repro.analysis.parallel import (
    PartialAnalysis,
    ShardTask,
    analyze_shard,
    plan_shards,
    resolve_jobs,
)
from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.streaming import StreamingReplayAnalyzer
from repro.api import AnalysisRequest, analyze
from repro.apps.imbalance import make_imbalance_app
from repro.apps.metatrace import make_metatrace_app
from repro.clocks.sync import HierarchicalInterpolation, LinearConverter
from repro.errors import AnalysisError, PartialTraceWarning, ReproError
from repro.experiments.configs import experiment1
from repro.faults import FaultPlan, TraceCorruption, TraceTruncation
from repro.report import render_analysis
from repro.report.serialize import result_to_dict
from repro.resilience import ExecutionReport
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.presets import uniform_metacomputer
from repro.trace.archive import MANIFEST_FILE, ArchiveManifest, ArchiveWriter, TraceManifestEntry
from repro.trace.encoding import encode_events, iter_events
from repro.trace.events import EventKind

from tests.conftest import run_app


def assert_identical(serial, parallel):
    """Every observable facet of the two results must be bit-identical."""
    assert serial.cube.data == parallel.cube.data
    assert [
        (p.cpid, p.parent, p.region, p.depth) for p in serial.callpaths.all_paths()
    ] == [
        (p.cpid, p.parent, p.region, p.depth) for p in parallel.callpaths.all_paths()
    ]
    assert serial.violations.stamps == parallel.violations.stamps
    assert vars(serial.traffic) == vars(parallel.traffic)
    assert serial.total_time == parallel.total_time
    assert serial.scheme_name == parallel.scheme_name
    assert serial.grid_pairs.data == parallel.grid_pairs.data
    assert list(serial.timelines) == list(parallel.timelines)
    assert serial.completeness == parallel.completeness
    assert render_analysis(serial) == render_analysis(parallel)


def assert_timelines_agree(serial, parallel):
    """Same (metric, call path, rank, bin) keys; values to 1e-12 relative.

    Bins are plain float sums — last-ulp order-dependent by contract — so
    the values are compared approximately and only the keys exactly.
    """
    flat = [
        {
            (metric, *key): value
            for metric in result.severity_timeline.metrics()
            for *key, value in zip(
                *(column.tolist() for column in result.severity_timeline.cells(metric))
            )
        }
        for result in (serial, parallel)
    ]
    assert flat[0].keys() == flat[1].keys()
    assert flat[0], "the run charged nothing to the timeline"
    for key, value in flat[0].items():
        assert flat[1][key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class _PicklingPool:
    """The analyzer's ``pool=`` seam without processes: every shard runs
    here, and its partial still crosses a pickle boundary."""

    def run(self, tasks, **budgets):
        partials = [pickle.loads(pickle.dumps(analyze_shard(task))) for task in tasks]
        return partials, ExecutionReport()


def _through_the_seam(run, jobs, degraded, batch=parallel_module._BATCH_BYTES):
    """``(result or error, warnings)`` of one analysis whose local phase ran
    at *jobs* behind :class:`_PicklingPool`, in batches of about *batch*
    trace bytes."""
    with mock.patch.object(parallel_module, "_BATCH_BYTES", batch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = StreamingReplayAnalyzer(
                    {machine: run.reader(machine) for machine in run.machines_used},
                    degraded=degraded,
                    jobs=jobs,
                    pool=_PicklingPool(),
                ).analyze()
            except ReproError as exc:
                outcome = (type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


#: Any shard plan of the 8-rank runs below, and local-phase batches from one
#: rank each to the whole world at once.
_SEAM = dict(
    jobs=st.integers(1, 8),
    batch=st.sampled_from((1, 4096, 1 << 20)),
)


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(5) == 5

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            resolve_jobs(-2)


def _one_metahost(sizes):
    return dict.fromkeys(sizes, 0)


class TestPlanShards:
    def test_contiguous_cover(self):
        sizes = {rank: 100 + rank for rank in range(10)}
        shards = plan_shards(sizes, _one_metahost(sizes), 3)
        assert 1 < len(shards) <= 3
        flat = [r for shard in shards for r in shard]
        assert flat == list(range(10))  # every rank exactly once, ascending

    def test_single_job_single_shard(self):
        sizes = {3: 10, 1: 500, 2: 7}
        assert plan_shards(sizes, _one_metahost(sizes), 1) == [(1, 2, 3)]

    def test_empty_world(self):
        assert plan_shards({}, {}, 4) == []

    def test_more_jobs_than_ranks(self):
        shards = plan_shards({0: 5, 1: 5, 2: 5}, {0: 0, 1: 0, 2: 1}, 8)
        assert shards == [(0,), (1,), (2,)]

    def test_shard_count_must_be_positive(self):
        with pytest.raises(AnalysisError):
            plan_shards({0: 1}, {0: 0}, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        first_rank=st.integers(0, 5),
        jobs=st.integers(1, 12),
        metahost_width=st.integers(1, 16),
    )
    def test_slices_cover_the_world_and_balance_its_bytes(
        self, sizes, first_rank, jobs, metahost_width
    ):
        ranks = range(first_rank, first_rank + len(sizes))
        size_of = dict(zip(ranks, sizes))
        machine_of = {rank: rank // metahost_width for rank in ranks}
        # Insertion order must not reach the plan.
        shards = plan_shards(dict(reversed(size_of.items())), machine_of, jobs)
        assert shards == plan_shards(size_of, machine_of, jobs)  # deterministic
        assert 1 <= len(shards) <= jobs
        assert all(shards)  # non-empty
        # Contiguous, ascending, every rank exactly once.
        assert [rank for shard in shards for rank in shard] == list(ranks)
        heaviest = max(sum(size_of[rank] for rank in shard) for shard in shards)
        assert heaviest <= sum(sizes) / jobs + max(sizes)

    def test_benchmark_shape_cuts_inside_the_heavy_half(self):
        """``replay_jobs2_64``: ranks 0-31 hold 1.5 KB of trace each, ranks
        32-63 hold 90 KB each and sit on another metahost.  Half the ranks
        is 1.6 % of the bytes; half the bytes is a cut inside the heavy half."""
        sizes = {rank: 1_500 if rank < 32 else 90_000 for rank in range(64)}
        machine_of = {rank: rank // 32 for rank in range(64)}
        low, high = plan_shards(sizes, machine_of, 2)
        assert low[0] == 0 and 32 < high[0] < 63 and high[-1] == 63
        half = sum(sizes.values()) / 2
        for shard in (low, high):
            assert abs(sum(sizes[rank] for rank in shard) - half) <= 0.10 * half

    def test_metahost_boundary_wins_only_among_equally_near_cuts(self):
        # Ranks 2-4 are empty, so cutting before rank 3, 4 or 5 splits the
        # bytes equally well; the metahost boundary at rank 4 breaks the tie.
        sizes = {0: 10, 1: 10, 2: 10, 3: 0, 4: 0, 5: 10, 6: 10, 7: 10}
        machine_of = {rank: rank // 4 for rank in sizes}
        assert plan_shards(sizes, machine_of, 2) == [(0, 1, 2, 3), (4, 5, 6, 7)]
        # A boundary that is merely *nearby* does not move the cut: the old
        # planner cut this world at rank 7 (0-6 | 7-9); bytes say 0-4 | 5-9.
        sizes = dict.fromkeys(range(10), 100)
        machine_of = {rank: 0 if rank < 7 else 1 for rank in sizes}
        assert plan_shards(sizes, machine_of, 2) == [tuple(range(5)), tuple(range(5, 10))]

    def test_ranks_without_a_trace_are_still_assigned(self):
        """A missing or empty trace weighs nothing but belongs to a shard:
        admission (strict error, degraded exclusion) happens in the shard."""
        for sizes in ({0: 0, 1: 400, 2: 0, 3: 0, 4: 400, 5: 0}, dict.fromkeys(range(6), 0)):
            shards = plan_shards(sizes, _one_metahost(sizes), 2)
            assert len(shards) == 2
            assert [rank for shard in shards for rank in shard] == list(range(6))

    def test_deterministic(self):
        sizes = {rank: (rank * 7919) % 1000 for rank in range(32)}
        machine_of = {rank: rank // 11 for rank in sizes}
        assert plan_shards(sizes, machine_of, 4) == plan_shards(sizes, machine_of, 4)


class TestStrictEquivalence:
    @pytest.fixture(scope="class")
    def small_run(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
        work = {r: 0.005 * (1 + r % 3) for r in range(8)}
        return run_app(mc, 8, make_imbalance_app(work, iterations=3), seed=5)

    @pytest.mark.parametrize("jobs", [2, 3, 4, 8])
    def test_bit_identical_to_serial(self, small_run, jobs):
        serial = analyze(small_run)
        parallel = analyze(small_run, AnalysisRequest(jobs=jobs))
        assert_identical(serial, parallel)

    def test_jobs_one_uses_serial_path(self, small_run):
        assert_identical(analyze(small_run), analyze(small_run, AnalysisRequest(jobs=1)))

    @pytest.mark.parametrize("jobs", [2, 3, 4, 8])
    def test_timeline_matches_serial(self, small_run, jobs):
        serial = analyze(small_run, AnalysisRequest(timeline=True))
        parallel = analyze(small_run, AnalysisRequest(timeline=True, jobs=jobs))
        assert_identical(serial, parallel)
        assert_timelines_agree(serial, parallel)

    def test_partial_carries_no_matching_state(self):
        """Workers ship timelines, not matches: the merge does all matching."""
        assert {f.name for f in dataclasses.fields(PartialAnalysis)} == {
            "index",
            "ranks",
            "callpaths",
            "timelines",
            "trace_bytes",
            "completeness",
            "warnings",
        }

    @settings(max_examples=30, deadline=None)
    @given(**_SEAM)
    def test_local_phase_placement_reaches_nothing(self, small_run, jobs, batch):
        """Where the local phase ran (here, or in shards whose partials were
        pickled back) and how the world was cut into shards and batches
        reach nothing in the result — call-path ids included."""
        result, _ = _through_the_seam(small_run, jobs, False, batch)
        assert_identical(analyze(small_run), result)
        assert (result.execution is None) == (jobs == 1)

    @pytest.fixture(scope="class")
    def starved_run(self):
        """The small run with the first SEND 3->4 and the first SEND 6->7 lost.

        Two starved receives: rank 4's crosses every shard cut at jobs >= 2,
        rank 7's is shard-local at jobs 2 and 4.  The serial replay names the
        first one in replay order (rank 4); so must every ``jobs`` value.
        """
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
        work = {r: 0.005 * (1 + r % 3) for r in range(8)}
        run = run_app(mc, 8, make_imbalance_app(work, iterations=3), seed=5)
        for sender, dest in ((3, 4), (6, 7)):
            machine = run.definitions.machine_of(sender)
            events = run.reader(machine).read_trace(sender)
            lost = next(
                i
                for i, event in enumerate(events)
                if event.kind == EventKind.SEND and event.dest == dest
            )
            del events[lost]
            ArchiveWriter(run.namespaces[machine], run.archive_path).write_trace_blob(
                sender, encode_events(sender, events)
            )
        return run

    @pytest.mark.parametrize("jobs", [1, 2, 4, 8])
    def test_strict_names_the_serial_starved_receive(self, starved_run, jobs):
        with pytest.raises(AnalysisError) as caught:
            analyze(starved_run, AnalysisRequest(jobs=jobs))
        assert str(caught.value) == (
            "rank 4: RECV from 3 (tag 3, comm 0) has no matching SEND"
        )


def _skewed_app(ctx):
    """A ring in which ranks 5-7 write some twenty times the trace of ranks
    0-4, through call paths the light ranks never enter."""
    succ = (ctx.rank + 1) % ctx.size
    pred = (ctx.rank - 1) % ctx.size
    with ctx.region("main"):
        for _ in range(3):
            if ctx.rank >= 5:
                for _ in range(40):
                    with ctx.region("solver"):
                        with ctx.region(f"kernel_{ctx.rank % 2}"):
                            yield ctx.compute(1e-5)
            with ctx.region("ring"):
                yield ctx.comm.sendrecv(
                    dest=succ, send_size=512, send_tag=3, source=pred, recv_tag=3
                )
    yield ctx.comm.barrier()


class TestByteBalancedCutNeverShows:
    @pytest.fixture(scope="class")
    def skewed_run(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
        return run_app(mc, 8, _skewed_app, seed=9)

    def test_the_plan_follows_the_bytes(self, skewed_run):
        ranks = sorted(skewed_run.definitions.locations)
        sizes = {rank: len(blob) for rank, blob in skewed_run.trace_shard(ranks).blobs.items()}
        assert min(sizes[rank] for rank in (5, 6, 7)) > 10 * max(sizes[rank] for rank in range(5))
        machine_of = {rank: skewed_run.definitions.machine_of(rank) for rank in ranks}
        # Half the ranks (and the metahost boundary) is rank 4; half the
        # bytes lies among the three heavy ranks.
        _low, high = plan_shards(sizes, machine_of, 2)
        assert high[0] > 5

    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_result_equals_serial(self, skewed_run, jobs):
        sharded = analyze(skewed_run, AnalysisRequest(jobs=jobs))
        assert sharded.execution.clean and len(sharded.execution.tasks) > 1
        assert result_to_dict(sharded) == result_to_dict(analyze(skewed_run))


@pytest.mark.slow
class TestGoldenFigure6:
    def test_figure6_seed1_jobs4_byte_identical(self):
        """The acceptance criterion: figure6 --seed 1, jobs 1 vs jobs 4."""
        metacomputer, placement, config = experiment1()
        runtime = MetaMPIRuntime(
            metacomputer, placement, seed=1, subcomms=config.subcomms()
        )
        run = runtime.run(make_metatrace_app(config))
        serial = analyze(run, AnalysisRequest(jobs=1))
        parallel = analyze(run, AnalysisRequest(jobs=4))
        assert_identical(serial, parallel)
        assert render_analysis(serial).encode() == render_analysis(parallel).encode()


def _inconsistent_run(stray_header=False):
    """A run whose rank 4 closes one frame with the wrong region, under a
    manifest that agrees: it passes every admission check, and only the
    local phase finds it inconsistent — in the middle of a batch, ahead of
    rank 6, whose trace lost its second half and fails admission, and (with
    *stray_header*) of rank 7, whose file claims to be rank 2's."""
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
    work = {r: 0.005 * (1 + r % 3) for r in range(8)}
    run = run_app(mc, 8, make_imbalance_app(work, iterations=3), seed=3)

    def rewrite(rank, blob):
        namespace = run.namespaces[run.definitions.machine_of(rank)]
        ArchiveWriter(namespace, run.archive_path).write_trace_blob(rank, blob)
        return namespace

    events = run.reader(run.definitions.machine_of(4)).read_trace(4)
    wrong = [i for i, event in enumerate(events) if event.kind == EventKind.EXIT][3]
    events[wrong] = events[wrong]._replace(region=events[wrong].region + 1)
    blob = encode_events(4, events)
    namespace = rewrite(4, blob)
    path = f"{run.archive_path}/{MANIFEST_FILE}"
    manifest = ArchiveManifest.from_json(namespace.read_file(path).decode())
    manifest.entries[4] = TraceManifestEntry.for_blob(4, blob)
    namespace.write_file_atomic(path, manifest.to_json().encode())
    blob = run.reader(run.definitions.machine_of(6)).read_trace_blob(6)
    rewrite(6, blob[: len(blob) // 2])
    if stray_header:
        rewrite(7, encode_events(2, run.reader(run.definitions.machine_of(7)).read_trace(7)))
    return run


class TestDegradedEquivalence:
    @pytest.fixture(scope="class")
    def damaged_run(self):
        """A run whose upper ranks lose trace data (truncation + corruption)."""
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

    @pytest.fixture(scope="class")
    def inconsistent_run(self):
        return _inconsistent_run()

    @pytest.mark.parametrize("stray_header", [False, True])
    def test_inconsistent_rank_between_good_ranks(self, stray_header):
        """Strict: the sequential builder's error for rank 4, not a later
        rank's — also when a later rank of its batch fails admission.
        Degraded: the damaged ranks excluded, with the reference engine's
        warnings in its order, its exclusions and call-path numbering,
        whether the ranks share a batch or not."""
        run = _inconsistent_run(stray_header)
        machine = run.definitions.machine_of(4)
        blob = run.reader(machine).read_trace_blob(4)
        with pytest.raises(AnalysisError, match="^rank 4: EXIT region") as canonical:
            build_timeline(
                4, run.definitions.locations[4], iter_events(blob)[1],
                LinearConverter.identity(), CallPathRegistry(), run.definitions.regions,
            )
        readers = {m: run.reader(m) for m in run.machines_used}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reference = ReplayAnalyzer(readers, degraded=True).analyze()
        expected = [(w.category, str(w.message)) for w in caught]
        assert reference.excluded_ranks == ([4, 6, 7] if stray_header else [4, 6])
        assert expected[0] == (
            PartialTraceWarning, f"rank 4 excluded from replay: {canonical.value}"
        )
        assert expected[1][1].startswith("rank 6 excluded")
        for batch in (1, 1 << 20):
            outcome, _ = _through_the_seam(run, 1, False, batch)
            assert outcome == (AnalysisError, str(canonical.value))
            result, said = _through_the_seam(run, 1, True, batch)
            assert said == expected
            assert_identical(reference, result)

    def _analyze_with_warnings(self, run, jobs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = analyze(run, AnalysisRequest(degraded=True, jobs=jobs))
        return result, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_degraded_bit_identical(self, damaged_run, jobs):
        serial, serial_warnings = self._analyze_with_warnings(damaged_run, None)
        parallel, parallel_warnings = self._analyze_with_warnings(damaged_run, jobs)
        assert_identical(serial, parallel)
        assert serial.excluded_ranks == parallel.excluded_ranks

    @settings(max_examples=30, deadline=None)
    @given(degraded=st.booleans(), inconsistent=st.booleans(), **_SEAM)
    def test_local_phase_placement_reaches_nothing(
        self, damaged_run, inconsistent_run, jobs, batch, degraded, inconsistent
    ):
        """The seam property on a damaged archive — ranks 3 and 6 fail
        admission — and on one whose rank 4 only the local phase finds
        inconsistent (and rank 6 fails admission): degraded, the same
        exclusions, result and warnings in the same order; strict, the same
        error for the same rank."""
        run, excluded = (inconsistent_run, [4, 6]) if inconsistent else (damaged_run, [3, 6])
        serial = _through_the_seam(run, 1, degraded)
        sharded = _through_the_seam(run, jobs, degraded, batch)
        assert serial[1] == sharded[1]
        if degraded:
            assert_identical(serial[0], sharded[0])
            assert serial[0].excluded_ranks == sharded[0].excluded_ranks == excluded
        else:
            assert isinstance(serial[0], tuple) and serial[0] == sharded[0]
            assert serial[0][1].startswith("rank 4: EXIT region") == inconsistent

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_admitted_rank_is_scanned_once(self, monkeypatch, jobs):
        """Every rank's record grammar is walked once, by the local phase's
        lockstep walk over its manifest blocks — which admission (strict or
        degraded) and the columnar decoder both read — in-process and
        inside ``analyze_shard``; the sequential walk is never entered."""
        import repro.analysis.optable as optable
        import repro.trace.encoding as encoding

        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
        work = {r: 0.004 for r in range(8)}
        run = run_app(mc, 8, make_imbalance_app(work, iterations=2), seed=2)
        walked = []
        real_walk = encoding.walk_records

        def counting_walk(blobs, tables):
            assert all(tables), "every rank has its manifest blocks"
            walked.extend(encoding.header_rank(blob) for blob in blobs)
            return real_walk(blobs, tables)

        def second_walk(*args):
            raise AssertionError("a rank's grammar was walked twice")

        monkeypatch.setattr(parallel_module, "walk_records", counting_walk)
        for module in (encoding, optable):
            monkeypatch.setattr(module, "scan_records", second_walk)
        monkeypatch.setattr(encoding, "_scan_from", second_walk)
        for degraded in (False, True):
            walked.clear()
            result = StreamingReplayAnalyzer(
                {machine: run.reader(machine) for machine in run.machines_used},
                degraded=degraded,
                jobs=jobs,
                pool=_PicklingPool(),
            ).analyze()
            assert result.excluded_ranks == []
            assert sorted(walked) == sorted(run.definitions.locations)

    @pytest.mark.parametrize("jobs", [2, 3, 4, 8])
    def test_degraded_timeline_matches_serial(self, damaged_run, jobs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialTraceWarning)
            serial = analyze(damaged_run, AnalysisRequest(degraded=True, timeline=True))
            parallel = analyze(
                damaged_run, AnalysisRequest(degraded=True, timeline=True, jobs=jobs)
            )
        assert serial.excluded_ranks and serial.excluded_ranks == parallel.excluded_ranks
        assert_timelines_agree(serial, parallel)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_worker_warnings_reach_parent(self, damaged_run, jobs):
        """PartialTraceWarnings raised inside workers must surface in the
        parent process, in the serial analyzer's order (the fault
        experiment counts them)."""
        serial, serial_warnings = self._analyze_with_warnings(damaged_run, None)
        parallel, parallel_warnings = self._analyze_with_warnings(damaged_run, jobs)
        assert serial_warnings == parallel_warnings
        assert any(
            issubclass(cat, PartialTraceWarning) for cat, _ in parallel_warnings
        )


class TestShardAddressableReads:
    def test_trace_shard_snapshot(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
        work = {r: 0.004 for r in range(8)}
        run = run_app(mc, 8, make_imbalance_app(work, iterations=2), seed=2)
        shard = run.trace_shard([1, 5, 6])
        assert shard.ranks == (1, 5, 6)
        assert sorted(shard.blobs) == [1, 5, 6]
        assert shard.missing == {}
        # Blobs are the on-archive bytes, byte for byte.
        for rank in shard.ranks:
            machine = run.definitions.machine_of(rank)
            assert shard.blobs[rank] == run.reader(machine).read_trace_blob(rank)

    def test_trace_shard_carries_checksum_manifests(self):
        """A flipped time byte still parses and still nests: only the block
        checksums can see it.  A shard built by ``trace_shard`` must exclude
        the rank for that reason, exactly as the serial analyzer does."""
        from repro.trace.archive import trace_filename
        from repro.trace.encoding import HEADER_SIZE

        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)
        work = {r: 0.004 for r in range(8)}
        run = run_app(mc, 8, make_imbalance_app(work, iterations=2), seed=2)
        victim = 5
        machine = run.definitions.machine_of(victim)
        damaged = bytearray(run.reader(machine).read_trace_blob(victim))
        damaged[HEADER_SIZE + 1] ^= 0x01  # lowest mantissa byte of the first stamp
        run.namespaces[machine].write_file(
            f"{run.archive_path}/{trace_filename(victim)}", bytes(damaged), overwrite=True
        )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialTraceWarning)
            serial = analyze(run, AnalysisRequest(degraded=True))
            ranks = tuple(sorted(run.definitions.locations))
            shard = run.trace_shard(ranks)
            partial = analyze_shard(
                ShardTask(
                    index=0,
                    ranks=ranks,
                    degraded=True,
                    definitions=run.definitions,
                    converters=HierarchicalInterpolation(strict=False)
                    .convert_all(run.reader(0).sync_data())
                    .converters,
                    traces=shard,
                )
            )
        assert sorted(shard.manifests) == list(ranks)
        assert serial.excluded_ranks == [victim]
        assert "checksum" in serial.completeness[victim].error
        assert partial.completeness[victim] == serial.completeness[victim]
        assert sorted(partial.timelines) == [r for r in ranks if r != victim]

