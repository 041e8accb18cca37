"""End-to-end deadline propagation through the analysis layers.

The acceptance shape of the deadline tentpole: an analysis given a
budget of ``D`` seconds against wedged workers returns a *partial* result
(severity so far, honest per-rank completeness, ``TimeBudgetExceeded`` in
the record) within ``D + grace`` — it never hangs and never dies — while
an analysis with no deadline (or a generous one) stays byte-identical to
the unbudgeted run.  One cut rule holds at every ``jobs``: a deadline
stops the local phase between whole ranks.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.analysis.parallel import analyze_shard
from repro.analysis.request import AnalysisRequest
from repro.api import analyze
from repro.errors import AnalysisError, TimeBudgetExceeded
from repro.resilience import Deadline, SupervisedPool

from tests.test_parallel_analysis import assert_identical
from tests.test_resilience_pool import _fast_config, _hang, _small_run


def _assert_cut_between_whole_ranks(result, whole, admitted):
    """*admitted* ranks analyzed whole, every other rank never looked at,
    as the interrupted *result*'s completeness records say (*whole*: the
    same run analyzed without a budget)."""
    reason = result.interrupted
    assert sorted(result.timelines) == admitted
    assert sorted(result.completeness) == sorted(whole.timelines)
    for rank, entry in result.completeness.items():
        assert not entry.complete
        if rank in admitted:
            assert entry.analyzed and entry.events == whole.timelines[rank].event_count
            assert entry.error == f"TimeBudgetExceeded: {reason} after its local phase ran"
        else:
            assert not entry.analyzed and entry.events == 0
            assert entry.error == f"TimeBudgetExceeded: {reason} before its local phase ran"


class TestRequestField:
    def test_deadline_must_be_positive(self):
        with pytest.raises(AnalysisError, match="deadline_s must be a number of seconds > 0"):
            AnalysisRequest(deadline_s=0)
        with pytest.raises(AnalysisError, match="deadline_s must be a number of seconds > 0"):
            AnalysisRequest(deadline_s=-3)

    def test_default_deadline_keeps_job_keys_stable(self):
        # deadline_s=None must not appear in to_config(), or every
        # content-addressed job key minted before this field existed
        # would change.
        assert "deadline_s" not in AnalysisRequest().to_config()
        assert AnalysisRequest(deadline_s=5.0).to_config()["deadline_s"] == 5.0

    @pytest.mark.parametrize("value", ["false", 1, 0, None])
    @pytest.mark.parametrize("name", ["degraded", "verify_archive", "timeline", "bounded"])
    def test_flags_must_be_bool(self, name, value):
        # A truthy string used to run the analysis with the flag on and
        # carry the string into to_config().
        with pytest.raises(AnalysisError, match=f"{name} must be True or False"):
            AnalysisRequest(**{name: value})

    @pytest.mark.parametrize("name, value", [("window_s", "1"), ("timeout", "5")])
    def test_string_seconds_are_an_analysis_error(self, name, value):
        # A string used to reach a comparison and raise TypeError.
        with pytest.raises(AnalysisError, match=f"{name} must be a number of seconds > 0"):
            AnalysisRequest(**{name: value})

    def test_duration_no_float_can_hold_is_refused_at_the_library_edge(self):
        # The job store refused it while the library took it, and then
        # ``Deadline`` raised OverflowError mid-experiment.
        from repro.api import run_experiment

        with pytest.raises(AnalysisError, match="deadline_s must be a number of seconds > 0"):
            run_experiment("table2", AnalysisRequest(deadline_s=10**400), seed=1)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("name", ["timeout", "deadline_s", "window_s", "stride_s"])
    def test_seconds_must_not_be_bool(self, name, value):
        # True used to pass as one second.
        with pytest.raises(AnalysisError, match=f"{name} must be a number of seconds"):
            AnalysisRequest(**{name: value})


class TestSerialDeadline:
    def test_generous_deadline_is_byte_identical(self):
        run = _small_run()
        plain = analyze(run)
        budgeted = analyze(run, AnalysisRequest(deadline_s=300.0))
        assert budgeted.interrupted is None
        assert_identical(plain, budgeted)

    def test_cancelled_deadline_returns_partial(self):
        run = _small_run()
        deadline = Deadline(3600.0)
        deadline.cancel("cancelled by client")
        result = analyze(run, deadline=deadline)
        assert result.interrupted == "cancelled by client"
        assert result.degraded  # partials settle degraded-style
        # Honest completeness: every analyzed rank says how far it got.
        assert result.completeness
        for entry in result.completeness.values():
            assert not entry.complete
            assert "TimeBudgetExceeded" in entry.error
            assert 0.0 <= entry.completeness <= 1.0

    def test_tiny_budget_interrupts_mid_stream(self):
        run = _small_run()
        result = analyze(run, AnalysisRequest(deadline_s=1e-9))
        assert result.interrupted is not None
        assert "deadline of" in result.interrupted

    def test_spent_budget_stops_within_one_batch(self, monkeypatch):
        """The local phase polls after every batch: a budget already spent
        when it starts costs exactly one batch — here one rank — and the
        global phase runs over that rank, whole."""
        import repro.analysis.parallel as parallel

        run = _small_run()
        whole = analyze(run)
        monkeypatch.setattr(parallel, "_BATCH_BYTES", 1)  # one rank a batch
        deadline = Deadline(1e-9)
        assert deadline.expired()
        result = analyze(run, deadline=deadline)
        assert "deadline of" in result.interrupted and result.degraded
        _assert_cut_between_whole_ranks(result, whole, [0])

    def test_deadline_ending_in_batch_one_decodes_one_batch(self, monkeypatch):
        """Cancelled while the first batch is decoded, the local phase
        finishes that batch and takes no other: one ``decode_batch`` call
        for eight one-rank batches."""
        import repro.analysis.optable as optable
        import repro.analysis.parallel as parallel

        run = _small_run()
        whole = analyze(run)
        monkeypatch.setattr(parallel, "_BATCH_BYTES", 1)
        deadline = Deadline(3600.0)
        decoded = []
        real_batch = optable.decode_batch

        def decode_then_cancel(blobs, *args, **kwargs):
            decoded.append(len(blobs))
            deadline.cancel("cancelled by client")
            return real_batch(blobs, *args, **kwargs)

        monkeypatch.setattr(optable, "decode_batch", decode_then_cancel)
        result = analyze(run, deadline=deadline)
        assert decoded == [1]
        assert result.interrupted == "cancelled by client"
        _assert_cut_between_whole_ranks(result, whole, [0])

    def test_expired_strict_run_decodes_nothing_after_expiry(self, monkeypatch):
        """Accounting for an interrupted run uses the event counts the local
        phase already has: once the budget is gone, no trace is decoded
        again."""
        import repro.analysis.optable as optable
        import repro.analysis.parallel as parallel
        import repro.trace.encoding as encoding

        run = _small_run()
        deadline = Deadline(3600.0)
        decodes_after_expiry = []

        def counting(name, original):
            def wrapper(blob, *args, **kwargs):
                if deadline.expired():
                    decodes_after_expiry.append(name)
                return original(blob, *args, **kwargs)
            return wrapper

        real_batch = optable.decode_batch

        def last_batch(blobs, *args, **kwargs):
            columns = real_batch(blobs, *args, **kwargs)
            if encoding.header_rank(blobs[-1]) == max(run.definitions.locations):
                deadline.cancel("budget spent")  # as the prepass ends
            return columns

        monkeypatch.setattr(optable, "decode_batch", counting("columns", last_batch))
        for module in (optable, encoding):
            monkeypatch.setattr(
                module, "iter_events", counting("iter_events", encoding.iter_events)
            )
        monkeypatch.setattr(
            parallel, "header_rank", counting("header_rank", encoding.header_rank)
        )
        monkeypatch.setattr(
            encoding, "_chunk_iter", counting("_chunk_iter", encoding._chunk_iter)
        )
        result = analyze(run, deadline=deadline)
        assert result.interrupted == "budget spent"
        assert decodes_after_expiry == []
        for entry in result.completeness.values():
            assert entry.error == "TimeBudgetExceeded: budget spent after its local phase ran"


def _hang_upper_shards(task):
    """Pool chaos hook: every shard but the first wedges."""
    if task.index >= 1:
        _hang(task)


class TestParallelDeadline:
    def test_wedged_workers_bounded_by_deadline(self, tmp_path):
        """The acceptance criterion: deadline D against wedged workers →
        partial result within D + grace, never a hang."""
        run = _small_run()
        # Workers hang forever; timeout_s would allow 60s — only the
        # deadline can bound the run.
        pool = SupervisedPool(analyze_shard, _fast_config(
            max_workers=4, timeout_s=60.0, max_retries=0, chaos_hook=_hang
        ))
        began = time.monotonic()
        try:
            result = analyze(
                run, AnalysisRequest(jobs=4), pool=pool, deadline=Deadline(3.0)
            )
            interrupted = result.interrupted
            completeness = result.completeness
        except TimeBudgetExceeded as exc:
            # Zero shards settled — equally acceptable, equally bounded.
            interrupted = exc.reason
            completeness = None
        elapsed = time.monotonic() - began
        assert elapsed < 3.0 + 15.0, f"took {elapsed:.1f}s, deadline was 3s"
        assert not multiprocessing.active_children()
        assert interrupted is not None and "deadline of 3.0s" in interrupted
        if completeness is not None:
            unfinished = [
                entry
                for entry in completeness.values()
                if not entry.analyzed
            ]
            assert unfinished, "some shard should have been cut off"
            assert all(
                "TimeBudgetExceeded" in entry.error for entry in unfinished
            )

    def test_cut_pool_run_salvages_what_settled(self):
        """The pool run is cut by the pool: the shard that settled is
        analyzed whole, and the ranks of the one that did not say so."""
        run = _small_run()
        whole = analyze(run)
        pool = SupervisedPool(analyze_shard, _fast_config(
            timeout_s=60.0, max_retries=0, chaos_hook=_hang_upper_shards
        ))
        result = analyze(run, AnalysisRequest(jobs=2), pool=pool, deadline=Deadline(1.0))
        assert "deadline of 1.0s" in result.interrupted and result.degraded
        assert len(result.execution.tasks) == 2
        _assert_cut_between_whole_ranks(result, whole, [0, 1, 2, 3])

    def test_budget_spent_as_pool_returns_admits_every_rank_whole(self, monkeypatch):
        """Every shard settles and the budget ends as the pool run returns:
        it is polled then, as after the in-process local phase's last batch,
        so the result is marked interrupted with every rank analyzed whole —
        the unbudgeted run's severities.  (A budget spent *before*
        ``analyze`` cuts the run after the first batch of shard 0, which
        this process admits: ``jobs=1``'s partial result, as the next test
        pins.)"""
        run = _small_run()
        whole = analyze(run)
        deadline = Deadline(3600.0)
        pool_run = SupervisedPool.run

        def run_then_cancel(pool, tasks, **budgets):
            try:
                return pool_run(pool, tasks, **budgets)
            finally:
                budgets["deadline"].cancel("cancelled by client")

        monkeypatch.setattr(SupervisedPool, "run", run_then_cancel)
        result = analyze(run, AnalysisRequest(jobs=2), deadline=deadline)
        assert result.interrupted == "cancelled by client"
        assert result.degraded
        assert result.execution is not None and result.execution.clean
        assert result.cube.data == whole.cube.data
        _assert_cut_between_whole_ranks(result, whole, list(range(8)))

    def test_budget_spent_before_a_pool_run_returns_jobs_one_partial(self, monkeypatch):
        """One cut rule, literally: a budget already spent when a ``jobs=2``
        run starts stops this process's shard after its first batch, as it
        stops ``jobs=1``'s local phase, and no worker is dispatched."""
        import repro.analysis.parallel as parallel

        run = _small_run()
        whole = analyze(run)
        monkeypatch.setattr(parallel, "_BATCH_BYTES", 1)  # one rank a batch
        spent = Deadline(3600.0)
        spent.cancel("budget spent")
        serial = analyze(run, deadline=spent)
        sharded = analyze(run, AnalysisRequest(jobs=2), deadline=spent)
        assert_identical(serial, sharded)
        assert sharded.interrupted == serial.interrupted == "budget spent"
        _assert_cut_between_whole_ranks(sharded, whole, [0])
        assert [task.attempts for task in sharded.execution.tasks] == [1, 0]
        assert not multiprocessing.active_children()

    def test_generous_parallel_deadline_is_byte_identical(self):
        run = _small_run()
        plain = analyze(run, AnalysisRequest(jobs=4))
        budgeted = analyze(run, AnalysisRequest(jobs=4, deadline_s=300.0))
        assert budgeted.interrupted is None
        assert_identical(plain, budgeted)


class TestExperimentDeadline:
    def test_run_experiment_shares_one_budget(self):
        # A pre-cancelled deadline handed to run_experiment must stop the
        # whole experiment, not one phase of it.
        from repro.api import run_experiment

        deadline = Deadline(3600.0)
        deadline.cancel("operator stop")
        result = run_experiment(
            "figure4", AnalysisRequest(jobs=1), seed=3, deadline=deadline
        )
        # figure4's analyze() phases observe the dead budget and settle
        # partial; the rendered text still comes back (degraded-style).
        assert isinstance(result, str)
