"""End-to-end deadline propagation through the analysis layers.

The acceptance shape of the deadline tentpole: an analysis given a
budget of ``D`` seconds against wedged workers returns a *partial* result
(severity so far, honest per-rank completeness, ``TimeBudgetExceeded`` in
the record) within ``D + grace`` — it never hangs and never dies — while
an analysis with no deadline (or a generous one) stays byte-identical to
the unbudgeted run.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.streaming import StreamingReplayAnalyzer
from repro.analysis.request import AnalysisRequest
from repro.api import analyze
from repro.errors import AnalysisError, TimeBudgetExceeded
from repro.resilience import Deadline

from tests.test_parallel_analysis import assert_identical
from tests.test_resilience_pool import _fast_config, _hang, _small_run


class TestRequestField:
    def test_deadline_must_be_positive(self):
        with pytest.raises(AnalysisError, match="deadline_s must be positive"):
            AnalysisRequest(deadline_s=0)
        with pytest.raises(AnalysisError, match="deadline_s must be positive"):
            AnalysisRequest(deadline_s=-3)

    def test_default_deadline_keeps_job_keys_stable(self):
        # deadline_s=None must not appear in to_config(), or every
        # content-addressed job key minted before this field existed
        # would change.
        assert "deadline_s" not in AnalysisRequest().to_config()
        assert AnalysisRequest(deadline_s=5.0).to_config()["deadline_s"] == 5.0


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

    def test_spent_budget_stops_within_one_quantum(self, monkeypatch):
        """The pump polls after every quantum: a budget already spent when
        the pump starts costs exactly one quantum of one rank, and every
        rank reports the events the replay really consumed."""
        import repro.analysis.streaming as streaming

        # These traces are 9 ops (29 events) a rank: cut them mid-trace.
        monkeypatch.setattr(streaming, "_QUANTUM_OPS", 2)
        run = _small_run()
        timelines = analyze(run).timelines
        events = {rank: timeline.event_count for rank, timeline in timelines.items()}
        deadline = Deadline(1e-9)
        assert deadline.expired()
        result = analyze(run, deadline=deadline)
        assert "deadline of" in result.interrupted
        consumed = {
            rank: entry.events for rank, entry in result.completeness.items()
        }
        started = [rank for rank, count in consumed.items() if count]
        assert len(started) == 1 and set(consumed) == set(events)
        (rank,) = started
        # Consumed through the EXIT that completed the quantum's last op.
        assert consumed[rank] == timelines[rank].mpi_ops.exit_event[1] + 1 < events[rank]
        for rank, entry in result.completeness.items():
            assert entry.completeness == consumed[rank] / events[rank]
            assert f"after {consumed[rank]} of {events[rank]} event(s)" in entry.error

    def test_expired_strict_run_decodes_nothing_after_expiry(self, monkeypatch):
        """Accounting for a cut pump uses the event counts the local phase
        already has: once the budget is gone, no trace is decoded again."""
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
            assert "of " in entry.error and "unknown" not in entry.error


def _hang_upper_shards(task):
    """Pool chaos hook: every shard but the first wedges."""
    if task.index >= 1:
        _hang(task)


class TestParallelDeadline:
    def test_wedged_workers_bounded_by_deadline(self, tmp_path):
        """The acceptance criterion: deadline D against wedged workers →
        partial result within D + grace, never a hang."""
        run = _small_run()
        analyzer = StreamingReplayAnalyzer(
            {m: run.reader(m) for m in run.machines_used},
            jobs=4,
            # Workers hang forever; timeout_s would allow 60s — only the
            # deadline can bound the run.
            pool_config=_fast_config(
                max_workers=4, timeout_s=60.0, max_retries=0, chaos_hook=_hang
            ),
            deadline=Deadline(3.0),
        )
        began = time.monotonic()
        try:
            result = analyzer.analyze()
            interrupted = result.interrupted
            completeness = result.completeness
        except TimeBudgetExceeded as exc:
            # Zero shards settled — equally acceptable, equally bounded.
            interrupted = exc.reason
            completeness = None
        elapsed = time.monotonic() - began
        assert elapsed < 3.0 + 15.0, f"took {elapsed:.1f}s, deadline was 3s"
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

    def test_cut_pool_run_salvages_what_settled(self, monkeypatch):
        """The pool run is cut by the pool, the pump after a quantum: the
        shard that settled is replayed for one quantum — not to its end —
        and the ranks of the one that did not say so."""
        import repro.analysis.streaming as streaming

        monkeypatch.setattr(streaming, "_QUANTUM_OPS", 2)
        run = _small_run()
        result = StreamingReplayAnalyzer(
            {m: run.reader(m) for m in run.machines_used},
            jobs=2,
            pool_config=_fast_config(
                timeout_s=60.0, max_retries=0, chaos_hook=_hang_upper_shards
            ),
            deadline=Deadline(1.0),
        ).analyze()
        assert "deadline of 1.0s" in result.interrupted and result.degraded
        assert len(result.execution.tasks) == 2
        entries = result.completeness
        assert sorted(result.timelines) == [0, 1, 2, 3] and sorted(entries) == list(range(8))
        for rank in (0, 1, 2, 3):
            assert entries[rank].analyzed and "event(s)" in entries[rank].error
        assert sum(1 for rank in (0, 1, 2, 3) if entries[rank].events) == 1
        for rank in (4, 5, 6, 7):
            assert not entries[rank].analyzed and entries[rank].events == 0
            assert entries[rank].error == (
                f"TimeBudgetExceeded: {result.interrupted} before its shard finished"
            )

    def test_budget_spent_as_pool_returns_stops_within_one_quantum(self, monkeypatch):
        """The ``jobs=2`` twin of ``test_spent_budget_stops_within_one_quantum``:
        every shard settles, the budget ends as the pool run returns, and the
        pump — the one pump — stops after a quantum with the same accounting.
        (Not a parameter of that test: a budget spent *before* ``analyze``
        cuts the pool run first and, no shard settled, raises
        ``TimeBudgetExceeded``.)"""
        import repro.analysis.streaming as streaming
        from repro.resilience import SupervisedPool

        monkeypatch.setattr(streaming, "_QUANTUM_OPS", 2)
        run = _small_run()
        timelines = analyze(run).timelines
        events = {rank: timeline.event_count for rank, timeline in timelines.items()}
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
        consumed = {
            rank: entry.events for rank, entry in result.completeness.items()
        }
        started = [rank for rank, count in consumed.items() if count]
        assert len(started) == 1 and set(consumed) == set(events)
        (rank,) = started
        assert consumed[rank] == timelines[rank].mpi_ops.exit_event[1] + 1 < events[rank]
        for rank, entry in result.completeness.items():
            assert entry.analyzed
            assert entry.completeness == consumed[rank] / events[rank]
            assert f"after {consumed[rank]} of {events[rank]} event(s)" in entry.error

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
