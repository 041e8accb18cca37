"""The chaos package: the severity ladder, seed parsing, and one episode.

The full matrix (``repro chaos --seeds 0..4``) runs in CI; here we pin
the deterministic pieces — ladder shape, seed→schedule mapping, the CLI's
seed-spec grammar — and run the two cheapest episodes end to end (the
control and one degrading level) so the harness itself is covered by
tier-1.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.chaos import run_chaos, run_episode, schedule_for_seed
from repro.cli import _parse_seeds
from repro.errors import PartialTraceWarning
from repro.faults.plan import TraceCorruption
from repro.resilience import CheckpointJournal


class TestLadder:
    def test_level_is_seed_mod_five(self):
        for seed in range(10):
            assert schedule_for_seed(seed).level == seed % 5
            assert schedule_for_seed(seed).seed == seed

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            schedule_for_seed(-1)

    def test_control_episode_is_empty(self):
        control = schedule_for_seed(0)
        assert control.empty
        assert not control.degrades_traces
        assert control.describe() == "no chaos"

    def test_process_chaos_alone_does_not_degrade(self):
        # L1 kills a worker but never touches trace bytes: the analysis
        # must stay in exact (non-degraded) mode.
        kill_only = schedule_for_seed(1)
        assert not kill_only.empty
        assert kill_only.kill_workers == 1
        assert not kill_only.degrades_traces

    def test_corruption_levels_degrade(self):
        for seed in (2, 3, 4):
            schedule = schedule_for_seed(seed)
            assert schedule.degrades_traces
            assert schedule.fault_plan.of_type(TraceCorruption)

    def test_top_level_composes_everything(self):
        worst = schedule_for_seed(4)
        assert worst.kill_workers and worst.stall_workers
        assert worst.torn_tail_bytes > 0
        assert worst.deadline_s is not None
        text = worst.describe()
        for fragment in ("kill", "stall", "journal", "deadline"):
            assert fragment in text

    def test_schedule_is_frozen(self):
        with pytest.raises(Exception):
            schedule_for_seed(0).kill_workers = 9


class TestSeedSpec:
    def test_range(self):
        assert _parse_seeds("0..4") == [0, 1, 2, 3, 4]

    def test_comma_list(self):
        assert _parse_seeds("7, 2,5") == [7, 2, 5]

    def test_single(self):
        assert _parse_seeds("3") == [3]

    def test_stray_commas_tolerated(self):
        assert _parse_seeds("1,,2") == [1, 2]

    def test_invalid(self):
        for bad in ("", "4..0", "a..b"):
            with pytest.raises(ValueError):
                _parse_seeds(bad)


class TestEpisodes:
    def test_control_episode_is_byte_identical(self, tmp_path):
        report = run_chaos([0], jobs=2, workdir=str(tmp_path))
        assert report.ok, report.violations
        (episode,) = report.episodes
        assert episode.byte_identical is True
        assert episode.interrupted is None
        assert episode.complete_ranks == episode.total_ranks

    def test_degrading_episode_loses_completeness_honestly(self, tmp_path):
        with pytest.warns(PartialTraceWarning, match="rank 3 excluded"):
            episode = run_episode(
                schedule_for_seed(2), jobs=2, workdir=str(tmp_path)
            )
        assert not episode.violations, episode.violations
        # Corrupted traces: diverged from the clean baseline, and the
        # damage shows up as lost per-rank completeness.
        assert episode.byte_identical is False
        assert episode.complete_ranks < episode.total_ranks
        assert "L2" in episode.summary()


class TestJournalUnderSigkill:
    """A writer killed anywhere in a loop of appends (and the compactions
    they trigger) leaves a loadable journal holding exactly the state it
    acknowledged, or that plus the one record in flight."""

    SLOTS = 8

    WRITER = textwrap.dedent(
        """
        import sys
        from repro.resilience.checkpoint import CheckpointJournal
        journal = CheckpointJournal(sys.argv[1], exclusive=True)
        start, slots = int(sys.argv[2]), int(sys.argv[3])
        for n in range(start, 10**9):
            journal.record({"slot": n % slots}, {"n": n, "pad": "p" * 300})
            print(n, flush=True)  # the acknowledgement
        """
    )

    def _state_after(self, count):
        """Journal contents once records 0..count-1 have been made."""
        return {
            '{"slot":%d}' % (n % self.SLOTS): {"n": n, "pad": "p" * 300}
            for n in range(count)
        }

    def test_killed_writer_leaves_a_prefix_consistent_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        done = 0
        # Each round resumes on the journal the last kill left behind; the
        # third runs long enough (~200 KB of lines) to be killed after
        # compaction has replaced the file at least once.
        for acks_before_kill in (1, 37, 600):
            writer = subprocess.Popen(
                [sys.executable, "-c", self.WRITER, path, str(done), str(self.SLOTS)],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            try:
                for _ in range(acks_before_kill):
                    assert writer.stdout.readline().strip()
            finally:
                writer.send_signal(signal.SIGKILL)
                rest = writer.stdout.read()
                writer.wait(timeout=10)
            acked = done + acks_before_kill + len(rest.split())
            with CheckpointJournal(path) as journal:  # the lock died with it
                cells = journal.cells()
            assert cells in (self._state_after(acked), self._state_after(acked + 1))
            done = acked + (cells == self._state_after(acked + 1))
        assert os.path.getsize(path) < done * 300  # superseded lines were dropped
