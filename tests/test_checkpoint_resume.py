"""Checkpoint/resume: the journal, resumable sweeps, and the CLI flag.

The contract: a sweep interrupted at any cell boundary and rerun with the
same journal (a) never redoes completed cells, and (b) produces outputs
identical to an uninterrupted run — deterministic cells make cached and
recomputed payloads interchangeable.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile

import pytest

from repro import cli
from repro.api import CheckpointJournal, run_experiment
from repro.errors import CheckpointError
from repro.experiments import faults as faults_module
from repro.experiments import table2 as table2_module
from repro.experiments.faults import run_fault_experiment
from repro.experiments.table2 import run_table2
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience import open_journal


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        cell = {"experiment": "x", "seed": 3}
        assert not journal.has(cell)
        assert journal.get(cell) is None
        assert journal.get(cell, default="miss") == "miss"
        journal.record(cell, {"answer": 42})
        assert journal.has(cell)
        assert journal.get(cell) == {"answer": 42}
        assert len(journal) == 1
        # A fresh instance reads the same state back off disk.
        reloaded = CheckpointJournal(path)
        assert reloaded.get(cell) == {"answer": 42}
        assert reloaded.cells() == journal.cells()

    def test_cell_key_order_is_canonical(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.record({"a": 1, "b": 2}, "payload")
        assert journal.has({"b": 2, "a": 1})

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal(path).record({"ok": 1}, "kept")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"cell": {"torn": 1}, "payl')  # interrupted append
        journal = CheckpointJournal(path)
        assert journal.get({"ok": 1}) == "kept"
        assert not journal.has({"torn": 1})

    def test_garbage_lines_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"cell": "not-a-dict", "payload": 1}\n')
            handle.write(
                json.dumps({"cell": {"good": 1}, "payload": "yes"}) + "\n"
            )
        journal = CheckpointJournal(path)
        assert len(journal) == 1
        assert journal.get({"good": 1}) == "yes"

    def test_writes_are_atomic(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        for i in range(5):
            journal.record({"i": i}, i)
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []
        assert len(CheckpointJournal(path)) == 5

    def test_unserializable_cell_rejected(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(CheckpointError):
            journal.record({"bad": object()}, "x")

    def test_unserializable_payload_rejected(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(CheckpointError):
            journal.record({"ok": 1}, object())
        # The failed record must not poison the journal.
        assert not journal.has({"ok": 1})

    def test_open_journal_propagates_none(self, tmp_path):
        assert open_journal(None) is None
        assert open_journal("") is None
        journal = open_journal(str(tmp_path / "j.jsonl"))
        assert isinstance(journal, CheckpointJournal)


def _parsed_lines(path):
    """Every line of the file as JSON — fails on a torn or glued line."""
    with open(path, "rb") as handle:
        return [json.loads(line) for line in handle]


class TestLogStructuredJournal:
    """record() appends one fsync'd line; _flush is the compactor only."""

    def test_any_torn_tail_then_record_loses_at_most_the_torn_cell(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            for i in range(4):
                journal.record({"i": i}, {"value": "v" * 10, "i": i})
        with open(path, "rb") as handle:
            whole = handle.read()
        last_line = len(whole) - (whole.rfind(b"\n", 0, len(whole) - 1) + 1)
        assert last_line > 20
        for torn in range(1, last_line + 1):
            with open(path, "wb") as handle:
                handle.write(whole[:-torn])
            with CheckpointJournal(path) as journal:
                journal.record({"new": torn}, "fresh")
            reloaded = CheckpointJournal(path)
            for i in range(3):
                assert reloaded.get({"i": i}) == {"value": "v" * 10, "i": i}
            assert reloaded.get({"new": torn}) == "fresh", torn
            # Losing only the newline leaves cell 3 parsable; any deeper
            # tear loses cell 3 and nothing else.
            assert len(reloaded) == (5 if torn == 1 else 4), torn
            assert len(_parsed_lines(path)) == len(reloaded)  # nothing glued

    def test_rewriting_one_cell_keeps_the_file_bounded(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        bound = None
        with CheckpointJournal(path) as journal:
            for n in range(1000):
                journal.record({"cell": 0}, {"blob": "x" * 500, "n": n % 10})
                if bound is None:  # the file holds exactly the one live line
                    bound = (
                        checkpoint_module._COMPACT_FACTOR * os.path.getsize(path)
                        + checkpoint_module._COMPACT_SLACK
                    )
                assert os.path.getsize(path) <= bound, n
            # 1000 lines would be ~8x the slack: compaction did run.
            assert os.path.getsize(path) < 1000 * 500
            assert CheckpointJournal(path).cells() == journal.cells()

    def test_record_cost_does_not_grow_with_the_journal(self, tmp_path, monkeypatch):
        counts = {"dumps": 0, "compactions": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        def cost_of_one_record(size):
            path = str(tmp_path / f"j{size}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                for i in range(size):
                    handle.write(json.dumps({"cell": {"i": i}, "payload": "p" * 50}) + "\n")
            with CheckpointJournal(path) as journal:
                assert len(journal) == size
                before = os.path.getsize(path)
                counts.update(dumps=0, compactions=0)
                journal.record({"i": size - 1}, "changed")
                return counts["dumps"], counts["compactions"], os.path.getsize(path) - before

        monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
        monkeypatch.setattr(tempfile, "mkstemp", counted("compactions", tempfile.mkstemp))
        dumps_1, compactions_1, grew_1 = cost_of_one_record(1)
        dumps_1000, compactions_1000, grew_1000 = cost_of_one_record(1000)
        assert compactions_1 == compactions_1000 == 0
        assert 0 < dumps_1000 <= 2 * dumps_1  # the parent: 2 + one per cell
        assert 0 < grew_1000 <= 2 * grew_1  # one line, not the journal

    def test_pre_change_rewrite_format_loads_and_is_appended_to(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        cells = {json.dumps({"i": i}, separators=(",", ":")): {"text": f"t{i}"} for i in range(5)}
        # Exactly what the parent's rewrite-everything _flush wrote.
        lines = [
            json.dumps({"version": 1, "cell": json.loads(key), "payload": value}, sort_keys=True)
            for key, value in cells.items()
        ]
        old = ("\n".join(lines) + "\n").encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(old)
        with CheckpointJournal(path) as journal:
            assert journal.cells() == cells
            journal.record({"i": 5}, {"text": "t5"})
        with open(path, "rb") as handle:
            new = handle.read()
        assert new.startswith(old) and new.count(b"\n") == 6
        assert CheckpointJournal(path).get({"i": 5}) == {"text": "t5"}

    def test_lock_free_reader_sees_a_consistent_snapshot(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        seen = []
        real_write = os.write

        def short_write(fd, data):
            # Half the line lands, then a reader opens the file mid-append.
            written = real_write(fd, bytes(data[: max(1, len(data) // 2)]))
            seen.append(CheckpointJournal(path).cells())
            return written

        with CheckpointJournal(path, exclusive=True) as writer:
            writer.record({"i": 0}, "zero")
            writer.record({"i": 1}, "one")
            between = CheckpointJournal(path)  # between two appends
            monkeypatch.setattr(os, "write", short_write)
            writer.record({"i": 2}, "two" * 50)
            monkeypatch.undo()
            assert between.cells() == {'{"i":0}': "zero", '{"i":1}': "one"}
            # Mid-append readers saw the old cells, and the new one only whole.
            assert len(seen) >= 2
            for cells in seen:
                assert cells == between.cells() or cells == writer.cells()
            assert CheckpointJournal(path).cells() == writer.cells()
            assert len(_parsed_lines(path)) == 3

    def test_failed_append_raises_and_the_next_record_loses_nothing(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "j.jsonl")
        real_write = os.write

        def torn_write(fd, data):
            real_write(fd, bytes(data[:10]))
            raise OSError(errno.ENOSPC, "No space left on device")

        with CheckpointJournal(path) as journal:
            for i in range(3):
                journal.record({"i": i}, f"kept{i}")
            monkeypatch.setattr(os, "write", torn_write)
            with pytest.raises(CheckpointError, match="cannot append"):
                journal.record({"i": 3}, "unacknowledged")
            monkeypatch.undo()
            # The torn ten bytes are on disk; a reader skips them.
            assert len(CheckpointJournal(path)) == 3
            journal.record({"i": 4}, "after")
            reloaded = CheckpointJournal(path)
            assert reloaded.cells() == journal.cells()
            for i in range(3):
                assert reloaded.get({"i": i}) == f"kept{i}"
            assert reloaded.get({"i": 4}) == "after"
            assert len(_parsed_lines(path)) == len(reloaded)  # torn bytes gone

    def test_directory_fsynced_on_create_and_compaction_only(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.path.isdir(f"/proc/self/fd/{fd}"))
            return real_fsync(fd)

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc to tell a directory descriptor from a file")
        monkeypatch.setattr(os, "fsync", recording_fsync)
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record({"i": 0}, "created")
            assert synced == [False, True]  # temp file, then its directory
            del synced[:]
            journal.record({"i": 1}, "appended")
            journal.record({"i": 2}, "appended")
            assert synced == [False, False]  # one file fsync per append
            del synced[:]
            journal._flush()
            assert synced == [False, True]


def _small_bench():
    return table2_module.ClockBenchConfig(
        rounds=12, exchanges_per_round=1, size_bytes=64, inter_round_gap_s=0.05
    )


class TestTable2Resume:
    def test_completed_schemes_skipped(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        rows1, _run, analyses1 = run_table2(
            seed=7,
            config=_small_bench(),
            nodes_per_metahost=2,
            journal=CheckpointJournal(path),
        )
        assert len(analyses1) == 3  # all schemes computed the first time

        # Resume must not analyze anything: a bombing analyze() proves it.
        def bomb(*args, **kwargs):
            raise AssertionError("resume recomputed a completed cell")

        monkeypatch.setattr(table2_module, "analyze", bomb)
        rows2, _run, analyses2 = run_table2(
            seed=7,
            config=_small_bench(),
            nodes_per_metahost=2,
            journal=CheckpointJournal(path),
        )
        assert analyses2 == {}
        assert rows2 == rows1

    def test_interrupted_sweep_matches_uninterrupted(self, tmp_path, monkeypatch):
        baseline, _run, _a = run_table2(
            seed=7, config=_small_bench(), nodes_per_metahost=2
        )

        path = str(tmp_path / "j.jsonl")
        real_analyze = table2_module.analyze
        calls = {"n": 0}

        def interrupt_after_one(*args, **kwargs):
            if calls["n"] >= 1:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(table2_module, "analyze", interrupt_after_one)
        with pytest.raises(KeyboardInterrupt):
            run_table2(
                seed=7,
                config=_small_bench(),
                nodes_per_metahost=2,
                journal=CheckpointJournal(path),
            )
        assert len(CheckpointJournal(path)) == 1  # one scheme made it

        monkeypatch.setattr(table2_module, "analyze", real_analyze)
        resumed, _run, analyses = run_table2(
            seed=7,
            config=_small_bench(),
            nodes_per_metahost=2,
            journal=CheckpointJournal(path),
        )
        assert resumed == baseline
        assert len(analyses) == 2  # only the remaining schemes ran

    def test_different_config_is_a_different_cell(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        run_table2(
            seed=7,
            config=_small_bench(),
            nodes_per_metahost=2,
            journal=CheckpointJournal(path),
        )
        journal = CheckpointJournal(path)
        _rows, _run, analyses = run_table2(
            seed=8,  # different seed → every cell misses
            config=_small_bench(),
            nodes_per_metahost=2,
            journal=journal,
        )
        assert len(analyses) == 3
        assert len(journal) == 6


class TestFaultLadderResume:
    def test_completed_plans_skipped_and_text_identical(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "j.jsonl")
        plans = faults_module.escalating_fault_plans(11)[:2]  # clean + lossy
        report1 = run_fault_experiment(
            seed=11,
            plans=plans,
            coupling_intervals=1,
            journal=CheckpointJournal(path),
        )
        assert len(CheckpointJournal(path)) == 2

        def bomb(*args, **kwargs):
            raise AssertionError("resume re-ran a completed plan")

        monkeypatch.setattr(faults_module, "MetaMPIRuntime", bomb)
        report2 = run_fault_experiment(
            seed=11,
            plans=plans,
            coupling_intervals=1,
            journal=CheckpointJournal(path),
        )
        assert report2.text() == report1.text()

    def test_aborted_plan_is_journaled(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plans = [faults_module.escalating_fault_plans(11)[-1]]  # link-death
        report = run_fault_experiment(
            seed=11,
            plans=plans,
            coupling_intervals=1,
            journal=CheckpointJournal(path),
        )
        assert not report.runs[0].completed
        assert report.runs[0].error
        # The deterministic abort is a settled outcome: resumable.
        assert len(CheckpointJournal(path)) == 1


class TestFacadeResume:
    def test_run_experiment_serves_cached_text(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        text = run_experiment("table1", journal=CheckpointJournal(path))
        journal = CheckpointJournal(path)
        cell = {"experiment": "table1", "seed": 0}
        assert journal.get(cell) == {"text": text}
        # Prove the rerun reads the journal: plant a sentinel payload.
        journal.record(cell, {"text": "sentinel"})
        assert (
            run_experiment("table1", journal=CheckpointJournal(path))
            == "sentinel"
        )

    def test_no_journal_means_no_cache(self, tmp_path):
        text1 = run_experiment("table1")
        text2 = run_experiment("table1")
        assert text1 == text2  # deterministic, but computed both times


class TestCliResume:
    def test_resume_flag_creates_and_reuses_journal(
        self, tmp_path, capsys, monkeypatch
    ):
        path = str(tmp_path / "cli-journal.jsonl")
        assert cli.main(["table1", "--resume", "--journal", path]) == 0
        first = capsys.readouterr().out
        assert os.path.exists(path)
        assert len(CheckpointJournal(path)) == 1

        # Second run must come from the journal: sentinel the cached text.
        # (Close the journal afterwards — --resume takes the writer lock.)
        with CheckpointJournal(path) as journal:
            cell = {"experiment": "table1", "seed": 0}
            journal.record(cell, {"text": "from-the-journal"})
        assert cli.main(["table1", "--resume", "--journal", path]) == 0
        second = capsys.readouterr().out
        assert "from-the-journal" in second
        assert first != second

    def test_without_resume_no_journal_is_written(self, tmp_path, capsys):
        path = str(tmp_path / "cli-journal.jsonl")
        assert cli.main(["table1", "--journal", path]) == 0
        capsys.readouterr()
        assert not os.path.exists(path)

    def test_new_flags_parse(self, capsys):
        assert (
            cli.main(["table1", "--timeout", "60", "--max-retries", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert "table1" in out
