"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, main


class TestCli:
    def test_table3_fast_path(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Experiment 1" in out and "Experiment 2" in out

    def test_table1(self, capsys):
        assert main(["table1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FZJ - FH-BRS" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_commands_registry_complete(self):
        assert set(COMMANDS) == {
            "table1",
            "table2",
            "table3",
            "figure1",
            "figure3",
            "figure4",
            "figure6",
            "figure7",
            "faults",
        }

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "A-B=" in capsys.readouterr().out

    def test_figure4(self, capsys):
        for flags in ([], ["--seed", "3", "--jobs", "2"]):
            assert main(["figure4", *flags]) == 0
            out = capsys.readouterr().out
            assert "Late Sender" in out and "Wait at NxN" in out

    def test_nan_timeout_is_an_error_exit(self, capsys):
        assert main(["analyze", "figure6", "--timeout", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: timeout must be a number of seconds > 0 or None, got nan"
        )

    @pytest.mark.slow
    def test_figure6_output(self, capsys):
        assert main(["figure6"]) == 0
        out = capsys.readouterr().out
        assert "grid late sender" in out
        assert "Late Sender" in out
