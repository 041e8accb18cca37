"""``repro check`` CLI: exit codes and the schema-stable JSON format."""

from __future__ import annotations

import json
import re
import textwrap

import pytest

from repro.cli import main

#: The JSON output contract: exactly these top-level keys, exactly these
#: per-finding keys.  Consumers (the CI annotation step) parse this — a
#: shape change is an API change and must be deliberate.
TOP_LEVEL_KEYS = {"version", "root", "ok", "findings", "suppressed", "rules"}
FINDING_KEYS = {"rule", "file", "line", "symbol", "message", "hint", "snippet"}


def write_tree(tmp_path, source, rel="repro/sim/fx.py"):
    root = tmp_path / "repro"
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return str(root)


DIRTY = """
import numpy as np
rng = np.random.default_rng()
"""


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = write_tree(tmp_path, DIRTY)
        assert main(["check", "--root", root]) == 1
        assert "DET101" in capsys.readouterr().out

    def test_bad_root_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["check", "--root", missing]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_help_lists_only_root_and_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--root", "--format"}


class TestJsonFormat:
    def test_schema_is_stable(self, tmp_path, capsys):
        root = write_tree(tmp_path, DIRTY)
        code = main(
            ["check", "--root", root, "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == TOP_LEVEL_KEYS
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["suppressed"] == 0
        assert payload["rules"] == {"DET101": 1}
        (found,) = payload["findings"]
        assert set(found) == FINDING_KEYS
        assert found["rule"] == "DET101"
        assert found["file"] == "repro/sim/fx.py"
        assert found["line"] == 3
        assert found["snippet"] == "rng = np.random.default_rng()"

    def test_clean_json_on_real_tree(self, capsys):
        assert main(["check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == TOP_LEVEL_KEYS
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["suppressed"] == 3  # the three allow comments


class TestUpdateBaseline:
    def test_update_then_justify_then_clean(self, tmp_path, capsys):
        # An allow comment without a reason still fails (BASE002) until
        # someone writes the justification.
        allowed = DIRTY.replace("rng =", "# check: allow DET101\nrng =")
        root = write_tree(tmp_path, allowed)
        assert main(["check", "--root", root]) == 1
        assert "BASE002" in capsys.readouterr().out

        justified = allowed.replace("DET101", "DET101: fixture rng is display-only")
        write_tree(tmp_path, justified)
        assert main(["check", "--root", root]) == 0
        assert "clean (1 allowed site(s))" in capsys.readouterr().out

    def test_stale_entry_fails_loudly(self, tmp_path, capsys):
        allowed = DIRTY.replace("rng =", "# check: allow DET101: display-only\nrng =")
        root = write_tree(tmp_path, allowed)
        assert main(["check", "--root", root]) == 0
        capsys.readouterr()
        # Fix the violation: the allow comment is now stale and must fail.
        write_tree(tmp_path, allowed.replace("default_rng()", "default_rng(7)"))
        assert main(["check", "--root", root]) == 1
        assert "BASE001" in capsys.readouterr().out
