"""Accepted exceptions: allow comments beside the code they excuse.

The baseline of accepted sites is the set of ``# check: allow RULE: reason``
comments in the tree.  A comment excuses findings of its rule on the next
code line only; one that excuses nothing (BASE001) or gives no reason
(BASE002) fails the run.
"""

from __future__ import annotations

import os
import re
import textwrap

from repro.check import check_source, run_checks
from repro.check.engine import default_root

VIOLATION = textwrap.dedent(
    """
    import numpy as np
    rng = np.random.default_rng()
    """
)
ALLOW = "# check: allow DET101: accepted for the test\n"


def allowing(comment=ALLOW, source=VIOLATION, above="rng ="):
    """*source* with *comment* on the line above the one starting *above*."""
    return source.replace(above, comment + above, 1)


def rules(source, rel_file="repro/sim/fx.py"):
    return sorted(f.rule for f in check_source(source, rel_file))


class TestBaselineMatching:
    def test_matching_entry_suppresses(self):
        assert rules(VIOLATION) == ["DET101"]
        assert rules(allowing()) == []

    def test_match_survives_line_moves(self):
        # Edits above an allowed site move the comment with it.
        assert rules("# a new comment line\nx = 1\n" + allowing()) == []

    def test_reason_may_run_on_over_comment_lines(self):
        comment = ALLOW + "# and continues here\n"
        assert rules(allowing(comment)) == []

    def test_edited_line_breaks_the_match(self):
        # A code line slipped between comment and site: the finding escapes
        # the comment AND the comment is stale.
        moved = allowing(ALLOW + "x = 1\n")
        assert rules(moved) == ["BASE001", "DET101"]

    def test_only_the_next_line_is_excused(self):
        source = allowing() + "other = np.random.default_rng()\n"
        (escaped,) = check_source(source, "repro/sim/fx.py")
        assert (escaped.rule, escaped.snippet) == ("DET101", "other = np.random.default_rng()")

    def test_only_the_named_rule_is_excused(self):
        comment = "# check: allow DET102: accepted for the test\n"
        assert rules(allowing(comment)) == ["BASE001", "DET101"]

    def test_stale_entry_is_base001(self):
        fixed = allowing().replace("default_rng()", "default_rng(7)")
        (stale,) = check_source(fixed, "repro/sim/fx.py")
        assert stale.rule == "BASE001"
        assert stale.line == 3
        assert stale.snippet == ALLOW.strip()

    def test_missing_reason_is_base002(self):
        for comment in ("# check: allow DET101\n", "# check: allow DET101:   \n"):
            assert rules(allowing(comment)) == ["BASE002"]

    def test_check_source_and_run_checks_agree(self, tmp_path):
        sources = {
            "fx.py": allowing(),
            "stale.py": allowing().replace("default_rng()", "default_rng(7)"),
            "bare.py": allowing("# check: allow DET101\n"),
            "dirty.py": VIOLATION,
        }
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        for name, source in sources.items():
            (package / name).write_text(source)
        report = run_checks(str(tmp_path / "repro"))
        expected = [f for name in sorted(sources)
                    for f in check_source(sources[name], f"repro/sim/{name}")]
        assert report.findings == expected
        assert [f.file for f in report.suppressed] == ["repro/sim/bare.py", "repro/sim/fx.py"]


class TestShippedBaseline:
    def test_tree_is_clean_under_shipped_baseline(self):
        # The acceptance gate: `repro check` over the real sources reports
        # nothing.  A failure here means a new violation or a stale or
        # reasonless allow comment.
        report = run_checks()
        assert report.ok, report.to_text()
        assert report.to_text() == "repro check: clean (3 allowed site(s))"

    def test_every_shipped_entry_has_a_reason(self):
        allow = re.compile(r"\s*# check: allow (\w+): (.+)")
        root = default_root()
        sites = []
        for dirpath, _dirs, files in sorted(os.walk(root)):
            for name in sorted(f for f in files if f.endswith(".py")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    for line in handle:
                        match = allow.match(line)
                        if match and match[2].strip():
                            sites.append((name, match[1]))
        assert sorted(sites) == [
            ("checkpoint.py", "ATM201"), ("pool.py", "CON303"), ("pool.py", "CON303"),
        ]
        assert {(f.file.rpartition("/")[2], f.rule) for f in run_checks().suppressed} == set(sites)

    def test_runs_are_deterministic(self):
        first = run_checks()
        second = run_checks()
        assert first.to_json() == second.to_json()
