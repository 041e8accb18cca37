"""The documents name files that exist and numbers that are recorded.

``BENCH_e2e.json`` at the repository root is the one checked-in performance
record (written by ``benchmarks/e2e/run.py``); README "Performance" prints
its end-to-end medians.  These tests fail when a document points at a file
that is gone, when the record loses a workload or a metric, or when a cell
of the table and the record disagree.
"""

from __future__ import annotations

import json
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
_PATH = re.compile(r"\b(?:benchmarks|tests|src|docs|examples)/[\w./-]*\.(?:py|json|md|txt)\b")
#: Where the benchmark writes local results; git-ignored, so never there.
_OUTPUT = "benchmarks/e2e/out/"


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def sig3(value: float) -> str:
    """*value* to three significant digits, never in exponent form."""
    digits = 2 - math.floor(math.log10(abs(value)))
    return f"{round(value, digits):.{max(digits, 0)}f}"


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_named_repository_paths_exist(document):
    named = set(_PATH.findall(document.read_text(encoding="utf-8")))
    missing = sorted(
        path for path in named
        if not path.startswith(_OUTPUT) and not (ROOT / path).exists()
    )  # fmt: skip
    assert not missing, f"{document.relative_to(ROOT)} names files that do not exist: {missing}"


class TestPerformanceRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return _load("BENCH_e2e.json")

    @pytest.fixture(scope="class")
    def contract(self):
        return _load("BENCHMARK.json")

    def test_record_is_complete(self, record, contract):
        assert record["schema"] == "repro-bench-e2e/1"
        assert record["machine"]["cpu_count"] >= 1
        assert record["machine"]["python"]
        assert not record["smoke"]
        for workload in contract["workloads"]:
            entry = record["workloads"][workload["name"]]
            assert entry["attempted"] > 0 and entry["failed"] == 0, workload["name"]
            for metric in contract["end_to_end"]:
                cell = entry["end_to_end"][metric["name"]]
                assert cell["value"] > 0 and cell["samples"], (workload["name"], metric["name"])

    def test_readme_table_is_the_record(self, record, contract):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Performance\n", 1)[1].split("\n## ", 1)[0]
        machine = record["machine"]
        for fact in (f"seed {record['seed']}", f"{machine['cpu_count']} CPUs", machine["python"]):
            assert fact in section, f"the table's caption does not say {fact!r}"

        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")
        ]  # fmt: skip
        header, body = rows[0], {row[0].strip("`"): row for row in rows[2:]}
        columns = {re.sub(r"`|\s*\[.*\]", "", title): i for i, title in enumerate(header)}
        metrics = [metric["name"] for metric in contract["end_to_end"]]
        assert set(metrics) <= set(columns), header
        assert set(body) == {workload["name"] for workload in contract["workloads"]}
        for name, row in body.items():
            for metric in metrics:
                median = record["workloads"][name]["end_to_end"][metric]["value"]
                assert row[columns[metric]] == sig3(median), (
                    f"README says {metric}@{name} = {row[columns[metric]]}, "
                    f"BENCH_e2e.json says {sig3(median)}"
                )
