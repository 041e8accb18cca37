"""Tests for the three-panel text rendering."""

import pytest

from repro.analysis.patterns import LATE_SENDER, TIME, WAIT_AT_BARRIER
from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app, make_imbalance_app
from repro.errors import ReportError
from repro.report.render import (
    render_analysis,
    render_call_tree,
    render_metric_tree,
    render_system_tree,
)
from repro.topology.presets import uniform_metacomputer

from tests.conftest import run_app


@pytest.fixture(scope="module")
def result():
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    work = {0: 0.01, 1: 0.15, 2: 0.01, 3: 0.01}
    run = run_app(mc, 4, make_imbalance_app(work, iterations=2))
    return analyze(run)


@pytest.fixture(scope="module")
def barrier_result():
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    work = {0: 0.15, 1: 0.15, 2: 0.01, 3: 0.01}
    run = run_app(mc, 4, make_barrier_imbalance_app(work))
    return analyze(run)


class TestMetricTree:
    def test_contains_display_names_and_percentages(self, result):
        text = render_metric_tree(result)
        assert "Late Sender" in text
        assert "Grid Late Sender" in text
        assert "%" in text

    def test_time_is_hundred_percent(self, result):
        first_line = render_metric_tree(result).splitlines()[0]
        assert "100.00%" in first_line and "Time" in first_line

    def test_min_pct_prunes(self, result):
        full = render_metric_tree(result)
        pruned = render_metric_tree(result, min_pct=99.0)
        assert len(pruned.splitlines()) < len(full.splitlines())


class TestCallTree:
    def test_names_appear(self, result):
        text = render_call_tree(result, LATE_SENDER)
        assert "ring" in text
        assert "MPI_Sendrecv" in text

    def test_empty_metric_handled(self, result):
        text = render_call_tree(result, "early-reduce")
        assert "no severity" in text

    def test_percentages_reference_metric_total(self, result):
        text = render_call_tree(result, TIME)
        # Root call paths together account for all of the metric.
        root_pcts = []
        for line in text.splitlines()[1:]:
            rest = line.split("%", 1)[1]
            indent = len(rest) - len(rest.lstrip(" "))
            if indent == 4:  # depth-1 nodes, i.e. call-tree roots
                root_pcts.append(float(line.split("%")[0].split()[-1]))
        assert sum(root_pcts) == pytest.approx(100.0, abs=0.1)


class TestSystemTree:
    def test_machine_node_process_levels(self, barrier_result):
        text = render_system_tree(barrier_result, WAIT_AT_BARRIER)
        assert "metahost1" in text
        assert "node" in text
        assert "process" in text

    def test_severity_on_fast_metahost(self, barrier_result):
        """Ranks 2,3 (metahost1) wait for slow metahost0."""
        text = render_system_tree(barrier_result, WAIT_AT_BARRIER)
        lines = [l for l in text.splitlines() if "metahost" in l]
        by_name = {}
        for line in lines:
            pct = float(line.split("%")[0].split()[-1])
            name = line.split("%")[1].split("[")[0].strip()
            by_name[name] = pct
        assert by_name["metahost1"] > 90.0

    def test_restricted_to_callpath(self, result):
        cpid, _ = result.cube.top_callpaths(LATE_SENDER, 1)[0]
        text = render_system_tree(result, LATE_SENDER, cpid=cpid)
        assert f"at call path {cpid}" in text

    def test_empty_distribution(self, result):
        text = render_system_tree(result, "early-reduce")
        assert "no severity" in text


class TestFullReport:
    def test_sections_present(self, result):
        text = render_analysis(result, metric=LATE_SENDER)
        assert "analysis report" in text
        assert "clock-condition violations" in text
        assert "call tree" in text
        assert "system tree" in text

    def test_metric_optional(self, result):
        text = render_analysis(result)
        assert "call tree" not in text

    def test_unknown_metric_rejected(self, result):
        with pytest.raises(ReportError):
            render_analysis(result, metric="not-a-metric")
