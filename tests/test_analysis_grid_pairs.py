"""Tests for the fine-grained grid classification (paper §6 future work)."""

import pytest

from repro.analysis.patterns import GRID_LATE_SENDER, GRID_WAIT_AT_BARRIER
from repro.analysis.result import GridPairBreakdown
from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app, make_imbalance_app
from repro.topology.presets import uniform_metacomputer

from tests.conftest import run_app


class TestBreakdownAccumulator:
    def test_accumulates_per_pair(self):
        b = GridPairBreakdown()
        b.add("m", 0, 1, 1.0)
        b.add("m", 0, 1, 0.5)
        b.add("m", 1, 0, 0.25)
        assert b.pairs("m") == {(0, 1): 1.5, (1, 0): 0.25}
        assert b.total("m") == pytest.approx(1.75)

    def test_zero_values_ignored(self):
        b = GridPairBreakdown()
        b.add("m", 0, 1, 0.0)
        assert b.pairs("m") == {}

    def test_named_rendering(self):
        b = GridPairBreakdown()
        b.add("m", 0, 1, 1.0)
        named = b.named("m", ["alpha", "beta"])
        assert named == {("alpha", "beta"): 1.0}


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def three_host_result(self):
        # Three metahosts; metahost 0 (ranks 0-1) is slow → it causes
        # barrier waiting on metahosts 1 and 2.
        mc = uniform_metacomputer(metahost_count=3, node_count=1, cpus_per_node=2)
        work = {0: 0.2, 1: 0.2, 2: 0.01, 3: 0.01, 4: 0.01, 5: 0.01}
        run = run_app(mc, 6, make_barrier_imbalance_app(work), seed=8)
        return analyze(run)

    def test_causer_is_the_slow_metahost(self, three_host_result):
        pairs = three_host_result.grid_pairs.pairs(GRID_WAIT_AT_BARRIER)
        assert pairs, "expected grid barrier waiting"
        causers = {causer for (causer, _waiter) in pairs}
        assert causers == {0}

    def test_waiters_are_the_fast_metahosts(self, three_host_result):
        pairs = three_host_result.grid_pairs.pairs(GRID_WAIT_AT_BARRIER)
        waiters = {waiter for (_causer, waiter) in pairs}
        assert waiters == {1, 2}

    def test_pair_totals_match_grid_metric(self, three_host_result):
        """Sum over machine pairs == the grid pattern's cube total."""
        pair_total = three_host_result.grid_pairs.total(GRID_WAIT_AT_BARRIER)
        cube_total = three_host_result.metric_total(GRID_WAIT_AT_BARRIER)
        assert pair_total == pytest.approx(cube_total, rel=1e-9)

    def test_named_breakdown_via_result(self, three_host_result):
        named = three_host_result.grid_pair_breakdown(GRID_WAIT_AT_BARRIER)
        assert ("metahost0", "metahost1") in named

    def test_late_sender_pair_direction(self):
        """Slow sender's metahost causes the receiving metahost to wait."""
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        # Rank 1 (metahost 0) is slow; its ring successor rank 2 lives on
        # metahost 1 and waits for it.
        work = {0: 0.01, 1: 0.2, 2: 0.01, 3: 0.01}
        result = analyze(run_app(mc, 4, make_imbalance_app(work), seed=9))
        pairs = result.grid_pairs.pairs(GRID_LATE_SENDER)
        top_pair, value = max(pairs.items(), key=lambda kv: kv[1])
        assert top_pair == (0, 1)  # metahost 0 causes metahost 1 to wait
        assert value > 0.15

    def test_single_metahost_has_no_pairs(self):
        from repro.topology.presets import single_cluster

        mc = single_cluster(node_count=4, cpus_per_node=1)
        work = {0: 0.1, 1: 0.01, 2: 0.01, 3: 0.01}
        result = analyze(run_app(mc, 4, make_barrier_imbalance_app(work)))
        assert result.grid_pairs.pairs(GRID_WAIT_AT_BARRIER) == {}


class TestMetaTracePairs:
    def test_experiment1_late_sender_pairs(self, metatrace_exp1):
        """CAESAR's slower CPUs cause FH-BRS's grid Late Sender waiting."""
        result = metatrace_exp1.result
        named = result.grid_pair_breakdown(GRID_LATE_SENDER)
        top = max(named, key=named.get)
        assert top == ("CAESAR", "FH-BRS")

    def test_experiment1_barrier_pairs(self, metatrace_exp1):
        """Trace (on FH-BRS/CAESAR) causes Partrace's (XD1) barrier waits."""
        result = metatrace_exp1.result
        named = result.grid_pair_breakdown(GRID_WAIT_AT_BARRIER)
        waiting_on_xd1 = sum(
            v for (causer, waiter), v in named.items() if waiter == "FZJ-XD1"
        )
        assert waiting_on_xd1 / sum(named.values()) > 0.9
