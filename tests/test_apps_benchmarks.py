"""Tests for the ping-pong and clock benchmarks."""

import numpy as np
import pytest

from repro.apps.clockbench import (
    ClockBenchConfig,
    make_clockbench_app,
    pair_schedule,
    partner_of,
)
from repro.apps.pingpong import PingPongResults, make_pingpong_app
from repro.errors import ConfigurationError
from repro.sim.world import World
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer


def _run(mc, nprocs, app, seed=0):
    placement = Placement.block(mc, nprocs)
    world = World(mc, placement, rng=np.random.default_rng(seed))
    world.launch(app, seed=seed)
    return world.run()


class TestPingPong:
    def test_measures_latency_scale(self):
        mc = single_cluster(node_count=2, cpus_per_node=1, internal_latency_s=2e-5)
        results = PingPongResults()
        _run(mc, 2, make_pingpong_app(results, [(0, 1)], repetitions=100))
        mean = results.mean_s((0, 1))
        # Half-RTT ≈ latency plus a few µs of overhead.
        assert 2e-5 < mean < 4e-5

    def test_external_pair_sees_external_latency(self):
        mc = uniform_metacomputer(
            metahost_count=2, node_count=1, cpus_per_node=1,
            external_latency_s=1e-3, external_congestion_prob=0.0,
        )
        results = PingPongResults()
        _run(mc, 2, make_pingpong_app(results, [(0, 1)], repetitions=50))
        assert results.mean_s((0, 1)) > 9e-4

    def test_multiple_pairs_measured_sequentially(self):
        mc = single_cluster(node_count=4, cpus_per_node=1)
        results = PingPongResults()
        pairs = [(0, 1), (2, 3), (0, 3)]
        _run(mc, 4, make_pingpong_app(results, pairs, repetitions=20))
        assert set(results.samples) == set(pairs)
        for pair in pairs:
            assert len(results.samples[pair]) == 20

    def test_summary_shape(self):
        mc = single_cluster(node_count=2, cpus_per_node=1)
        results = PingPongResults()
        _run(mc, 2, make_pingpong_app(results, [(0, 1)], repetitions=30))
        summary = results.summary()
        mean, std = summary[(0, 1)]
        assert mean > 0 and std >= 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_pingpong_app(PingPongResults(), [(0, 0)])
        with pytest.raises(ConfigurationError):
            make_pingpong_app(PingPongResults(), [(0, 1)], repetitions=1)


class TestPairSchedule:
    def test_pairs_are_self_inverse(self):
        n = 8
        for round_index in range(n):
            for i, j in pair_schedule(n, round_index):
                assert partner_of(i, n, round_index) == j
                assert partner_of(j, n, round_index) == i

    def test_every_pair_appears_over_a_cycle(self):
        n = 6
        seen = set()
        for round_index in range(2 * n):
            seen.update(pair_schedule(n, round_index))
        expected = {(i, j) for i in range(n) for j in range(i + 1, n)}
        assert seen == expected

    def test_fixed_point_skipped(self):
        n = 4
        # Round 2: rank 1 pairs with (2-1)%4 = 1 → itself → skipped.
        assert partner_of(1, n, 2) is None
        assert all(i != j for i, j in pair_schedule(n, 2))

    def test_requires_two_processes(self):
        with pytest.raises(ConfigurationError):
            pair_schedule(1, 0)


class TestClockBench:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClockBenchConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            ClockBenchConfig(inter_round_gap_s=-1.0)

    def test_runs_and_exchanges_messages(self):
        mc = single_cluster(node_count=4, cpus_per_node=1)
        config = ClockBenchConfig(rounds=6, exchanges_per_round=1, inter_round_gap_s=0.01)
        stats = _run(mc, 4, make_clockbench_app(config))
        # Each round has up to n/2 pairs, each exchanging 2 messages.
        assert stats.p2p_messages > 0
        assert stats.p2p_messages <= 6 * 2 * 2

    def test_duration_spans_rounds(self):
        mc = single_cluster(node_count=2, cpus_per_node=1)
        config = ClockBenchConfig(rounds=10, inter_round_gap_s=0.05)
        stats = _run(mc, 2, make_clockbench_app(config))
        assert stats.finish_time >= 0.5
