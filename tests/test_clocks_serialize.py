"""Round-trip tests for synchronization-data serialization."""

import numpy as np
import pytest

from repro.clocks.clock import ClockEnsemble
from repro.clocks.serialize import (
    measurement_from_dict,
    measurement_to_dict,
    sync_data_from_dict,
    sync_data_to_dict,
)
from repro.clocks.sync import SCHEMES, collect_sync_data
from repro.errors import ClockError
from repro.ids import NodeId
from repro.topology.presets import uniform_metacomputer


@pytest.fixture(scope="module")
def sync_data():
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    nodes = {0: [NodeId(0, 0), NodeId(0, 1)], 1: [NodeId(1, 0), NodeId(1, 1)]}
    rng = np.random.default_rng(2)
    clocks = ClockEnsemble.random(nodes[0] + nodes[1], rng)
    return collect_sync_data(mc, nodes, clocks, NodeId(0, 0), 0.0, 10.0, rng)


class TestRoundTrip:
    def test_none_measurement(self):
        assert measurement_to_dict(None) is None
        assert measurement_from_dict(None) is None

    def test_measurement_round_trip(self, sync_data):
        m = sync_data.record(NodeId(1, 1)).flat_start
        restored = measurement_from_dict(measurement_to_dict(m))
        assert restored == m

    def test_sync_data_round_trip(self, sync_data):
        restored = sync_data_from_dict(sync_data_to_dict(sync_data))
        assert restored.master_node == sync_data.master_node
        assert restored.local_masters == sync_data.local_masters
        assert set(restored.records) == set(sync_data.records)
        for node, rec in sync_data.records.items():
            assert restored.records[node].flat_start == rec.flat_start
            assert restored.records[node].meta_end == rec.meta_end

    def test_schemes_agree_after_round_trip(self, sync_data):
        restored = sync_data_from_dict(sync_data_to_dict(sync_data))
        for scheme in SCHEMES:
            original = scheme.converters(sync_data)
            recovered = scheme.converters(restored)
            for node in sync_data.records:
                assert original[node].convert(5.0) == pytest.approx(
                    recovered[node].convert(5.0)
                )

    def test_failures_round_trip(self, sync_data):
        # Absent failures must not appear in the document at all (keeps
        # fault-free archives byte-identical to pre-fault-injection ones).
        assert "failures" not in sync_data_to_dict(sync_data)
        import copy

        damaged = copy.deepcopy(sync_data)
        damaged.failures.append("flat@start: all pings lost")
        payload = sync_data_to_dict(damaged)
        assert payload["failures"] == ["flat@start: all pings lost"]
        restored = sync_data_from_dict(payload)
        assert restored.failures == damaged.failures

    def test_malformed_inputs_raise(self):
        with pytest.raises(ClockError):
            sync_data_from_dict({"master_node": [0, 0]})
        with pytest.raises(ClockError):
            measurement_from_dict({"node": [0, 0]})
        with pytest.raises(ClockError):
            sync_data_from_dict(
                {"master_node": "not-a-node", "local_masters": {}, "records": []}
            )
