"""Tests for the three synchronization schemes.

The central claims (paper Section 4, validated in Section 5):

* flat interpolation removes drift but intra-metahost *relative* offsets of
  remote metahosts inherit the external-link measurement error;
* the hierarchical scheme keeps intra-metahost relative errors at
  internal-link precision while still aligning metahosts globally.
"""

import re

import numpy as np
import pytest

from repro.clocks.clock import ClockEnsemble, LinearClock
from repro.clocks.measurement import OffsetMeasurement
from repro.clocks.sync import (
    SCHEMES,
    FlatInterpolation,
    FlatSingleOffset,
    GroundTruth,
    HierarchicalInterpolation,
    LinearConverter,
    NodeSyncRecord,
    SyncData,
    collect_sync_data,
)
from repro.errors import ClockError
from repro.ids import NodeId
from repro.topology.presets import uniform_metacomputer


def _measurement(node, reference, offset, at_slave_local, true_offset=None):
    return OffsetMeasurement(
        node=node,
        reference=reference,
        offset_s=offset,
        reference_local_s=at_slave_local - offset,
        slave_local_s=at_slave_local,
        rtt_s=1e-4,
        true_offset_s=offset if true_offset is None else true_offset,
        true_time_s=at_slave_local,
    )


class TestLinearConverter:
    def test_identity(self):
        c = LinearConverter.identity()
        assert c.convert(123.456) == 123.456

    def test_single_offset(self):
        m = _measurement(NodeId(0, 1), NodeId(0, 0), offset=2.0, at_slave_local=10.0)
        c = LinearConverter.from_single_offset(m)
        assert c.convert(10.0) == pytest.approx(8.0)
        assert c.slope == 1.0

    def test_interpolation_exact_for_linear_clocks(self):
        master = LinearClock()
        slave = LinearClock(offset_s=1e-2, drift=5e-5)
        anchors = []
        for t in (0.0, 100.0):
            local = slave.local_time(t)
            anchors.append(
                _measurement(
                    NodeId(0, 1),
                    NodeId(0, 0),
                    offset=slave.offset_to(master, t),
                    at_slave_local=local,
                )
            )
        c = LinearConverter.from_interpolation(*anchors)
        for t in (0.0, 33.0, 100.0, 150.0):
            local = slave.local_time(t)
            assert c.convert(local) == pytest.approx(master.local_time(t), abs=1e-9)

    def test_interpolation_degenerates_to_single_offset(self):
        m = _measurement(NodeId(0, 1), NodeId(0, 0), offset=1.0, at_slave_local=5.0)
        c = LinearConverter.from_interpolation(m, m)
        assert c.convert(5.0) == pytest.approx(4.0)

    def test_interpolation_guards_noise_dominated_baseline(self):
        """Anchors within ~100 RTTs of each other yield no drift fit.

        A very short run can land the start- and end-round winning
        exchanges almost at the same instant; the offset difference is
        then pure measurement error and a fitted gradient extrapolates
        it to millisecond-scale conversion error (enough to fabricate
        clock-condition violations on a perfect-clock run).  The
        converter must degrade to the single-offset form instead.
        """
        node, ref = NodeId(1, 0), NodeId(0, 0)
        # rtt_s is 1e-4 in _measurement, so the guard kicks in below 1e-2.
        start = _measurement(node, ref, offset=1.3e-5, at_slave_local=5.0)
        end = _measurement(node, ref, offset=0.5e-5, at_slave_local=5.005)
        c = LinearConverter.from_interpolation(start, end)
        assert c.slope == 1.0
        assert c.convert(5.0) == pytest.approx(5.0 - 1.3e-5)
        # Well-separated anchors still get the drift fit.
        far = _measurement(node, ref, offset=0.5e-5, at_slave_local=105.0)
        assert LinearConverter.from_interpolation(start, far).slope != 1.0

    def test_composition(self):
        inner = LinearConverter(slope=2.0, intercept=1.0)
        outer = LinearConverter(slope=3.0, intercept=-1.0)
        composed = inner.then(outer)
        for x in (0.0, 1.0, 10.0):
            assert composed.convert(x) == pytest.approx(outer.convert(inner.convert(x)))


class _SyncFixture:
    """A two-metahost machine with drifting clocks and real measurements."""

    def __init__(self, seed=5, drift_scale=3e-6, run_end=60.0):
        self.mc = uniform_metacomputer(
            metahost_count=2, node_count=3, cpus_per_node=1
        )
        rng = np.random.default_rng(seed)
        self.nodes = {
            0: [NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)],
            1: [NodeId(1, 0), NodeId(1, 1), NodeId(1, 2)],
        }
        all_nodes = self.nodes[0] + self.nodes[1]
        self.clocks = ClockEnsemble.random(
            all_nodes, rng, offset_scale_s=5e-3, drift_scale=drift_scale
        )
        self.master = NodeId(0, 0)
        self.run_end = run_end
        self.data = collect_sync_data(
            self.mc,
            self.nodes,
            self.clocks,
            self.master,
            run_start_s=0.0,
            run_end_s=run_end,
            rng=rng,
        )

    def scheme_error_us(self, scheme, node, t):
        local = self.clocks.clock(node).local_time(t)
        truth = GroundTruth(self.clocks).converters(self.data)[node].convert(local)
        return (scheme.converters(self.data)[node].convert(local) - truth) * 1e6

    def pair_error_us(self, scheme, node_a, node_b, t):
        """Error of the synchronized *difference* between two nodes."""
        return self.scheme_error_us(scheme, node_a, t) - self.scheme_error_us(
            scheme, node_b, t
        )


@pytest.fixture(scope="module")
def sync_fixture():
    return _SyncFixture()


class TestCollectSyncData:
    def test_master_must_lead_its_machine(self, sync_fixture):
        fx = sync_fixture
        with pytest.raises(ClockError):
            collect_sync_data(
                fx.mc,
                {0: [NodeId(0, 1), NodeId(0, 0)], 1: fx.nodes[1]},
                fx.clocks,
                fx.master,
                0.0,
                1.0,
                np.random.default_rng(0),
            )

    def test_rejects_reversed_interval(self, sync_fixture):
        fx = sync_fixture
        with pytest.raises(ClockError):
            collect_sync_data(
                fx.mc, fx.nodes, fx.clocks, fx.master, 10.0, 5.0,
                np.random.default_rng(0),
            )

    def test_local_masters_chosen(self, sync_fixture):
        data = sync_fixture.data
        assert data.local_masters[0] == NodeId(0, 0)
        assert data.local_masters[1] == NodeId(1, 0)

    def test_master_has_no_flat_measurement(self, sync_fixture):
        rec = sync_fixture.data.record(sync_fixture.master)
        assert rec.flat_start is None

    def test_remote_local_master_has_meta_measurements(self, sync_fixture):
        rec = sync_fixture.data.record(NodeId(1, 0))
        assert rec.meta_start is not None and rec.meta_end is not None

    def test_slaves_have_local_measurements(self, sync_fixture):
        rec = sync_fixture.data.record(NodeId(1, 2))
        assert rec.local_start is not None and rec.local_end is not None


class TestSchemeAccuracy:
    def test_all_schemes_align_master_exactly(self, sync_fixture):
        for scheme in SCHEMES:
            err = sync_fixture.scheme_error_us(scheme, sync_fixture.master, 30.0)
            assert err == pytest.approx(0.0, abs=1e-6)

    def test_single_offset_suffers_from_drift(self, sync_fixture):
        """Without drift compensation, late-run errors grow to drift × time."""
        scheme = FlatSingleOffset()
        node = NodeId(0, 1)
        early = abs(sync_fixture.scheme_error_us(scheme, node, 1.0))
        late = abs(sync_fixture.scheme_error_us(scheme, node, 59.0))
        assert late > early
        assert late > 20.0  # tens of microseconds after a minute

    def test_interpolation_removes_drift_within_machine(self, sync_fixture):
        scheme = FlatInterpolation()
        node = NodeId(0, 1)  # same machine as master: internal link, precise
        for t in (5.0, 30.0, 55.0):
            assert abs(sync_fixture.scheme_error_us(scheme, node, t)) < 5.0

    def test_flat_intra_metahost_pairs_inherit_external_error(self, sync_fixture):
        """The motivating defect: remote slaves are misaligned *mutually*."""
        flat = FlatInterpolation()
        hier = HierarchicalInterpolation()
        flat_pair = abs(
            sync_fixture.pair_error_us(flat, NodeId(1, 1), NodeId(1, 2), 30.0)
        )
        hier_pair = abs(
            sync_fixture.pair_error_us(hier, NodeId(1, 1), NodeId(1, 2), 30.0)
        )
        assert hier_pair < 5.0
        assert hier_pair < flat_pair

    def test_hierarchical_keeps_global_alignment_reasonable(self, sync_fixture):
        """Cross-metahost error stays far below the external latency (1 ms)."""
        scheme = HierarchicalInterpolation()
        for node in (NodeId(1, 0), NodeId(1, 1), NodeId(1, 2)):
            assert abs(sync_fixture.scheme_error_us(scheme, node, 30.0)) < 300.0


class TestSchemeErrors:
    def test_missing_measurements_raise(self):
        data = SyncData(master_node=NodeId(0, 0), local_masters={0: NodeId(0, 0)})
        data.records[NodeId(0, 1)] = NodeSyncRecord(node=NodeId(0, 1), machine=0)
        with pytest.raises(ClockError):
            FlatSingleOffset().converters(data)
        with pytest.raises(ClockError):
            FlatInterpolation().converters(data)
        with pytest.raises(ClockError):
            HierarchicalInterpolation().converters(data)

    def test_non_strict_schemes_degrade_to_identity(self):
        """The fallback ladder's last rung: no measurements at all."""
        data = SyncData(master_node=NodeId(0, 0), local_masters={0: NodeId(0, 0)})
        node = NodeId(0, 1)
        data.records[node] = NodeSyncRecord(node=node, machine=0)
        for scheme in (
            FlatSingleOffset(strict=False),
            FlatInterpolation(strict=False),
            HierarchicalInterpolation(strict=False),
        ):
            converters = scheme.converters(data)
            assert converters[node].convert(42.0) == 42.0

    def test_non_strict_hierarchical_uses_partial_measurements(self, sync_fixture):
        """Dropping a remote machine's meta measurements must not destroy
        the *local* alignment the surviving measurements still provide."""
        import copy

        fx = sync_fixture
        data = copy.deepcopy(fx.data)
        remote_master = data.local_masters[1]
        rec = data.records[remote_master]
        rec.meta_start = rec.meta_end = None
        scheme = HierarchicalInterpolation(strict=False)
        converters = scheme.converters(data)
        # Every node still gets a converter and intra-metahost differences
        # on the damaged machine stay at internal-link precision.
        for node in fx.nodes[1]:
            assert node in converters
        truth = GroundTruth(fx.clocks).converters(data)
        t = 30.0
        a, b = fx.nodes[1][1], fx.nodes[1][2]
        local_a = fx.clocks.clock(a).local_time(t)
        local_b = fx.clocks.clock(b).local_time(t)
        est = converters[a].convert(local_a) - converters[b].convert(local_b)
        true = truth[a].convert(local_a) - truth[b].convert(local_b)
        assert abs(est - true) * 1e6 < 50.0  # microseconds, internal scale

    def test_scheme_names_are_table2_rows(self):
        assert [s.name for s in SCHEMES] == [
            "single-flat-offset",
            "two-flat-offsets",
            "two-hierarchical-offsets",
        ]


_MASTER, _LM, _SLAVE = NodeId(0, 0), NodeId(1, 0), NodeId(1, 1)


def _anchor(offset, at):
    return _measurement(_SLAVE, _MASTER, offset=offset, at_slave_local=at)


# Start/end anchors 100 s apart: every pair yields a real drift fit.
FS, FE = _anchor(1.0e-3, 1.0), _anchor(1.5e-3, 101.0)
LS, LE = _anchor(2.0e-5, 1.2), _anchor(3.0e-5, 101.2)
MS, ME = _anchor(4.0e-4, 1.1), _anchor(7.0e-4, 101.1)
_LM_FULL = dict(flat_start=FS, flat_end=FE, meta_start=MS, meta_end=ME)
_single, _interp = LinearConverter.from_single_offset, LinearConverter.from_interpolation
_IDENTITY = LinearConverter.identity()

#: scheme x which measurements survived -> converter of the node, and the
#: strict scheme's error (None: the exact converter was measured).  ``lm``
#: is the record of machine 1's local master; None leaves machine 1 without
#: one.
_RUNGS = [
    ("single-both", FlatSingleOffset, _LM_FULL, _SLAVE, dict(flat_start=FS, flat_end=FE),
     _single(FS), None),
    ("single-end-only", FlatSingleOffset, _LM_FULL, _SLAVE, dict(flat_end=FE),
     _single(FE), "node m1.n1 lacks a flat start measurement"),
    ("single-none", FlatSingleOffset, _LM_FULL, _SLAVE, {},
     _IDENTITY, "node m1.n1 lacks a flat start measurement"),
    ("interp-both", FlatInterpolation, _LM_FULL, _SLAVE, dict(flat_start=FS, flat_end=FE),
     _interp(FS, FE), None),
    ("interp-start-only", FlatInterpolation, _LM_FULL, _SLAVE, dict(flat_start=FS),
     _single(FS), "node m1.n1 lacks flat start/end measurements"),
    ("interp-end-only", FlatInterpolation, _LM_FULL, _SLAVE, dict(flat_end=FE),
     _single(FE), "node m1.n1 lacks flat start/end measurements"),
    ("interp-none", FlatInterpolation, _LM_FULL, _SLAVE, {},
     _IDENTITY, "node m1.n1 lacks flat start/end measurements"),
    ("meta-both", HierarchicalInterpolation, _LM_FULL, _LM, dict(local_start=LS, local_end=LE),
     _interp(MS, ME), None),
    ("meta-start-only", HierarchicalInterpolation, dict(_LM_FULL, meta_end=None), _LM, {},
     _single(MS), "local master m1.n0 lacks metamaster measurements"),
    ("meta-end-only", HierarchicalInterpolation, dict(_LM_FULL, meta_start=None), _LM, {},
     _single(ME), "local master m1.n0 lacks metamaster measurements"),
    ("meta-flat-only", HierarchicalInterpolation, dict(flat_start=FS, flat_end=FE), _LM, {},
     _interp(FS, FE), "local master m1.n0 lacks metamaster measurements"),
    ("meta-flat-end-only", HierarchicalInterpolation, dict(flat_end=FE), _LM, {},
     _single(FE), "local master m1.n0 lacks metamaster measurements"),
    ("meta-none", HierarchicalInterpolation, {}, _LM, {},
     _IDENTITY, "local master m1.n0 lacks metamaster measurements"),
    ("slave-local-both", HierarchicalInterpolation, _LM_FULL, _SLAVE,
     dict(local_start=LS, local_end=LE, flat_start=FS, flat_end=FE),
     _interp(LS, LE).then(_interp(MS, ME)), None),
    ("slave-local-start-only", HierarchicalInterpolation, _LM_FULL, _SLAVE,
     dict(local_start=LS, flat_start=FS, flat_end=FE),
     _single(LS).then(_interp(MS, ME)), "node m1.n1 lacks local-master measurements"),
    ("slave-local-end-only", HierarchicalInterpolation, _LM_FULL, _SLAVE,
     dict(local_end=LE, flat_start=FS, flat_end=FE),
     _single(LE).then(_interp(MS, ME)), "node m1.n1 lacks local-master measurements"),
    ("slave-flat-only", HierarchicalInterpolation, _LM_FULL, _SLAVE,
     dict(flat_start=FS, flat_end=FE),
     _interp(FS, FE), "node m1.n1 lacks local-master measurements"),
    ("slave-flat-end-only", HierarchicalInterpolation, _LM_FULL, _SLAVE, dict(flat_end=FE),
     _single(FE), "node m1.n1 lacks local-master measurements"),
    ("slave-none", HierarchicalInterpolation, _LM_FULL, _SLAVE, {},
     _interp(MS, ME), "node m1.n1 lacks local-master measurements"),
    ("slave-under-flat-master", HierarchicalInterpolation, dict(flat_start=FS, flat_end=FE),
     _SLAVE, dict(local_start=LS),
     _single(LS).then(_interp(FS, FE)), "local master m1.n0 lacks metamaster measurements"),
    ("slave-no-local-master", HierarchicalInterpolation, None, _SLAVE,
     dict(local_start=LS, local_end=LE),
     _interp(LS, LE), "machine 1 has no local master"),
    ("slave-no-local-master-none", HierarchicalInterpolation, None, _SLAVE, {},
     _IDENTITY, "machine 1 has no local master"),
]


class TestDegradationLadder:
    """Every rung each scheme walks down, pinned bit for bit."""

    @pytest.mark.parametrize(
        "scheme, lm, node, slave, expected, strict_error",
        [case[1:] for case in _RUNGS],
        ids=[case[0] for case in _RUNGS],
    )
    def test_rung(self, scheme, lm, node, slave, expected, strict_error):
        data = SyncData(
            master_node=_MASTER,
            local_masters={0: _MASTER} if lm is None else {0: _MASTER, 1: _LM},
        )
        data.records[_MASTER] = NodeSyncRecord(node=_MASTER, machine=0)
        lm = _LM_FULL if lm is None else lm
        data.records[_LM] = NodeSyncRecord(node=_LM, machine=1, **lm)
        data.records[_SLAVE] = NodeSyncRecord(node=_SLAVE, machine=1, **slave)
        assert scheme(strict=False).converters(data)[node] == expected
        if strict_error is None:
            assert scheme().converters(data)[node] == expected
        else:
            with pytest.raises(ClockError, match=re.escape(strict_error)):
                scheme().converters(data)


class TestGroundTruth:
    def test_refuses_a_run_without_clocks(self):
        with pytest.raises(ClockError, match="no ground-truth clocks"):
            GroundTruth(None)

    def test_is_not_a_table2_row(self):
        assert not any(isinstance(s, GroundTruth) for s in SCHEMES)

    def test_master_is_the_identity(self, sync_fixture):
        fx = sync_fixture
        converters = GroundTruth(fx.clocks).converters(fx.data)
        assert converters[fx.master] == LinearConverter.identity()
        assert set(converters) == set(fx.data.records)

    def test_truth_reads_no_violations(self, table2_outcome):
        from repro.api import analyze

        run = table2_outcome["run"]
        result = analyze(run, scheme=GroundTruth(run.clocks))
        summary = result.violations.summary()
        assert summary["messages"] > 0
        assert summary["violations"] == 0


class TestGlobalClockMachines:
    def test_global_clock_machine_skips_slave_step(self):
        """Metahosts with hardware sync use the local master's converter."""
        master = NodeId(0, 0)
        data = SyncData(
            master_node=master,
            local_masters={0: master, 1: NodeId(1, 0)},
            global_clock_machines=frozenset({1}),
        )
        data.records[master] = NodeSyncRecord(node=master, machine=0)
        lm = NodeSyncRecord(
            node=NodeId(1, 0),
            machine=1,
            meta_start=_measurement(NodeId(1, 0), master, 1e-3, 0.0),
            meta_end=_measurement(NodeId(1, 0), master, 1e-3, 100.0),
        )
        data.records[NodeId(1, 0)] = lm
        # Slave on machine 1 with NO local measurements — allowed, because
        # the machine has a global clock.
        data.records[NodeId(1, 1)] = NodeSyncRecord(node=NodeId(1, 1), machine=1)
        converters = HierarchicalInterpolation().converters(data)
        assert converters[NodeId(1, 1)].convert(1.0) == pytest.approx(
            converters[NodeId(1, 0)].convert(1.0)
        )
