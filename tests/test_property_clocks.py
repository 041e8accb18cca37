"""Property-based tests for clocks, converters, and synchronization."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.clock import ClockEnsemble, LinearClock
from repro.clocks.measurement import OffsetMeasurement
from repro.clocks.sync import GroundTruth, LinearConverter, NodeSyncRecord, SyncData
from repro.ids import NodeId

finite_times = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
offsets = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
drifts = st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False)


class TestClockProperties:
    @given(offset=offsets, drift=drifts, t=finite_times)
    def test_true_time_inverts_local_time(self, offset, drift, t):
        clock = LinearClock(offset_s=offset, drift=drift)
        assert math.isclose(clock.true_time(clock.local_time(t)), t, abs_tol=1e-6)

    @given(offset=offsets, drift=drifts, t1=finite_times, t2=finite_times)
    def test_clock_is_monotone(self, offset, drift, t1, t2):
        # Non-strict: time deltas below float resolution may collapse.
        clock = LinearClock(offset_s=offset, drift=drift)
        if t1 < t2:
            assert clock.local_time(t1) <= clock.local_time(t2)

    @given(
        o1=offsets, d1=drifts, o2=offsets, d2=drifts, t=finite_times
    )
    def test_offset_antisymmetry(self, o1, d1, o2, d2, t):
        a = LinearClock(o1, d1)
        b = LinearClock(o2, d2)
        assert math.isclose(
            a.offset_to(b, t), -b.offset_to(a, t), abs_tol=1e-9
        )


converters = st.builds(
    LinearConverter,
    slope=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
    intercept=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


class TestConverterProperties:
    @given(inner=converters, outer=converters, t=finite_times)
    def test_composition_associates_with_application(self, inner, outer, t):
        assert math.isclose(
            inner.then(outer).convert(t),
            outer.convert(inner.convert(t)),
            rel_tol=1e-12,
            abs_tol=1e-9,
        )

    @given(c=converters, t=finite_times)
    def test_identity_is_neutral(self, c, t):
        ident = LinearConverter.identity()
        assert math.isclose(
            c.then(ident).convert(t), c.convert(t), rel_tol=1e-12, abs_tol=1e-9
        )
        assert math.isclose(
            ident.then(c).convert(t), c.convert(t), rel_tol=1e-12, abs_tol=1e-9
        )

    @given(
        master_drift=drifts,
        slave_offset=offsets,
        slave_drift=drifts,
        t_eval=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_interpolation_exact_for_any_linear_pair(
        self, master_drift, slave_offset, slave_drift, t_eval
    ):
        """Two perfect measurements of linear clocks give exact conversion,
        even extrapolated beyond the anchors."""
        master = LinearClock(0.0, master_drift)
        slave = LinearClock(slave_offset, slave_drift)
        node, ref = NodeId(0, 1), NodeId(0, 0)

        def perfect(t):
            return OffsetMeasurement(
                node=node,
                reference=ref,
                offset_s=slave.offset_to(master, t),
                reference_local_s=master.local_time(t),
                slave_local_s=slave.local_time(t),
                rtt_s=0.0,
                true_offset_s=slave.offset_to(master, t),
                true_time_s=t,
            )

        converter = LinearConverter.from_interpolation(perfect(0.0), perfect(100.0))
        local = slave.local_time(t_eval)
        assert math.isclose(
            converter.convert(local),
            master.local_time(t_eval),
            abs_tol=1e-6,
        )

    @given(c=converters, t1=finite_times, t2=finite_times)
    def test_positive_slope_preserves_order(self, c, t1, t2):
        # Non-strict: sub-resolution gaps may collapse in float arithmetic.
        if t1 < t2:
            assert c.convert(t1) <= c.convert(t2)


class TestGroundTruthProperties:
    @given(
        master_offset=offsets,
        master_drift=drifts,
        node_offset=offsets,
        node_drift=drifts,
        local=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    def test_converter_inverts_the_node_clock(
        self, master_offset, master_drift, node_offset, node_drift, local
    ):
        master, node = NodeId(0, 0), NodeId(1, 0)
        clocks = ClockEnsemble({
            master: LinearClock(master_offset, master_drift),
            node: LinearClock(node_offset, node_drift),
        })
        data = SyncData(master_node=master, local_masters={0: master, 1: node})
        for n in (master, node):
            data.records[n] = NodeSyncRecord(node=n, machine=n.machine)
        converters = GroundTruth(clocks).converters(data)
        expected = clocks.clock(master).local_time(clocks.clock(node).true_time(local))
        assert math.isclose(converters[node].convert(local), expected, abs_tol=1e-9)
        assert converters[master].convert(local) == local
