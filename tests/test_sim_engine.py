"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.call_later(3.0, order.append, "c")
        engine.call_later(1.0, order.append, "a")
        engine.call_later(2.0, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        engine = Engine()
        order = []
        engine.call_later(1.0, order.append, 1)
        engine.call_at(1.0, order.append, 2)
        engine.call_later(1.0, order.append, 3)
        engine.run()
        assert order == [1, 2, 3]

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.call_later(0.5, lambda: seen.append(engine.now))
        engine.call_later(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.5, 1.5]
        assert engine.now == 1.5

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def outer():
            engine.call_later(1.0, lambda: seen.append(engine.now))

        engine.call_later(1.0, outer)
        engine.run()
        assert seen == [2.0]

    def test_rejects_past_scheduling(self):
        engine = Engine()
        engine.call_later(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_later(-1.0, lambda: None)

    def test_zero_delay_allowed(self):
        engine = Engine()
        hits = []
        engine.call_later(0.0, hits.append, 1)
        engine.run()
        assert hits == [1]


class TestRunLimits:
    def test_max_events_guards_livelock(self):
        engine = Engine()

        def reschedule():
            engine.call_later(0.0, reschedule)

        engine.call_later(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)
        assert engine.processed_events == 100

    def test_processed_events_counter(self):
        engine = Engine()
        for i in range(5):
            engine.call_later(float(i), lambda: None)
        engine.run()
        assert engine.processed_events == 5


class TestNonFiniteTimes:
    """Regression: ``delay < 0`` is False for NaN, so NaN/inf stamps used to
    reach the heap, where a single NaN breaks every comparison and silently
    corrupts event ordering for the rest of the run."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_call_later_rejects_non_finite_delay(self, bad):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.call_later(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_call_at_rejects_non_finite_time(self, bad):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.call_at(bad, lambda: None)

    def test_rejection_leaves_engine_usable(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.call_later(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.call_at(float("inf"), lambda: None)
        hits = []
        engine.call_later(1.0, hits.append, 1)
        engine.run()
        assert hits == [1]
        assert engine.processed_events == 1


class TestHandleLessScheduling:
    def test_call_later_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.call_later(3.0, lambda: order.append("c"))
        engine.call_later(1.0, lambda: order.append("a"))
        engine.call_at(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_call_at_rejects_past(self):
        engine = Engine()
        engine.call_later(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_later(-1.0, lambda: None)

    def test_entry_recycling_preserves_order_and_counts(self):
        # Interleave enough events to cycle entries through the free pool
        # several times, across runs; ordering, tie-breaking and the event
        # counter must be unaffected by reuse.
        engine = Engine()
        seen = []
        for i in range(500):
            engine.call_later(float(i % 7), seen.append, i)
        engine.run()
        assert len(seen) == 500
        assert engine.processed_events == 500
        assert seen == sorted(seen, key=lambda i: (i % 7, i))
        # A second run draws every entry from the pool the first one filled.
        again = []
        for i in range(300):
            engine.call_later(float(i % 5), again.append, i)
        engine.run()
        assert again == sorted(again, key=lambda i: (i % 5, i))
        assert engine.processed_events == 800

    def test_mixed_same_timestamp_batch(self):
        # Same-timestamp wakeups run in insertion order; nested scheduling
        # at the current time must still run within this run() call.
        engine = Engine()
        order = []
        engine.call_at(1.0, order.append, "a")
        engine.call_at(1.0, lambda: engine.call_at(1.0, order.append, "c"))
        engine.call_at(1.0, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 1.0
