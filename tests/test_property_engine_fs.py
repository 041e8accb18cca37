"""Property-based tests for the event engine, FIFO clamp, file systems,
and the pair schedule."""

from hypothesis import given
from hypothesis import strategies as st

from repro.apps.clockbench import pair_schedule
from repro.fs.filesystem import SimFileSystem
from repro.sim.engine import Engine
from repro.sim.transfer import ChannelClock


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_execution_order_is_time_sorted(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.call_later(delay, fired.append, delay)
        engine.run()
        assert fired == sorted(delays)
        assert engine.now == max(delays)


class TestChannelClockProperties:
    @given(
        arrivals=st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=50
        )
    )
    def test_clamped_sequence_is_monotone_and_minimal(self, arrivals):
        clock = ChannelClock()
        out = [clock.clamp(("c",), a) for a in arrivals]
        # Monotone non-decreasing…
        assert all(b >= a for a, b in zip(out, out[1:]))
        # …never earlier than requested…
        assert all(o >= a for o, a in zip(out, arrivals))
        # …and equal to the running maximum (no extra delay).
        running = []
        high = float("-inf")
        for a in arrivals:
            high = max(high, a)
            running.append(high)
        assert out == running


class TestFileSystemProperties:
    names = st.text(
        alphabet=st.sampled_from("abcdefgh"), min_size=1, max_size=8
    )

    @given(st.dictionaries(names, st.binary(max_size=64), max_size=20))
    def test_write_read_consistency(self, files):
        fs = SimFileSystem("p")
        fs.create_dir("/d")
        for name, payload in files.items():
            fs.write_file(f"/d/{name}", payload)
        for name, payload in files.items():
            assert fs.read_file(f"/d/{name}") == payload
        assert fs.list_dir("/d") == sorted(files)
        assert fs.total_bytes == sum(len(v) for v in files.values())

    @given(st.lists(names, min_size=1, max_size=6, unique=True))
    def test_nested_dirs_all_exist(self, segments):
        fs = SimFileSystem("p")
        path = "/" + "/".join(segments)
        fs.create_dir(path)
        for i in range(1, len(segments) + 1):
            assert fs.is_dir("/" + "/".join(segments[:i]))


class TestPairScheduleProperties:
    @given(
        n=st.integers(min_value=2, max_value=24),
        round_index=st.integers(min_value=0, max_value=100),
    )
    def test_schedule_is_a_partial_matching(self, n, round_index):
        pairs = pair_schedule(n, round_index)
        seen = set()
        for i, j in pairs:
            assert 0 <= i < j < n
            assert i not in seen and j not in seen
            seen.add(i)
            seen.add(j)
        # At most one unmatched process per parity of n/round.
        assert len(seen) >= n - 2
