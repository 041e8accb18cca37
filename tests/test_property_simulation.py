"""Property-based tests of whole-simulation invariants.

These drive randomly generated (but deadlock-free) workloads through the
full runtime + analysis pipeline and check invariants that must hold for
*every* trace: causal order of matched messages in true time, severity
bounds, and metric-hierarchy containment.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.patterns import (
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    LATE_SENDER,
    MPI,
    P2P,
    TIME,
    WAIT_AT_BARRIER,
)
from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app, make_imbalance_app
from repro.clocks.clock import ClockEnsemble
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

work_values = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _analyze(work, seed, app_factory, synchronized=False):
    mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
    placement = Placement.block(mc, 4)
    kwargs = {}
    if synchronized:
        kwargs["clocks"] = ClockEnsemble.synchronized(placement.ranks_by_node())
    runtime = MetaMPIRuntime(mc, placement, seed=seed, **kwargs)
    run = runtime.run(app_factory(work))
    return analyze(run)


class TestSimulationInvariants:
    @given(
        work=st.lists(work_values, min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @SETTINGS
    def test_true_time_causality(self, work, seed):
        """With perfect clocks, no matched message ever violates causality."""
        result = _analyze(
            dict(enumerate(work)), seed, make_imbalance_app, synchronized=True
        )
        assert result.violations.violations == 0

    @given(
        work=st.lists(work_values, min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @SETTINGS
    def test_metric_hierarchy_containment(self, work, seed):
        result = _analyze(dict(enumerate(work)), seed, make_imbalance_app)
        eps = 1e-9
        assert result.metric_total(MPI) <= result.metric_total(TIME) + eps
        assert result.metric_total(P2P) <= result.metric_total(MPI) + eps
        assert result.metric_total(LATE_SENDER) <= result.metric_total(P2P) + eps
        assert (
            result.metric_total(GRID_LATE_SENDER)
            <= result.metric_total(LATE_SENDER) + eps
        )

    @given(
        work=st.lists(work_values, min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @SETTINGS
    def test_barrier_wait_bounded_by_spread(self, work, seed):
        """Total barrier wait cannot exceed n × the compute spread (plus
        collective costs, which are microseconds here)."""
        work_map = dict(enumerate(work))
        result = _analyze(work_map, seed, make_barrier_imbalance_app)
        spread = max(work) - min(work)
        bound = 4 * (spread + 0.01)
        assert result.metric_total(WAIT_AT_BARRIER) <= bound
        assert (
            result.metric_total(GRID_WAIT_AT_BARRIER)
            <= result.metric_total(WAIT_AT_BARRIER) + 1e-9
        )

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @SETTINGS
    def test_equal_work_has_negligible_waits(self, seed):
        work = {r: 0.02 for r in range(4)}
        result = _analyze(work, seed, make_barrier_imbalance_app)
        # Jitter-level waits only: far below the 20 ms compute block.
        assert result.metric_total(WAIT_AT_BARRIER) < 0.02
