"""The Table 2 synchronization schemes scored against the true clocks.

Each run is analysed under every scheme of ``SCHEMES`` and under
``GroundTruth(run.clocks)``, the exact conversion only a simulated run can
have.  A scheme's *residual* on a metric is the absolute difference, in
seconds, between the metric's total under the scheme and under truth.  The
runs are MetaTrace Experiment 1 (Figure 6) at seeds 1–4 and the Table 2
benchmark at seed 7.

Grid Wait at N×N pins the paper's Sec. 3 claim: the hierarchical scheme is
exact to a millisecond, while both flat schemes misplace a third of a second.

Grid Late Sender pins a *known finding*, not a property of a correct
analyzer: two flat offsets come closest to truth, and at Figure 6 the
hierarchical scheme is farthest.  ROADMAP item 1(3) has still to settle
it (a likely reading: one local master's meta-offset error is inherited by
its whole metahost).  A change that moves this ordering changes what the
analyzer reports, and must say why.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.patterns import GRID_LATE_SENDER, GRID_WAIT_AT_NXN, METRICS
from repro.api import analyze
from repro.apps.metatrace import make_metatrace_app
from repro.clocks.sync import SCHEMES, GroundTruth
from repro.experiments.configs import experiment1
from repro.experiments.table2 import default_benchmark, simulate_table2
from repro.sim.runtime import MetaMPIRuntime

SINGLE_FLAT, TWO_FLAT, HIERARCHICAL = (scheme.name for scheme in SCHEMES)


def _residuals(run, analyses):
    """Scheme name → metric → |total under the scheme − total under truth|."""
    truth = analyze(run, scheme=GroundTruth(run.clocks))
    return {
        name: {
            metric: abs(result.metric_total(metric) - truth.metric_total(metric))
            for metric in (GRID_WAIT_AT_NXN, GRID_LATE_SENDER)
        }
        for name, result in analyses.items()
    }


@lru_cache(maxsize=None)
def _figure6(seed):
    metacomputer, placement, config = experiment1()
    runtime = MetaMPIRuntime(metacomputer, placement, seed=seed, subcomms=config.subcomms())
    run = runtime.run(make_metatrace_app(config))
    return _residuals(run, {scheme.name: analyze(run, scheme=scheme) for scheme in SCHEMES})


@pytest.fixture(scope="module")
def table2(table2_outcome):
    return _residuals(table2_outcome["run"], table2_outcome["analyses"])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_only_hierarchical_sync_places_grid_wait_at_nxn(seed):
    residual = {name: r[GRID_WAIT_AT_NXN] for name, r in _figure6(seed).items()}
    assert residual[HIERARCHICAL] <= 1e-3, residual
    assert min(residual[SINGLE_FLAT], residual[TWO_FLAT]) >= 0.3, residual


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_grid_late_sender_ordering_at_figure6(seed):
    """Known finding: two flat < single flat < hierarchical."""
    residual = {name: r[GRID_LATE_SENDER] for name, r in _figure6(seed).items()}
    assert residual[TWO_FLAT] < residual[SINGLE_FLAT] < residual[HIERARCHICAL], residual


def test_grid_late_sender_ordering_at_table2(table2):
    """Known finding: two flat offsets come closest."""
    residual = {name: r[GRID_LATE_SENDER] for name, r in table2.items()}
    assert residual[TWO_FLAT] < min(residual[SINGLE_FLAT], residual[HIERARCHICAL]), residual


@lru_cache(maxsize=None)
def _truth_in_true_seconds(drift_scale):
    """Every metric's total under truth, divided by ``1 + d_master``: the
    master clock's seconds back in true seconds (a short Table 2 run)."""
    config = replace(default_benchmark(), rounds=40)
    run = simulate_table2(seed=7, config=config, clock_drift_scale=drift_scale)
    result = analyze(run, scheme=GroundTruth(run.clocks))
    rate = 1.0 + run.clocks.clock(run.sync_data.master_node).drift
    return {metric.name: result.metric_total(metric.name) / rate for metric in METRICS}


@given(drift_scale=st.floats(min_value=0.0, max_value=1e-4))
@settings(max_examples=10, deadline=None)
def test_truth_does_not_depend_on_clock_drift(drift_scale):
    """Drift changes every local stamp but no true event time, so under
    truth it changes no severity beyond the master clock's rate."""
    drifting, still = _truth_in_true_seconds(drift_scale), _truth_in_true_seconds(0.0)
    assert still[GRID_LATE_SENDER] > 0.0
    for metric, seconds in still.items():
        assert drifting[metric] == pytest.approx(seconds, rel=0, abs=2e-12), metric
