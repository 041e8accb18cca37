"""Batched latency sampling: stream equivalence and golden end-to-end runs.

The batched :class:`~repro.topology.network.ExponentialJitterStream` exists
purely as a performance device; its contract is that a simulation driven by
it is *byte-identical* to one driven by scalar ``Generator.exponential``
calls on the same seeded stream.  The unit tests pin the stream-level
equivalence (including block refills and the :meth:`sync` rewind); the
golden tests run the full pipeline twice — once batched, once through a
scalar shim — and compare archive bytes and rendered analyses, for the
clean figure-6 workload and for a fault-injected degraded run, at
``jobs=1`` and ``jobs=4``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.sim.mpi as mpi_module
from repro.api import AnalysisRequest, analyze
from repro.apps.metatrace import make_metatrace_app
from repro.errors import TopologyError
from repro.experiments.configs import experiment1, scaled_experiment1
from repro.experiments.faults import escalating_fault_plans
from repro.report import render_analysis
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.network import ExponentialJitterStream
from tests.conftest import archive_digest


class ScalarJitterShim:
    """Drop-in for ExponentialJitterStream that draws one sample at a time.

    This is the pre-batching behavior: every ``exponential`` call goes
    straight to the generator, and there is never an outstanding block to
    rewind.
    """

    def __init__(self, rng, block=1024):
        self._rng = rng

    def exponential(self, scale):
        return self._rng.exponential(scale)

    def sync(self):
        pass


class TestStreamEquivalence:
    def test_matches_scalar_draws_across_refills(self):
        batched = ExponentialJitterStream(np.random.default_rng(42), block=8)
        scalar = np.random.default_rng(42)
        scales = [0.5e-6, 2e-3, 1.0, 7.25][:]
        for i in range(50):  # crosses several block boundaries
            scale = scales[i % len(scales)]
            assert batched.exponential(scale) == scalar.exponential(scale)

    def test_sync_rewinds_to_scalar_position(self):
        rng = np.random.default_rng(7)
        stream = ExponentialJitterStream(rng, block=16)
        scalar = np.random.default_rng(7)
        for _ in range(5):  # consume a partial block
            assert stream.exponential(1.0) == scalar.exponential(1.0)
        stream.sync()
        # A post-run consumer sharing the generator (the offset-measurement
        # phase) must continue on the byte-identical stream.
        for _ in range(20):
            assert rng.uniform() == scalar.uniform()

    def test_sync_without_draws_is_noop(self):
        rng = np.random.default_rng(3)
        scalar = np.random.default_rng(3)
        ExponentialJitterStream(rng).sync()
        assert rng.uniform() == scalar.uniform()

    def test_rejects_nonpositive_block(self):
        with pytest.raises(TopologyError):
            ExponentialJitterStream(np.random.default_rng(0), block=0)


@pytest.mark.slow
class TestGoldenBatchedVsScalar:
    """Full-pipeline byte-identity of the batched sampler vs scalar draws."""

    def _figure6_run(self):
        metacomputer, placement, config = experiment1()
        runtime = MetaMPIRuntime(
            metacomputer, placement, seed=1, subcomms=config.subcomms()
        )
        return runtime.run(make_metatrace_app(config))

    def _fault_run(self):
        plan = escalating_fault_plans(1)[2]  # degraded-links+flaky-fs
        metacomputer, placement, config = scaled_experiment1(
            1, coupling_intervals=1
        )
        runtime = MetaMPIRuntime(
            metacomputer,
            placement,
            seed=1,
            subcomms=config.subcomms(),
            fault_plan=plan,
        )
        return runtime.run(make_metatrace_app(config))

    def test_figure6_seed1_byte_identical(self, monkeypatch):
        batched = self._figure6_run()
        monkeypatch.setattr(
            mpi_module, "ExponentialJitterStream", ScalarJitterShim
        )
        scalar = self._figure6_run()
        assert archive_digest(batched) == archive_digest(scalar)
        for jobs in (1, 4):
            request = AnalysisRequest(jobs=jobs)
            assert render_analysis(analyze(batched, request)) == render_analysis(
                analyze(scalar, request)
            )

    def test_fault_injected_degraded_byte_identical(self, monkeypatch):
        batched = self._fault_run()
        monkeypatch.setattr(
            mpi_module, "ExponentialJitterStream", ScalarJitterShim
        )
        scalar = self._fault_run()
        assert archive_digest(batched) == archive_digest(scalar)
        for jobs in (1, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                request = AnalysisRequest(degraded=True, jobs=jobs)
                a = render_analysis(analyze(batched, request))
                b = render_analysis(analyze(scalar, request))
            assert a == b
