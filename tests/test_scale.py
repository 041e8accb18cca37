"""Large-world stress tests (marked slow)."""

import pytest

from repro.analysis.patterns import LATE_SENDER, WAIT_AT_NXN
from repro.api import analyze
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

pytestmark = pytest.mark.slow


class TestLargeWorlds:
    def test_128_rank_pipeline(self):
        """128 ranks across 4 metahosts: full pipeline stays consistent."""
        mc = uniform_metacomputer(metahost_count=4, node_count=16, cpus_per_node=2)
        placement = Placement.block(mc, 128)

        def app(ctx):
            succ = (ctx.rank + 1) % ctx.size
            pred = (ctx.rank - 1) % ctx.size
            with ctx.region("main"):
                for _ in range(3):
                    with ctx.region("work"):
                        yield ctx.compute(0.002 * (1 + ctx.rank % 7))
                    with ctx.region("halo"):
                        yield ctx.comm.sendrecv(
                            dest=succ, send_size=2048, send_tag=1,
                            source=pred, recv_tag=1,
                        )
                    yield ctx.comm.allreduce(16)

        run = MetaMPIRuntime(mc, placement, seed=17).run(app)
        assert run.stats.p2p_messages == 128 * 3
        assert run.archive_outcome.partial_archive_count == 4

        result = analyze(run)
        assert result.violations.total == 128 * 3
        # Work modulation creates both p2p and collective waits.
        assert result.metric_total(LATE_SENDER) > 0
        assert result.metric_total(WAIT_AT_NXN) > 0
        # Severity never exceeds total time.
        assert result.metric_total(LATE_SENDER) <= result.metric_total("time")

    def test_full_viola_208_cpus(self):
        """Fill every CPU of the simulated VIOLA testbed.

        CAESAR 32×2 + FH-BRS 6×4 + FZJ-XD1 60×2 = 208 CPUs.
        """
        from repro.topology.presets import viola_testbed

        mc = viola_testbed()
        placement = Placement.block(mc, mc.total_cpus)
        assert placement.size == 208

        def app(ctx):
            yield ctx.compute(0.001)
            yield ctx.comm.barrier()

        run = MetaMPIRuntime(mc, placement, seed=23).run(app)
        result = analyze(run)
        # Grid barrier waiting exists (spanning barrier), and the slowest
        # entrant defines the sync point for 231 waiters.
        assert result.metric_total("grid-wait-at-barrier") > 0
        assert len(result.timelines) == 208
