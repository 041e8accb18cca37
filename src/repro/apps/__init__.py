"""Workloads: benchmark kernels and the MetaTrace multi-physics skeleton.

Applications are factory functions returning generator apps for
:class:`~repro.sim.world.World` / :class:`~repro.sim.runtime.MetaMPIRuntime`.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.apps.decomp": ("CartesianDecomposition",),
        "repro.apps.pingpong": ("PingPongResults", "make_pingpong_app"),
        "repro.apps.clockbench": ("ClockBenchConfig", "make_clockbench_app", "pair_schedule"),
        "repro.apps.imbalance": ("make_imbalance_app", "make_barrier_imbalance_app"),
        "repro.apps.metatrace": ("MetaTraceConfig", "make_metatrace_app"),
    },
)
