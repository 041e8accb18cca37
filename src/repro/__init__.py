"""repro — automatic trace-based performance analysis of metacomputing applications.

A production-quality Python reproduction of Becker, Wolf, Frings, Geimer,
Wylie, Mohr: *Automatic Trace-Based Performance Analysis of Metacomputing
Applications* (IPPS 2007): a KOJAK/SCALASCA-style wait-state analyzer
extended to metacomputers, together with every substrate it needs — a
metacomputer topology model, a deterministic discrete-event MPI simulator,
unsynchronized node clocks with flat and hierarchical offset-measurement
schemes, per-metahost file systems with the runtime archive-management
protocol, binary event traces, a parallel replay pattern search with grid
pattern variants, and a CUBE-like result presentation with cross-experiment
algebra.

Quickstart::

    from repro import (
        viola_testbed, Placement, MetaMPIRuntime, analyze, render_analysis,
    )

    mc = viola_testbed()
    placement = Placement.block(mc, 8)

    def app(ctx):
        yield ctx.compute(0.01 * (1 + ctx.rank))
        yield ctx.comm.barrier()

    run = MetaMPIRuntime(mc, placement, seed=1).run(app)
    result = analyze(run)
    print(render_analysis(result, metric="wait-at-barrier"))
"""

from repro.exports import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.errors": ("ReproError",),
        "repro.ids": ("ANY_SOURCE", "ANY_TAG", "Location", "NodeId"),
        "repro.topology.machine": ("CpuSpec", "Metahost", "NodeSpec"),
        "repro.topology.metacomputer": ("Metacomputer", "Placement"),
        "repro.topology.presets": (
            "ibm_aix_power", "single_cluster", "uniform_metacomputer", "viola_testbed",
        ),
        "repro.clocks.clock": ("ClockEnsemble", "LinearClock"),
        "repro.clocks.sync": (
            "FlatInterpolation", "FlatSingleOffset", "HierarchicalInterpolation", "SCHEMES",
        ),
        "repro.sim.transfer": ("SimParams",),
        "repro.sim.mpi": ("Context",),
        "repro.sim.world": ("World",),
        "repro.sim.runtime": ("MetaMPIRuntime", "RunResult"),
        "repro.faults.plan": (
            "FaultPlan", "FileSystemFault", "LinkDegradation", "LinkOutage", "MessageLoss",
            "PingFault", "TraceCorruption", "TraceTruncation",
        ),
        "repro.analysis.result": ("AnalysisResult",),
        "repro.analysis.replay": ("ReplayAnalyzer",),
        "repro.analysis.stats": ("statistics_of", "render_statistics"),
        "repro.analysis.patterns.base": ("METRICS", "metric_tree"),
        "repro.api": ("analyze", "resolve_jobs", "run_experiment", "simulate"),
        "repro.predict.predictor": ("predict_run",),
        "repro.predict.skeleton": ("skeleton_from_run",),
        "repro.report.algebra": ("canonicalize", "diff", "mean", "merge"),
        "repro.report.render": (
            "render_analysis", "render_call_tree", "render_metric_tree", "render_system_tree",
        ),
        "repro.report.timeline": ("render_result_timeline",),
    },
)
__all__.append("__version__")
