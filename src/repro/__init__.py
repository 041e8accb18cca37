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

from repro.errors import ReproError
from repro.ids import ANY_SOURCE, ANY_TAG, Location, NodeId
from repro.topology import (
    CpuSpec,
    Metacomputer,
    Metahost,
    NodeSpec,
    Placement,
    ibm_aix_power,
    single_cluster,
    uniform_metacomputer,
    viola_testbed,
)
from repro.clocks import (
    ClockEnsemble,
    FlatInterpolation,
    FlatSingleOffset,
    HierarchicalInterpolation,
    LinearClock,
    SCHEMES,
)
from repro.sim import Context, MetaMPIRuntime, RunResult, SimParams, World

# Imported after repro.sim: the faults package reaches back into
# repro.sim.transfer for RetryPolicy, so the sim package must finish
# initializing first (runtime -> faults -> sim.transfer resolves; the
# reverse order is a circular import).
from repro.faults import (
    FaultPlan,
    FileSystemFault,
    LinkDegradation,
    LinkOutage,
    MessageLoss,
    PingFault,
    TraceCorruption,
    TraceTruncation,
)
from repro.analysis import (
    AnalysisResult,
    ReplayAnalyzer,
    statistics_of,
    render_statistics,
)
from repro.analysis.patterns import METRICS, metric_tree
# The stable facade (imported after the subsystems it fronts).
from repro.api import (
    analyze,
    resolve_jobs,
    run_experiment,
    simulate,
)
from repro.predict import predict_run, skeleton_from_run
from repro.report import (
    render_result_timeline,
    canonicalize,
    diff,
    mean,
    merge,
    render_analysis,
    render_call_tree,
    render_metric_tree,
    render_system_tree,
)

__version__ = "1.1.0"

__all__ = [
    "ReproError",
    "ANY_SOURCE",
    "ANY_TAG",
    "Location",
    "NodeId",
    "CpuSpec",
    "Metacomputer",
    "Metahost",
    "NodeSpec",
    "Placement",
    "ibm_aix_power",
    "single_cluster",
    "uniform_metacomputer",
    "viola_testbed",
    "ClockEnsemble",
    "FlatInterpolation",
    "FlatSingleOffset",
    "HierarchicalInterpolation",
    "LinearClock",
    "SCHEMES",
    "FaultPlan",
    "FileSystemFault",
    "LinkDegradation",
    "LinkOutage",
    "MessageLoss",
    "PingFault",
    "TraceCorruption",
    "TraceTruncation",
    "Context",
    "MetaMPIRuntime",
    "RunResult",
    "SimParams",
    "World",
    "AnalysisResult",
    "ReplayAnalyzer",
    "simulate",
    "analyze",
    "run_experiment",
    "resolve_jobs",
    "statistics_of",
    "render_statistics",
    "predict_run",
    "skeleton_from_run",
    "render_result_timeline",
    "METRICS",
    "metric_tree",
    "canonicalize",
    "diff",
    "mean",
    "merge",
    "render_analysis",
    "render_call_tree",
    "render_metric_tree",
    "render_system_tree",
    "__version__",
]
