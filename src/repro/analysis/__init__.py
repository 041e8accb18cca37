"""Parallel replay-based pattern analysis (the paper's analyzer).

Each analysis process reads only the local trace of its own rank — possible
on a metacomputer because each partial archive is readable from its own
metahost — and the replay exchanges *per-event metadata* (not whole trace
files) to match sends with receives and to gather collective enter times.
Pattern severities accumulate in a (metric × call path × process) cube.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.callpath": ("CallPathRegistry", "CallPathBuilder"),
        "repro.analysis.severity": ("SeverityCube",),
        "repro.analysis.instances": ("ProcessTimeline", "build_timeline"),
        "repro.analysis.matching": (
            "MessageMatcher", "MatchedPair", "CollectiveInstance", "MPIOpInstance",
        ),
        "repro.analysis.request": ("AnalysisRequest",),
        "repro.analysis.result": ("AnalysisResult", "ReplayTraffic"),
        "repro.analysis.severity_timeline": ("SeverityTimeline",),
        "repro.analysis.streaming": ("analyze",),
        "repro.analysis.replay": ("ReplayAnalyzer",),
        "repro.analysis.parallel": ("PartialAnalysis", "plan_shards", "resolve_jobs"),
        "repro.analysis.patterns": ("metric_tree", "Metric", "METRICS"),
        "repro.analysis.stats": (
            "TraceStatistics", "compute_statistics", "statistics_of", "render_statistics",
        ),
    },
)
