"""Parallel replay-based pattern analysis (the paper's analyzer).

Each analysis process reads only the local trace of its own rank — possible
on a metacomputer because each partial archive is readable from its own
metahost — and the replay exchanges *per-event metadata* (not whole trace
files) to match sends with receives and to gather collective enter times.
Pattern severities accumulate in a (metric × call path × process) cube.
"""

from repro.analysis.callpath import CallPathRegistry, CallPathBuilder
from repro.analysis.severity import SeverityCube
from repro.analysis.instances import (
    MPIOpInstance,
    ProcessTimeline,
    build_timeline,
)
from repro.analysis.matching import MessageMatcher, MatchedPair, CollectiveInstance
from repro.analysis.request import AnalysisRequest
from repro.analysis.result import AnalysisResult, ReplayTraffic
from repro.analysis.severity_timeline import SeverityTimeline
from repro.analysis.streaming import analyze
from repro.analysis.replay import ReplayAnalyzer
from repro.analysis.parallel import PartialAnalysis, plan_shards, resolve_jobs
from repro.analysis.patterns import metric_tree, Metric, METRICS
from repro.analysis.stats import (
    TraceStatistics,
    compute_statistics,
    statistics_of,
    render_statistics,
)

__all__ = [
    "CallPathRegistry",
    "CallPathBuilder",
    "SeverityCube",
    "MPIOpInstance",
    "ProcessTimeline",
    "build_timeline",
    "MessageMatcher",
    "MatchedPair",
    "CollectiveInstance",
    "ReplayAnalyzer",
    "AnalysisRequest",
    "SeverityTimeline",
    "PartialAnalysis",
    "plan_shards",
    "resolve_jobs",
    "AnalysisResult",
    "ReplayTraffic",
    "analyze",
    "metric_tree",
    "Metric",
    "METRICS",
    "TraceStatistics",
    "compute_statistics",
    "statistics_of",
    "render_statistics",
]
