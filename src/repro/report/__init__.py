"""Result presentation and cross-experiment algebra.

Renders the three panels of the paper's Figure 6 as text trees — metric
hierarchy, call tree, system (metahost / node / process) tree — and
implements the cross-experiment algebra (difference / merge / mean) of
Song et al. that the paper names as planned future work for the parallel
analyzer (Section 6).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.report.render": (
            "render_metric_tree", "render_call_tree", "render_system_tree", "render_analysis",
        ),
        "repro.report.algebra": (
            "ExperimentData", "canonicalize", "diff", "merge", "mean", "render_comparison",
        ),
        "repro.report.serialize": ("result_to_dict", "experiment_to_dict", "experiment_from_dict"),
        "repro.report.timeline": (
            "render_timeline", "render_result_timeline", "render_severity_timeline", "TimelineView",
        ),
    },
)
