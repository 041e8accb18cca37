"""Experiment drivers regenerating every table and figure of the paper."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.configs": (
            "experiment1", "experiment2", "EXPERIMENT1_BLOCKS", "EXPERIMENT2_BLOCKS", "table3_text",
        ),
        "repro.experiments.table1": ("Table1Row", "run_table1", "table1_text"),
        "repro.experiments.table2": ("Table2Row", "run_table2", "table2_text"),
        "repro.experiments.figures": (
            "run_figure1", "run_figure3", "run_figure4", "run_metatrace_experiment",
            "MetaTraceOutcome",
        ),
    },
)
