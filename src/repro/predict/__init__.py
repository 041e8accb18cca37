"""Trace-driven performance prediction (DIMEMAS-style what-if analysis).

The paper's related work (Section 2) cites Badia et al., who "used the
prediction tool DIMEMAS to predict the performance on a metacomputer based
on execution traces from a single machine in combination with measured
network parameters".  This package implements that workflow on top of the
reproduction's own substrates: a *program skeleton* — per-rank sequences of
compute segments and communication operations — is extracted from an
analyzed trace, compute segments are rescaled by CPU-speed ratios, and the
skeleton is re-executed on any target metacomputer by the discrete-event
simulator.  The re-timed run can then be traced and analyzed like a real
one, closing the loop: *predict the wait states of a metacomputer port
before running it*.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.predict.skeleton": ("ProgramSkeleton", "extract_skeleton", "skeleton_from_run"),
        "repro.predict.predictor": ("predict_run", "PredictionOutcome"),
    },
)
