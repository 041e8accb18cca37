"""MetaTrace: the coupled multi-physics workload of the paper's Section 5.

MetaTrace "simulates solute transport in heterogeneous soil-aquifer systems"
and consists of two submodels: **Trace** computes the water-flow velocity
field with a parallel conjugate-gradient solver on a 3-D domain
decomposition with nearest-neighbor communication; **Partrace** tracks
individual particles through that field.  Periodically, Trace sends the
velocity field (200 MB, in parallel chunks) to Partrace, and Partrace sends
steering information back.

This package reproduces the *communication structure and relative compute
costs* of that application — which is what drives every wait state the
paper's Figures 6 and 7 report — not the numerics.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.apps.metatrace.config": ("MetaTraceConfig",),
        "repro.apps.metatrace.coupled": ("make_metatrace_app",),
    },
)
