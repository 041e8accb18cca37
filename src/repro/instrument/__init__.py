"""Instrumentation: turns simulated execution into local event traces.

The paper's applications were instrumented "by inserting directives which
were automatically translated into tracing API calls by a preprocessor";
here the simulated world writes the records itself, into the per-rank
buffers of a :class:`~repro.instrument.tracer.Tracer`.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.instrument.tracer": ("Tracer",),
    },
)
