"""Deterministic fault injection for metacomputer simulations.

The paper's environment is hostile — slow shared external links, no common
file system, an archive protocol with an abort path — and this package
makes that hostility testable: a :class:`FaultPlan` declares link outages,
degradation windows, message loss, measurement-ping interference,
file-system failures and trace damage; a :class:`FaultInjector` executes
the plan against one run from its own seeded random stream, leaving the
simulation's stream untouched (empty plan ⇒ byte-identical run).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.injector": ("FaultCounters", "FaultInjector", "build_injector"),
        "repro.faults.plan": (
            "FaultPlan", "FaultSpec", "FileSystemFault", "LinkDegradation", "LinkOutage",
            "MessageLoss", "PingFault", "TraceCorruption", "TraceTruncation", "link_matches",
        ),
    },
)
