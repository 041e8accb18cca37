"""Trace data substrate: event records, region registry, encoding, archives.

Local trace files are per-process streams of fixed-layout binary event
records (EPILOG-like), referencing a per-archive definitions document that
holds the region table and the system tree (machine / node / process
locations, paper Section 3 *Event location*).
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.events": (
            "EventKind", "Event", "EnterEvent", "ExitEvent", "SendEvent", "RecvEvent",
            "CollExitEvent",
        ),
        "repro.trace.regions": ("RegionRegistry",),
        "repro.trace.buffer": ("TraceBuffer",),
        "repro.trace.encoding": ("encode_events", "decode_events"),
        "repro.trace.archive": (
            "Definitions", "ArchiveWriter", "ArchiveReader", "trace_filename", "DEFINITIONS_FILE",
            "SYNC_FILE",
        ),
    },
)
