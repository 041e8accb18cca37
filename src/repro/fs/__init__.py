"""Simulated per-metahost file systems and runtime archive management.

A metacomputer generally has **no** file system shared by all processes
(paper Section 4): a path such as ``/work/epik_run`` resolves to different
storage on different metahosts.  :class:`~repro.fs.filesystem.MountNamespace`
models exactly that — the same path string can map to distinct
:class:`~repro.fs.filesystem.SimFileSystem` instances per metahost — and
:mod:`repro.fs.manager` implements the paper's hierarchical
archive-creation protocol on top of it.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fs.filesystem": ("SimFileSystem", "MountNamespace"),
        "repro.fs.manager": ("ensure_archives", "ArchiveManagementOutcome", "ProtocolStep"),
    },
)
