"""Tests for simulated file systems, mount namespaces, and the
runtime archive-management protocol."""

import pytest

from repro.errors import ArchiveCreationAborted, FileSystemError
from repro.fs.filesystem import (
    MountNamespace,
    SimFileSystem,
    private_namespaces,
    shared_namespace,
)
from repro.fs.manager import ensure_archives


class TestSimFileSystem:
    def test_create_dir_with_parents(self):
        fs = SimFileSystem("a")
        fs.create_dir("/work/deep/nested")
        assert fs.is_dir("/work/deep")
        assert fs.is_dir("/work/deep/nested")

    def test_create_dir_twice_rejected(self):
        fs = SimFileSystem("a")
        fs.create_dir("/work")
        with pytest.raises(FileSystemError):
            fs.create_dir("/work")
        fs.create_dir("/work", exist_ok=True)  # opt-in idempotency

    def test_relative_paths_rejected(self):
        fs = SimFileSystem("a")
        with pytest.raises(FileSystemError):
            fs.create_dir("work")

    def test_file_round_trip(self):
        fs = SimFileSystem("a")
        fs.create_dir("/d")
        fs.write_file("/d/f.bin", b"\x01\x02")
        assert fs.read_file("/d/f.bin") == b"\x01\x02"
        assert fs.is_file("/d/f.bin")

    def test_write_requires_parent_dir(self):
        fs = SimFileSystem("a")
        with pytest.raises(FileSystemError):
            fs.write_file("/missing/f", b"x")

    def test_overwrite_control(self):
        fs = SimFileSystem("a")
        fs.create_dir("/d")
        fs.write_file("/d/f", b"1")
        with pytest.raises(FileSystemError):
            fs.write_file("/d/f", b"2")
        fs.write_file("/d/f", b"2", overwrite=True)
        assert fs.read_file("/d/f") == b"2"

    def test_read_missing_file(self):
        with pytest.raises(FileSystemError):
            SimFileSystem("a").read_file("/nope")

    def test_list_dir(self):
        fs = SimFileSystem("a")
        fs.create_dir("/d/sub")
        fs.write_file("/d/f1", b"")
        fs.write_file("/d/sub/f2", b"")
        assert fs.list_dir("/d") == ["f1", "sub"]

    def test_total_bytes(self):
        fs = SimFileSystem("a")
        fs.create_dir("/d")
        fs.write_file("/d/f", b"abc")
        assert fs.total_bytes == 3


class TestMountNamespace:
    def test_longest_prefix_wins(self):
        root = SimFileSystem("root")
        work = SimFileSystem("work")
        ns = MountNamespace({"/": root, "/work": work})
        assert ns.resolve("/work/x") is work
        assert ns.resolve("/home/x") is root

    def test_no_mount_covers_path(self):
        ns = MountNamespace({"/work": SimFileSystem("w")})
        with pytest.raises(FileSystemError):
            ns.resolve("/other")

    def test_same_path_different_storage(self):
        """The defining metacomputer property (paper Section 4)."""
        ns_a = MountNamespace({"/work": SimFileSystem("site-a")})
        ns_b = MountNamespace({"/work": SimFileSystem("site-b")})
        ns_a.create_dir("/work/exp")
        assert ns_a.is_dir("/work/exp")
        assert not ns_b.is_dir("/work/exp")
        assert ns_a.resolve("/work") is not ns_b.resolve("/work")

    def test_shared_namespace_helper(self):
        namespaces = shared_namespace(["a", "b"])
        namespaces[0].create_dir("/work/x")
        assert namespaces[1].is_dir("/work/x")
        assert namespaces[0].resolve("/work") is namespaces[1].resolve("/work")

    def test_private_namespaces_helper(self):
        namespaces = private_namespaces(["a", "b"])
        namespaces[0].create_dir("/work/x")
        assert not namespaces[1].is_dir("/work/x")


class TestArchiveProtocol:
    def _setup(self, shared=False):
        names = ["m0", "m1", "m2"]
        namespaces = shared_namespace(names) if shared else private_namespaces(names)
        ranks = {0: [0, 1], 1: [2, 3], 2: [4, 5]}
        return namespaces, ranks

    def test_private_storage_creates_partial_archives(self):
        namespaces, ranks = self._setup()
        outcome = ensure_archives(namespaces, "/work/exp", ranks)
        assert outcome.partial_archive_count == 3
        # Rank 0 created once; the two other local masters created locally.
        assert outcome.creation_attempts == 3
        for machine in (0, 1, 2):
            assert namespaces[machine].is_dir("/work/exp")

    def test_shared_storage_creates_single_archive(self):
        namespaces, ranks = self._setup(shared=True)
        outcome = ensure_archives(namespaces, "/work/exp", ranks)
        assert outcome.partial_archive_count == 1
        assert outcome.creation_attempts == 1  # only rank zero created

    def test_protocol_steps_recorded(self):
        namespaces, ranks = self._setup()
        outcome = ensure_archives(namespaces, "/work/exp", ranks)
        actions = [s.action for s in outcome.steps]
        assert actions.count("create") == 1
        assert actions.count("check") == 3  # one local master per metahost
        assert actions.count("create-local") == 2
        assert actions[-1] == "allreduce"

    def test_root_must_lead_its_machine(self):
        namespaces, _ = self._setup()
        ranks = {0: [1, 0], 1: [2, 3], 2: [4, 5]}
        with pytest.raises(FileSystemError):
            ensure_archives(namespaces, "/work/exp", ranks)

    def test_existing_directory_aborts(self):
        namespaces, ranks = self._setup()
        namespaces[0].create_dir("/work/exp")
        with pytest.raises(ArchiveCreationAborted):
            ensure_archives(namespaces, "/work/exp", ranks)

    def test_mismatched_machine_tables_rejected(self):
        namespaces, ranks = self._setup()
        del namespaces[2]
        with pytest.raises(FileSystemError):
            ensure_archives(namespaces, "/work/exp", ranks)

    def test_unplaced_root_rejected(self):
        namespaces, ranks = self._setup()
        with pytest.raises(FileSystemError):
            ensure_archives(namespaces, "/work/exp", ranks, root_rank=99)


class TestArchiveProtocolUnderFaults:
    """The abort and retry paths, driven by injected file-system faults."""

    NAMES = {0: "m0", 1: "m1", 2: "m2"}

    def _setup(self, specs, shared=False, seed=0):
        from repro.faults import FaultInjector, FaultPlan

        names = list(self.NAMES.values())
        namespaces = shared_namespace(names) if shared else private_namespaces(names)
        ranks = {0: [0, 1], 1: [2, 3], 2: [4, 5]}
        injector = FaultInjector(FaultPlan(specs=tuple(specs), seed=seed))
        return namespaces, ranks, injector

    def _ensure(self, namespaces, ranks, injector):
        return ensure_archives(
            namespaces,
            "/work/exp",
            ranks,
            injector=injector,
            machine_names=self.NAMES,
        )

    def test_transient_failure_retried_then_succeeds(self):
        from repro.faults import FileSystemFault

        namespaces, ranks, injector = self._setup(
            [FileSystemFault("m1", fail_count=2)]
        )
        outcome = self._ensure(namespaces, ranks, injector)
        # Still exactly one successful creation per distinct file system.
        assert outcome.partial_archive_count == 3
        assert outcome.creation_attempts == 3
        assert outcome.retries == 2
        actions = [s.action for s in outcome.steps]
        assert actions.count("create-failed") == 2
        # The failure was absorbed before the all-reduce: everyone sees an
        # archive, so the protocol ends in ok=True.
        assert outcome.steps[-1].action == "allreduce"
        assert outcome.steps[-1].detail == "ok=True"

    def test_permanent_local_failure_aborts_with_culprits(self):
        from repro.errors import ArchiveCreationAborted
        from repro.faults import FileSystemFault

        namespaces, ranks, injector = self._setup(
            [FileSystemFault("m2", permanent=True)]
        )
        with pytest.raises(ArchiveCreationAborted) as info:
            self._ensure(namespaces, ranks, injector)
        assert info.value.failing_ranks == (4, 5)
        assert info.value.failing_machines == ("m2",)
        assert info.value.path == "/work/exp"

    def test_permanent_root_failure_aborts_immediately(self):
        from repro.errors import ArchiveCreationAborted
        from repro.faults import FileSystemFault

        namespaces, ranks, injector = self._setup(
            [FileSystemFault("m0", permanent=True)]
        )
        with pytest.raises(ArchiveCreationAborted) as info:
            self._ensure(namespaces, ranks, injector)
        assert info.value.failing_ranks == (0,)
        assert info.value.failing_machines == ("m0",)

    def test_shared_storage_single_transient_failure_recovers(self):
        from repro.faults import FileSystemFault

        namespaces, ranks, injector = self._setup(
            [FileSystemFault("*", fail_count=1)], shared=True
        )
        outcome = self._ensure(namespaces, ranks, injector)
        assert outcome.partial_archive_count == 1
        assert outcome.creation_attempts == 1
        assert outcome.retries == 1

    def test_partial_archive_count_correct_under_faults(self):
        from repro.faults import FileSystemFault

        namespaces, ranks, injector = self._setup(
            [FileSystemFault("m1", fail_count=1), FileSystemFault("m2", fail_count=2)]
        )
        outcome = self._ensure(namespaces, ranks, injector)
        assert outcome.partial_archive_count == 3
        assert set(outcome.archive_fs_of_machine.values()) == {
            "fs-m0",
            "fs-m1",
            "fs-m2",
        }

    def test_genuine_errors_are_not_retried(self):
        """A pre-existing directory aborts without burning retry attempts."""
        from repro.errors import ArchiveCreationAborted
        from repro.faults import FileSystemFault

        namespaces, ranks, injector = self._setup(
            [FileSystemFault("m1", fail_count=1)]
        )
        namespaces[0].create_dir("/work/exp")
        with pytest.raises(ArchiveCreationAborted):
            self._ensure(namespaces, ranks, injector)
