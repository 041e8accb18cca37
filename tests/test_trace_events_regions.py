"""Tests for event records and the region registry."""

import pytest

from repro.errors import TraceError
from repro.trace.events import (
    CollExitEvent,
    EnterEvent,
    EventKind,
    ExitEvent,
    RecvEvent,
    SendEvent,
)
from repro.trace.regions import RegionRegistry, is_mpi_region


class TestEvents:
    def test_kinds_are_distinct(self):
        kinds = {
            EnterEvent(0, 0).kind,
            ExitEvent(0, 0).kind,
            SendEvent(0, 0, 0, 0, 0).kind,
            RecvEvent(0, 0, 0, 0, 0).kind,
            CollExitEvent(0, 0, 0, 0, 0, 0).kind,
        }
        assert len(kinds) == 5
        assert all(isinstance(k, EventKind) for k in kinds)

    def test_events_are_immutable(self):
        event = EnterEvent(1.0, 2)
        with pytest.raises(AttributeError):
            event.time = 5.0  # type: ignore[misc]

    def test_equality(self):
        assert SendEvent(1.0, 2, 3, 4, 5) == SendEvent(1.0, 2, 3, 4, 5)


class TestRegionRegistry:
    def test_register_is_idempotent(self):
        reg = RegionRegistry()
        a = reg.register("cgiteration")
        b = reg.register("cgiteration")
        assert a == b
        assert len(reg) == 1

    def test_ids_are_dense(self):
        reg = RegionRegistry()
        ids = [reg.register(name) for name in ("a", "b", "c")]
        assert ids == [0, 1, 2]

    def test_name_lookup(self):
        reg = RegionRegistry()
        rid = reg.register("main")
        assert reg.name_of(rid) == "main"
        assert reg.id_of("main") == rid

    def test_unknown_lookups_raise(self):
        reg = RegionRegistry()
        with pytest.raises(TraceError):
            reg.id_of("nope")
        with pytest.raises(TraceError):
            reg.name_of(5)

    def test_empty_name_rejected(self):
        with pytest.raises(TraceError):
            RegionRegistry().register("")

    def test_list_round_trip(self):
        reg = RegionRegistry()
        for name in ("main", "MPI_Send", "cgiteration"):
            reg.register(name)
        restored = RegionRegistry.from_list(reg.to_list())
        assert restored.to_list() == reg.to_list()
        assert restored.id_of("MPI_Send") == reg.id_of("MPI_Send")

    def test_contains(self):
        reg = RegionRegistry()
        reg.register("x")
        assert "x" in reg
        assert "y" not in reg


class TestClassification:
    def test_mpi_region_detection(self):
        assert is_mpi_region("MPI_Send")
        assert not is_mpi_region("cgiteration")
