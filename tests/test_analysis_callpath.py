"""Tests for call-path interning and reconstruction."""

import pytest

from repro.analysis.callpath import ROOT_PATH, CallPathBuilder, CallPathRegistry
from repro.errors import AnalysisError
from repro.trace.regions import RegionRegistry


@pytest.fixture
def regions():
    reg = RegionRegistry()
    for name in ("main", "solve", "MPI_Recv"):
        reg.register(name)
    return reg


class TestRegistry:
    def test_interning_is_stable(self):
        reg = CallPathRegistry()
        a = reg.intern(ROOT_PATH, 0)
        b = reg.intern(ROOT_PATH, 0)
        assert a == b
        assert len(reg) == 1

    def test_same_region_different_parents(self):
        reg = CallPathRegistry()
        root_a = reg.intern(ROOT_PATH, 0)
        root_b = reg.intern(ROOT_PATH, 1)
        child_a = reg.intern(root_a, 2)
        child_b = reg.intern(root_b, 2)
        assert child_a != child_b

    def test_frames_and_depth(self):
        reg = CallPathRegistry()
        a = reg.intern(ROOT_PATH, 0)
        b = reg.intern(a, 1)
        c = reg.intern(b, 2)
        assert reg.frames(c) == [0, 1, 2]
        assert reg.path(c).depth == 2
        assert reg.path(a).depth == 0

    def test_children_and_roots(self):
        reg = CallPathRegistry()
        a = reg.intern(ROOT_PATH, 0)
        b = reg.intern(a, 1)
        c = reg.intern(a, 2)
        assert set(reg.children(a)) == {b, c}
        assert reg.roots() == [a]

    def test_render(self, regions):
        reg = CallPathRegistry()
        a = reg.intern(ROOT_PATH, regions.id_of("main"))
        b = reg.intern(a, regions.id_of("solve"))
        assert reg.render(b, regions) == "main/solve"

    def test_unknown_cpid_raises(self):
        with pytest.raises(AnalysisError):
            CallPathRegistry().path(0)


class TestBuilder:
    def test_stack_tracking(self):
        reg = CallPathRegistry()
        builder = CallPathBuilder(reg)
        assert builder.current == ROOT_PATH
        a = builder.enter(0)
        b = builder.enter(1)
        assert builder.current == b
        assert builder.exit(1) == b
        assert builder.current == a
        builder.exit(0)
        assert builder.current == ROOT_PATH

    def test_mismatched_exit_rejected(self):
        builder = CallPathBuilder(CallPathRegistry())
        builder.enter(0)
        with pytest.raises(AnalysisError):
            builder.exit(1)

    def test_exit_on_empty_stack_rejected(self):
        builder = CallPathBuilder(CallPathRegistry())
        with pytest.raises(AnalysisError):
            builder.exit(0)

    def test_recursion_creates_distinct_paths(self):
        reg = CallPathRegistry()
        builder = CallPathBuilder(reg)
        outer = builder.enter(0)
        inner = builder.enter(0)  # recursive call
        assert inner != outer
        assert reg.frames(inner) == [0, 0]
