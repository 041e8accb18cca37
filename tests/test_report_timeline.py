"""Tests for the ASCII timeline renderer."""

import pytest

from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app, make_imbalance_app
from repro.errors import ReportError
from repro.report.timeline import (
    GLYPH_SYNC,
    render_result_timeline,
    render_timeline,
)
from repro.topology.presets import single_cluster

from tests.conftest import run_app


@pytest.fixture(scope="module")
def barrier_result():
    mc = single_cluster(node_count=4, cpus_per_node=1)
    work = {0: 0.1, 1: 0.01, 2: 0.01, 3: 0.01}
    return analyze(run_app(mc, 4, make_barrier_imbalance_app(work), seed=4))


class TestTimeline:
    def test_rows_cover_all_ranks(self, barrier_result):
        view = render_timeline(
            barrier_result.timelines,
            barrier_result.definitions.regions,
            barrier_result.callpaths,
            columns=40,
        )
        assert set(view.rows) == {0, 1, 2, 3}
        assert all(len(row) == 40 for row in view.rows.values())

    def test_fast_ranks_dominated_by_barrier(self, barrier_result):
        """Ranks 1-3 spend most cells in the barrier glyph (waiting)."""
        view = render_timeline(
            barrier_result.timelines,
            barrier_result.definitions.regions,
            barrier_result.callpaths,
            columns=50,
        )
        for rank in (1, 2, 3):
            barrier_cells = view.rows[rank].count(GLYPH_SYNC)
            assert barrier_cells > 35
        # The slow rank computes most of the time instead.
        assert view.rows[0].count(GLYPH_SYNC) < 10

    def test_user_region_in_legend(self, barrier_result):
        view = render_timeline(
            barrier_result.timelines,
            barrier_result.definitions.regions,
            barrier_result.callpaths,
        )
        assert "work" in view.legend.values()

    def test_window_selection(self, barrier_result):
        view = render_timeline(
            barrier_result.timelines,
            barrier_result.definitions.regions,
            barrier_result.callpaths,
            start=0.0,
            end=0.05,
            columns=20,
        )
        assert view.end == 0.05

    def test_rank_selection(self, barrier_result):
        view = render_timeline(
            barrier_result.timelines,
            barrier_result.definitions.regions,
            barrier_result.callpaths,
            ranks=[0, 2],
        )
        assert set(view.rows) == {0, 2}

    def test_render_string_form(self, barrier_result):
        text = render_result_timeline(barrier_result, columns=30)
        assert "rank   0" in text
        assert "legend" in text

    def test_errors(self, barrier_result):
        with pytest.raises(ReportError):
            render_timeline({}, barrier_result.definitions.regions, barrier_result.callpaths)
        with pytest.raises(ReportError):
            render_timeline(
                barrier_result.timelines,
                barrier_result.definitions.regions,
                barrier_result.callpaths,
                columns=2,
            )
        with pytest.raises(ReportError):
            render_timeline(
                barrier_result.timelines,
                barrier_result.definitions.regions,
                barrier_result.callpaths,
                ranks=[99],
            )
        with pytest.raises(ReportError, match="no ranks"):
            render_timeline(
                barrier_result.timelines,
                barrier_result.definitions.regions,
                barrier_result.callpaths,
                ranks=[],
            )
        with pytest.raises(ReportError):
            render_timeline(
                barrier_result.timelines,
                barrier_result.definitions.regions,
                barrier_result.callpaths,
                start=1.0,
                end=0.5,
            )

    def test_p2p_glyphs_present(self):
        mc = single_cluster(node_count=2, cpus_per_node=1)
        work = {0: 0.01, 1: 0.05}
        result = analyze(run_app(mc, 2, make_imbalance_app(work), seed=1))
        text = render_result_timeline(result, columns=40)
        assert "m" in text.split("\n")[1]  # sendrecv cells on rank 0
