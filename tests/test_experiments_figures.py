"""Tests regenerating the paper's figures and checking their shapes.

Figure 6 (Experiment 1, three metahosts): Grid Late Sender ≈ 9.3 % of
execution time, concentrated in ``cgiteration()`` on FH-BRS; Grid Wait at
Barrier ≈ 23.1 %, concentrated in ``ReadVelFieldFromTrace()`` on the XD1.

Figure 7 (Experiment 2, one metahost): grid severities vanish, the barrier
waiting time drops sharply, and the steering Late Sender grows — "now Trace
mostly waits for Partrace".
"""

import dataclasses
import inspect
import sys

import pytest

from repro.analysis.patterns import (
    GRID_LATE_SENDER,
    GRID_WAIT_AT_BARRIER,
    GRID_WAIT_AT_NXN,
    LATE_SENDER,
    WAIT_AT_BARRIER,
)
from repro.api import AnalysisRequest, run_experiment
from repro.apps.clockbench import ClockBenchConfig
from repro.errors import ArchiveError, ClockError, ExperimentError
from repro.trace.archive import (
    ArchiveVerification,
    BlockCorruption,
    RunVerification,
    TraceVerification,
)
from repro.experiments.figures import (
    run_figure1,
    run_figure3,
    run_figure4,
)


class TestFigure1:
    def test_offset_changes_linearly(self):
        rows = run_figure1(duration_s=100.0, samples=11)
        offsets = [row[3] for row in rows]
        deltas = [b - a for a, b in zip(offsets, offsets[1:])]
        assert max(deltas) - min(deltas) < 1e-12  # constant slope
        assert offsets[0] != offsets[-1]  # drifting apart

    def test_initial_offset_visible(self):
        rows = run_figure1()
        t0, a0, b0, offset0 = rows[0]
        assert t0 == 0.0
        assert offset0 == pytest.approx(a0 - b0)
        assert abs(offset0) > 1e-3


class TestFigure3:
    def test_hierarchical_beats_flat_intra_metahost(self, table2_outcome):
        outcome = run_figure3(table2_outcome["run"])
        flat = outcome.max_abs_us("two-flat-offsets")
        hier = outcome.max_abs_us("two-hierarchical-offsets")
        assert hier < flat
        # Hierarchical pair errors stay below the smallest internal latency
        # (21.5 µs) — that is why it produces zero violations.
        assert hier < 21.5

    def test_flat_errors_exceed_internal_latency(self, table2_outcome):
        outcome = run_figure3(table2_outcome["run"])
        assert outcome.max_abs_us("two-flat-offsets") > 21.5

    def test_clockless_run_is_refused(self, table2_outcome):
        with pytest.raises(ClockError, match="no ground-truth clocks"):
            run_figure3(dataclasses.replace(table2_outcome["run"], clocks=None))

    def test_figure3_runs_no_analysis(self, monkeypatch):
        """Figure 3 reads the run's clocks and offset measurements; it
        analyzes no archive, under any name ``analyze`` is bound to."""
        from repro.analysis import streaming

        real, calls = streaming.analyze, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "analyze", None) is real:
                monkeypatch.setattr(module, "analyze", counted)
        run_experiment("figure3", seed=7)
        assert calls == []


class TestPinnedText:
    """The rendered Figure 3 and Table 2, character for character."""

    def test_figure3_seed_1(self):
        assert run_experiment("figure3", seed=1) == "\n".join([
            "Figure 3: intra-metahost pairwise synchronization error",
            "",
            "two-flat-offsets             mean |err|   18.162 us   max   89.012 us",
            "two-hierarchical-offsets     mean |err|    0.095 us   max    0.356 us",
        ])

    def test_table2_seed_7(self):
        assert run_experiment("table2", seed=7) == "\n".join([
            "Table 2: number of clock condition violations recognized by the "
            "parallel analyzer",
            "",
            "measurement                   violations  internal  external  messages   paper",
            "single-flat-offset                   419       419         0      7040    7560",
            "two-flat-offsets                     107       107         0      7040    2179",
            "two-hierarchical-offsets               0         0         0      7040       0",
        ])


class TestFigure4:
    @pytest.fixture(scope="class")
    def analyses(self):
        return run_figure4(seed=3)

    def test_late_sender_semantics(self, analyses):
        result = analyses["late_sender"]
        assert result.metric_total(LATE_SENDER) > 0.1
        # Rank 1 is the slow one; its ring successor (rank 2) waits most.
        by_rank = result.cube.by_rank(LATE_SENDER)
        assert by_rank.get(2, 0.0) == max(by_rank.values())

    def test_wait_at_nxn_semantics(self, analyses):
        from repro.analysis.patterns import WAIT_AT_NXN

        result = analyses["wait_at_nxn"]
        assert result.metric_total(WAIT_AT_NXN) > 0.3
        by_rank = result.cube.by_rank(WAIT_AT_NXN)
        assert by_rank.get(1, 0.0) == 0.0  # the slow rank never waits

    def test_grid_variants_present(self, analyses):
        # The micro-machine spans two metahosts, so grid patterns fire.
        assert analyses["wait_at_nxn"].metric_total(GRID_WAIT_AT_NXN) > 0.0


class TestFigure6Experiment1:
    def test_grid_late_sender_band(self, metatrace_exp1):
        assert 5.0 <= metatrace_exp1.grid_late_sender_pct <= 15.0

    def test_grid_wait_at_barrier_band(self, metatrace_exp1):
        assert 15.0 <= metatrace_exp1.grid_wait_at_barrier_pct <= 32.0

    def test_late_sender_concentrated_in_cgiteration(self, metatrace_exp1):
        total = metatrace_exp1.result.metric_total(LATE_SENDER)
        in_cg = metatrace_exp1.late_sender_in("cgiteration")
        assert in_cg / total > 0.9

    def test_late_sender_mostly_on_fhbrs(self, metatrace_exp1):
        by_machine = metatrace_exp1.result.machine_breakdown(LATE_SENDER)
        assert by_machine["FH-BRS"] > 0.8 * sum(by_machine.values())

    def test_barrier_wait_in_read_vel_field_on_xd1(self, metatrace_exp1):
        total = metatrace_exp1.result.metric_total(WAIT_AT_BARRIER)
        in_read = metatrace_exp1.wait_at_barrier_in("ReadVelFieldFromTrace")
        assert in_read / total > 0.9
        by_machine = metatrace_exp1.result.machine_breakdown(WAIT_AT_BARRIER)
        assert by_machine["FZJ-XD1"] > 0.9 * sum(by_machine.values())

    def test_grid_subsets_of_parents(self, metatrace_exp1):
        result = metatrace_exp1.result
        assert result.metric_total(GRID_LATE_SENDER) <= result.metric_total(
            LATE_SENDER
        ) * (1 + 1e-9)
        assert result.metric_total(GRID_WAIT_AT_BARRIER) <= result.metric_total(
            WAIT_AT_BARRIER
        ) * (1 + 1e-9)

    def test_no_clock_violations_with_hierarchical_sync(self, metatrace_exp1):
        assert metatrace_exp1.result.violations.violations == 0


class TestFigure7Experiment2:
    def test_grid_patterns_vanish(self, metatrace_exp2):
        assert metatrace_exp2.grid_late_sender_pct == 0.0
        assert metatrace_exp2.grid_wait_at_barrier_pct == 0.0
        assert metatrace_exp2.grid_wait_at_nxn_pct == 0.0

    def test_barrier_wait_decreases_sharply(self, metatrace_exp1, metatrace_exp2):
        assert (
            metatrace_exp2.wait_at_barrier_pct
            < metatrace_exp1.wait_at_barrier_pct / 3
        )

    def test_cgiteration_wait_decreases(self, metatrace_exp1, metatrace_exp2):
        assert metatrace_exp2.late_sender_in("cgiteration") < (
            metatrace_exp1.late_sender_in("cgiteration") / 5
        )

    def test_steering_late_sender_increases(self, metatrace_exp1, metatrace_exp2):
        """Trace now mostly waits for Partrace (in getsteering)."""
        assert metatrace_exp2.late_sender_in("getsteering") > 10 * max(
            metatrace_exp1.late_sender_in("getsteering"), 1e-9
        )
        # And it dominates Experiment 2's Late Sender severity.
        total = metatrace_exp2.result.metric_total(LATE_SENDER)
        assert metatrace_exp2.late_sender_in("getsteering") / total > 0.5


class TestDriverErrors:
    def test_unknown_experiment_rejected(self):
        from repro.experiments.figures import run_metatrace_experiment

        with pytest.raises(ExperimentError):
            run_metatrace_experiment(figure=3)


class TestDriversTakeARequest:
    def test_no_flat_analysis_keywords(self):
        from repro.experiments.faults import run_fault_experiment
        from repro.experiments.figures import run_metatrace_experiment
        from repro.experiments.table2 import run_table2

        # The request's fields, and the pool nothing above ``analyze`` lends.
        flat = {"jobs", "timeout", "max_retries", "verify_archive", "pool"}
        for driver in (
            run_figure4, run_metatrace_experiment, run_table2, run_fault_experiment
        ):
            parameters = inspect.signature(driver).parameters
            assert "request" in parameters
            assert not flat & set(parameters), driver.__name__

    def test_flat_keyword_is_a_type_error(self):
        from repro.experiments.figures import run_metatrace_experiment

        with pytest.raises(TypeError):
            run_metatrace_experiment(figure=1, jobs=2)


def _one_corrupt_block(run) -> RunVerification:
    """What ``verify_archives`` reports for one failed checksum block."""
    damage = BlockCorruption(
        rank=0, block=0, offset=0, length=64,
        expected_crc32=1, actual_crc32=2, reason="checksum mismatch",
    )
    trace = TraceVerification(
        rank=0, size_expected=64, size_actual=64, corruptions=(damage,)
    )
    return RunVerification([ArchiveVerification(path="archive", traces={0: trace})])


#: A table2 run small enough to simulate in milliseconds.
_SMALL_TABLE2 = dict(
    config=ClockBenchConfig(
        rounds=4, exchanges_per_round=1, size_bytes=64, inter_round_gap_s=0.05
    ),
    nodes_per_metahost=2,
)


class TestStrictVerification:
    """``verify_archive`` on the strict drivers: one helper, one message.

    The drivers build their own runs, so damage is reported by a patched
    ``verify_archives`` rather than injected into an archive.
    """

    STRICT = AnalysisRequest(verify_archive=True)

    def test_figure4_raises_on_damage(self, monkeypatch):
        from repro.experiments import figures

        monkeypatch.setattr(figures, "verify_archives", _one_corrupt_block)
        with pytest.raises(ArchiveError) as caught:
            run_figure4(request=self.STRICT)
        assert str(caught.value).startswith("figure4 archive verification failed:\n")
        assert "CORRUPTION DETECTED" in str(caught.value)

    def test_table2_raises_on_damage(self, monkeypatch):
        from repro.experiments import table2

        monkeypatch.setattr(table2, "verify_archives", _one_corrupt_block)
        with pytest.raises(ArchiveError) as caught:
            table2.run_table2(request=self.STRICT, **_SMALL_TABLE2)
        assert str(caught.value).startswith("table2 archive verification failed:\n")

    def test_clean_archives_pass(self):
        from repro.experiments.table2 import run_table2

        assert set(run_figure4(request=self.STRICT)) == {"late_sender", "wait_at_nxn"}
        rows, _run, _analyses = run_table2(request=self.STRICT, **_SMALL_TABLE2)
        assert len(rows) == 3
