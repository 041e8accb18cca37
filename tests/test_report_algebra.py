"""Tests for cross-experiment algebra (diff / merge / mean)."""

import pytest

from repro.analysis.patterns import LATE_SENDER, TIME, WAIT_AT_BARRIER
from repro.api import analyze
from repro.apps.imbalance import make_barrier_imbalance_app
from repro.errors import ReportError
from repro.report.algebra import ExperimentData, canonicalize, diff, mean, merge
from repro.report.serialize import (
    experiment_from_dict,
    experiment_to_dict,
    result_to_dict,
)
from repro.topology.presets import single_cluster

from tests.conftest import run_app


def _run(work_slow, seed=0):
    mc = single_cluster(node_count=4, cpus_per_node=1)
    work = {0: work_slow, 1: 0.01, 2: 0.01, 3: 0.01}
    run = run_app(mc, 4, make_barrier_imbalance_app(work), seed=seed)
    return analyze(run)


@pytest.fixture(scope="module")
def heavy():
    return canonicalize(_run(0.3), "heavy")


@pytest.fixture(scope="module")
def light():
    return canonicalize(_run(0.05), "light")


class TestCanonicalize:
    def test_totals_preserved(self, heavy):
        result = _run(0.3)
        assert heavy.metric_total(WAIT_AT_BARRIER) == pytest.approx(
            result.metric_total(WAIT_AT_BARRIER)
        )

    def test_keys_are_structure_free(self, heavy):
        metric, path, rank = next(iter(heavy.cells))
        assert isinstance(metric, str)
        assert all(isinstance(frame, str) for frame in path)
        assert isinstance(rank, int)

    def test_by_machine(self, heavy):
        by_machine = heavy.by_machine(TIME)
        assert set(by_machine) == {"cluster"}

    def test_value_in_region(self, heavy):
        barrier_value = heavy.value_in_region(WAIT_AT_BARRIER, "MPI_Barrier")
        assert barrier_value == pytest.approx(heavy.metric_total(WAIT_AT_BARRIER))


class TestDiff:
    def test_diff_shows_improvement(self, heavy, light):
        delta = diff(heavy, light)
        assert delta.metric_total(WAIT_AT_BARRIER) > 0  # heavy waits more
        assert delta.total_time > 0

    def test_diff_is_antisymmetric(self, heavy, light):
        forward = diff(heavy, light)
        backward = diff(light, heavy)
        assert forward.metric_total(TIME) == pytest.approx(
            -backward.metric_total(TIME)
        )

    def test_diff_of_identical_is_zero(self, heavy):
        delta = diff(heavy, heavy)
        assert delta.metric_total(WAIT_AT_BARRIER) == pytest.approx(0.0)

    def test_name_records_operands(self, heavy, light):
        assert diff(heavy, light).name == "(heavy - light)"


class TestMergeAndMean:
    def test_merge_sums(self, heavy, light):
        merged = merge(heavy, light)
        assert merged.metric_total(TIME) == pytest.approx(
            heavy.metric_total(TIME) + light.metric_total(TIME)
        )

    def test_mean_averages(self, heavy, light):
        averaged = mean([heavy, light])
        assert averaged.metric_total(TIME) == pytest.approx(
            (heavy.metric_total(TIME) + light.metric_total(TIME)) / 2
        )

    def test_mean_of_one_is_identity(self, heavy):
        averaged = mean([heavy])
        assert averaged.metric_total(LATE_SENDER) == pytest.approx(
            heavy.metric_total(LATE_SENDER)
        )

    def test_mean_of_none_rejected(self):
        with pytest.raises(ReportError):
            mean([])

    def test_empty_combination_rejected(self):
        a = ExperimentData(name="a")
        b = ExperimentData(name="b")
        with pytest.raises(ReportError):
            diff(a, b)


class TestSerialization:
    def test_experiment_round_trip(self, heavy):
        restored = experiment_from_dict(experiment_to_dict(heavy))
        assert restored.cells == heavy.cells
        assert restored.total_time == heavy.total_time
        assert restored.machine_of_rank == heavy.machine_of_rank

    def test_result_to_dict_includes_metadata(self):
        result = _run(0.1)
        doc = result_to_dict(result, "x")
        assert doc["scheme"] == result.scheme_name
        assert "violations" in doc and "traffic" in doc

    def test_malformed_document_rejected(self):
        with pytest.raises(ReportError):
            experiment_from_dict({"name": "x"})

    def test_json_compatible(self, heavy):
        import json

        text = json.dumps(experiment_to_dict(heavy))
        restored = experiment_from_dict(json.loads(text))
        assert restored.cells == heavy.cells
