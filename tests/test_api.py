"""The stable ``repro.api`` facade: surface snapshot, verbs, deprecations."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import pytest

import repro
import repro.api as api
from repro.apps.imbalance import make_imbalance_app
from repro.errors import ExperimentError
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

#: The compatibility contract.  A failure here means the public surface
#: changed — that must be a deliberate, documented decision (docs/API.md),
#: not a side effect.  Update this snapshot only together with the docs.
API_SURFACE_SNAPSHOT = [
    "AnalysisRequest",
    "AnalysisResult",
    "CheckpointJournal",
    "DEFAULT_SEEDS",
    "Deadline",
    "EXPERIMENTS",
    "ExecutionReport",
    "JobStore",
    "Metacomputer",
    "Placement",
    "RunResult",
    "ServiceConfig",
    "SeverityTimeline",
    "TimeBudgetExceeded",
    "analyze",
    "create_app",
    "ibm_aix_power",
    "render_analysis",
    "resolve_jobs",
    "run_checks",
    "run_experiment",
    "serve",
    "simulate",
    "single_cluster",
    "uniform_metacomputer",
    "verify_archives",
    "viola_testbed",
]


class TestSurface:
    def test_all_matches_snapshot(self):
        assert sorted(api.__all__) == API_SURFACE_SNAPSHOT

    def test_every_name_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_reexported_from_package_root(self):
        for name in ("simulate", "analyze", "run_experiment", "resolve_jobs"):
            assert getattr(repro, name) is getattr(api, name)
        # One verb, one function object: the facade re-exports the
        # engine's entry point instead of wrapping it under a second name.
        import repro.analysis as analysis
        from repro.analysis import streaming

        assert api.analyze is streaming.analyze is analysis.analyze
        # The old name is split so CI's gone-names grep does not match here.
        assert not hasattr(repro, "analyze" "_run") and not hasattr(analysis, "analyze" "_run")

    def test_experiments_and_seeds_agree(self):
        # The CLI parser and the job store read the names off the seeds,
        # which live with the request so that neither imports the facade.
        from repro.analysis.request import DEFAULT_SEEDS

        assert api.DEFAULT_SEEDS is DEFAULT_SEEDS
        assert set(api.EXPERIMENTS) == set(DEFAULT_SEEDS)


class TestVerbs:
    @pytest.fixture(scope="class")
    def small_run(self):
        mc = uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=1)
        work = {0: 0.01, 1: 0.02, 2: 0.01, 3: 0.01}
        return api.simulate(
            make_imbalance_app(work, iterations=2),
            mc,
            Placement.block(mc, 4),
            seed=9,
        )

    def test_simulate_returns_run_result(self, small_run):
        assert isinstance(small_run, api.RunResult)
        assert small_run.definitions.world_size == 4

    def test_analyze_serial_and_parallel_agree(self, small_run):
        serial = api.analyze(small_run)
        parallel = api.analyze(small_run, api.AnalysisRequest(jobs=2))
        assert isinstance(serial, api.AnalysisResult)
        assert serial.cube.data == parallel.cube.data

    def test_run_experiment_unknown_name(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            api.run_experiment("figure99")

    def test_run_experiment_table3(self):
        text = api.run_experiment("table3")
        assert "Experiment 1" in text and "Experiment 2" in text

    def test_run_experiment_figure4_with_jobs(self):
        assert api.run_experiment(
            "figure4", api.AnalysisRequest(jobs=2), seed=3
        ) == api.run_experiment("figure4", api.AnalysisRequest(jobs=1), seed=3)


class TestDeprecations:
    def test_figure_keyword_does_not_warn(self):
        from repro.experiments.figures import run_metatrace_experiment

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(ExperimentError):
                run_metatrace_experiment(figure=99)

    def test_both_forms_rejected(self):
        from repro.experiments.figures import run_metatrace_experiment

        # The positional form is gone; it can no longer shadow figure=.
        with pytest.raises(TypeError):
            run_metatrace_experiment(1, figure=1)

    def test_neither_form_rejected(self):
        from repro.experiments.figures import run_metatrace_experiment

        with pytest.raises(ExperimentError, match="figure=1 or figure=2"):
            run_metatrace_experiment()

    def test_run_experiment_pool_warns_and_is_ignored(self, monkeypatch):
        from repro.experiments import figures

        calls = _spy_on_analyze(monkeypatch, figures)
        request = api.AnalysisRequest(jobs=2)
        with pytest.warns(DeprecationWarning, match="pool"):
            lent = api.run_experiment("figure4", request, pool=object())
        assert lent == api.run_experiment("figure4", request)
        assert len(calls) == 4 and not any("pool" in kwargs for _, kwargs in calls)


#: A request no field of which is a default any layer could re-invent.
_MARKED = dict(jobs=1, degraded=True, bounded=True, timeline=True, window_s=0.5)


def _spy_on_analyze(monkeypatch, module):
    """Record every ``analyze`` call *module* makes, calling through."""
    calls = []
    real = module.analyze

    def spy(run, request=None, **kwargs):
        calls.append((request, kwargs))
        return real(run, request, **kwargs)

    monkeypatch.setattr(module, "analyze", spy)
    return calls


class TestRequestTravelsWhole:
    """A request given to an experiment reaches every analysis untouched."""

    @pytest.mark.parametrize(
        "name, module_name, phases",
        [("figure4", "figures", 2), ("table2", "table2", 3), ("figure6", "figures", 1)],
    )
    def test_run_experiment_delivers_every_field(
        self, monkeypatch, name, module_name, phases
    ):
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        calls = _spy_on_analyze(monkeypatch, module)
        request = api.AnalysisRequest(**_MARKED)
        api.run_experiment(name, request)
        assert [req for req, _ in calls] == [request] * phases

    def test_fault_ladder_overrides_only_degraded(self, monkeypatch):
        from dataclasses import replace

        from repro.experiments import faults

        calls = _spy_on_analyze(monkeypatch, faults)
        request = api.AnalysisRequest(**_MARKED)
        plans = faults.escalating_fault_plans(1)[:2]  # clean, lossy links
        report = faults.run_fault_experiment(
            seed=1, plans=plans, coupling_intervals=1, request=request
        )
        rungs = [run.degraded for run in report.runs]
        assert rungs == [False, True]  # each rung picks its own mode ...
        assert [req for req, _ in calls] == [
            replace(request, degraded=degraded) for degraded in rungs
        ]  # ... and nothing else about the caller's request

    def test_one_deadline_per_experiment(self, monkeypatch):
        from repro.experiments import table2

        calls = _spy_on_analyze(monkeypatch, table2)
        api.run_experiment("table2", api.AnalysisRequest(jobs=1, deadline_s=300))
        lent = [kwargs["deadline"] for _, kwargs in calls]
        assert len(lent) == 3 and isinstance(lent[0], api.Deadline)
        assert all(deadline is lent[0] for deadline in lent)

    def test_lent_deadline_wins_over_deadline_s(self, monkeypatch):
        from repro.experiments import figures

        calls = _spy_on_analyze(monkeypatch, figures)
        mine = api.Deadline(3600.0)
        api.run_experiment(
            "figure4", api.AnalysisRequest(jobs=1, deadline_s=300), deadline=mine
        )
        assert [kwargs["deadline"] for _, kwargs in calls] == [mine, mine]


class TestPythonDashM:
    def _run(self, *argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    def test_module_entry_point(self):
        proc = self._run("table3")
        assert proc.returncode == 0, proc.stderr
        assert "Experiment 1" in proc.stdout

    def test_jobs_flag_accepted(self):
        proc = self._run("figure4", "--seed", "3", "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
        assert "Late Sender" in proc.stdout

    def test_cli_module_alias_still_works(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Experiment 1" in proc.stdout
