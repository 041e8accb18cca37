"""The stable public API of :mod:`repro`.

Everything a user of this package needs lives behind four names:

* :func:`simulate` — run one traced experiment on a simulated metacomputer
  and return its :class:`~repro.sim.runtime.RunResult`;
* :func:`analyze` — replay a run's trace archive into an
  :class:`~repro.analysis.result.AnalysisResult`, serially (``jobs=1``) or
  sharded across worker processes (``jobs>=2`` / ``jobs=0`` for one per
  core) with bit-identical output (it is
  :func:`repro.analysis.streaming.analyze` itself, not a wrapper);
* :func:`run_experiment` — regenerate one of the paper's tables or figures
  by name and return its rendered text;
* the topology presets (:func:`~repro.topology.presets.viola_testbed` and
  friends) for building machines to simulate on;
* the analysis service (:func:`~repro.service.app.create_app`,
  :func:`~repro.service.http.serve`, :class:`~repro.service.store.JobStore`)
  — the same three verbs as crash-safe asynchronous HTTP jobs.

Analyses are described by one object: :class:`AnalysisRequest` carries
``degraded`` (salvage-and-continue replay), ``jobs`` (analysis process
count), the supervised-pool tunables, and the time-resolved severity
options (``timeline``/``window_s``/``stride_s``/``bounded``).  ``seed=``
selects the deterministic random seed and ``scheme=`` the
clock-synchronization scheme everywhere.

This module's ``__all__`` is the compatibility contract: names listed here
are stable; anything imported from deeper modules may move between
releases.  ``repro.cli`` and the experiment drivers consume the package
exclusively through this facade.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.analysis.parallel import resolve_jobs
from repro.analysis.request import AnalysisRequest
from repro.analysis.result import AnalysisResult
from repro.analysis.severity_timeline import SeverityTimeline
from repro.analysis.streaming import analyze
from repro.errors import ExperimentError, TimeBudgetExceeded
from repro.report.render import render_analysis
from repro.resilience import CheckpointJournal, Deadline, ExecutionReport
from repro.service import JobStore, ServiceConfig, create_app, serve
from repro.sim.process import AppGenerator
from repro.sim.runtime import MetaMPIRuntime, RunResult
from repro.topology.metacomputer import Metacomputer, Placement
from repro.topology.presets import (
    ibm_aix_power,
    single_cluster,
    uniform_metacomputer,
    viola_testbed,
)
from repro.trace.archive import RunVerification

__all__ = [
    "simulate",
    "analyze",
    "run_experiment",
    "run_checks",
    "verify_archives",
    "resolve_jobs",
    "AnalysisRequest",
    "AnalysisResult",
    "SeverityTimeline",
    "RunResult",
    "Metacomputer",
    "Placement",
    "CheckpointJournal",
    "Deadline",
    "ExecutionReport",
    "TimeBudgetExceeded",
    "create_app",
    "serve",
    "ServiceConfig",
    "JobStore",
    "render_analysis",
    "EXPERIMENTS",
    "DEFAULT_SEEDS",
    "viola_testbed",
    "single_cluster",
    "uniform_metacomputer",
    "ibm_aix_power",
]


# -- core verbs ---------------------------------------------------------------


def simulate(
    app: Callable[..., AppGenerator],
    metacomputer: Metacomputer,
    placement: Placement,
    *,
    seed: int = 0,
    **runtime_options,
) -> RunResult:
    """Run *app* traced on *metacomputer* under *placement*.

    Thin veneer over :class:`~repro.sim.runtime.MetaMPIRuntime`: any
    further keyword (``params=``, ``clocks=``, ``namespaces=``,
    ``subcomms=``, ``fault_plan=``, ...) is forwarded to its constructor.
    """
    runtime = MetaMPIRuntime(metacomputer, placement, seed=seed, **runtime_options)
    return runtime.run(app)


def verify_archives(run: RunResult) -> RunVerification:
    """Checksum-verify every partial archive of a traced run.

    Walks each metahost's archive through its own reader and checks all
    manifest-covered traces block by block, localizing any damage; see
    :class:`~repro.trace.archive.RunVerification`.  Never raises on
    corruption — the verdict is the return value.
    """
    verification = RunVerification()
    for machine in run.machines_used:
        verification.archives.append(run.reader(machine).verify())
    return verification


def run_checks(root: Optional[str] = None, **options):
    """Run the :mod:`repro.check` static-analysis pass over a source tree.

    Walks *root* (default: the installed ``repro`` package) through every
    rule family — determinism, atomicity, concurrency, API drift — applies
    the checked-in suppression baseline, and returns a
    :class:`~repro.check.findings.CheckReport`.  ``repro check`` is a thin
    CLI shell over this function; see its docstring for the options.

    Imported lazily so the facade does not pull the checker (and the
    ``ast`` machinery) into ordinary simulation runs.
    """
    from repro.check.engine import run_checks as _run_checks

    return _run_checks(root=root, **options)


# -- named experiments --------------------------------------------------------

#: Experiment name → default seed (the seeds the committed outputs use).
DEFAULT_SEEDS: Dict[str, int] = {
    "table1": 0,
    "table2": 7,
    "table3": 0,
    "figure1": 0,
    "figure3": 7,
    "figure4": 3,
    "figure6": 11,
    "figure7": 11,
    "faults": 11,
}

# The experiment runners import their drivers lazily: the drivers
# themselves import through this facade, and deferring the other
# direction keeps the cycle open at module-import time.
#
# Every runner takes ``(seed, request, journal, **lent)``: the request
# goes whole to the drivers that analyze, ``lent`` is the live ``pool``
# and ``deadline`` they borrow; the purely computational runners ignore both.


def _run_table1(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    from repro.experiments.table1 import run_table1, table1_text

    return table1_text(run_table1(seed=seed))


def _run_table2(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    from repro.experiments.table2 import run_table2, table2_text

    rows, _run, _analyses = run_table2(
        seed=seed, request=request, journal=journal, **lent
    )
    return table2_text(rows)


def _run_table3(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    from repro.experiments.configs import table3_text

    return table3_text()


def _run_figure1(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    from repro.experiments.figures import run_figure1

    rows = run_figure1()
    lines = ["Figure 1: clocks with initial offset and different drifts", ""]
    for t, a, b, offset in rows:
        lines.append(
            f"t={t:7.1f}s  A={a:12.6f}  B={b:12.6f}  A-B={offset * 1e3:8.4f} ms"
        )
    return "\n".join(lines)


def _run_figure3(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    import numpy as np

    from repro.experiments.figures import run_figure3
    from repro.experiments.table2 import run_table2

    # No journal here: figure3 needs the live RunResult, which a
    # journal-satisfied table2 cell would not recompute.
    _rows, run, _analyses = run_table2(seed=seed, request=request, **lent)
    outcome = run_figure3(run)
    lines = ["Figure 3: intra-metahost pairwise synchronization error", ""]
    for scheme, errors in outcome.pair_errors_us.items():
        abs_err = [abs(e) for e in errors]
        lines.append(
            f"{scheme:28s} mean |err| {np.mean(abs_err):8.3f} us   "
            f"max {max(abs_err):8.3f} us"
        )
    return "\n".join(lines)


def _run_figure4(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    from repro.analysis.patterns import LATE_SENDER, WAIT_AT_NXN
    from repro.experiments.figures import run_figure4

    analyses = run_figure4(seed=seed, request=request, **lent)
    ls = analyses["late_sender"]
    nxn = analyses["wait_at_nxn"]
    return "\n".join(
        [
            "Figure 4: pattern semantics on micro-workloads",
            f"(a) Late Sender: {ls.pct(LATE_SENDER):.1f} % of time",
            f"(b) Wait at NxN: {nxn.pct(WAIT_AT_NXN):.1f} % of time",
        ]
    )


def _run_metatrace(
    name: str, seed: int, request: AnalysisRequest, journal, **lent
) -> str:
    from repro.experiments.figures import (
        METATRACE_FIGURES,
        metatrace_report_text,
        run_metatrace_experiment,
    )

    figure = METATRACE_FIGURES[name]
    return metatrace_report_text(
        run_metatrace_experiment(figure=figure, seed=seed, request=request, **lent)
    )


def _run_faults(seed: int, request: AnalysisRequest, journal, **lent) -> str:
    from repro.experiments.faults import run_fault_experiment

    return run_fault_experiment(
        seed=seed, request=request, journal=journal, **lent
    ).text()


#: Experiment name → runner(seed, request, journal, **lent) producing the
#: rendered text.
EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "figure1": _run_figure1,
    "figure3": _run_figure3,
    "figure4": _run_figure4,
    "figure6": partial(_run_metatrace, "figure6"),
    "figure7": partial(_run_metatrace, "figure7"),
    "faults": _run_faults,
}


def run_experiment(
    name: str,
    request: Optional[AnalysisRequest] = None,
    *,
    seed: Optional[int] = None,
    journal: Optional[CheckpointJournal] = None,
    pool=None,
    deadline=None,
) -> str:
    """Regenerate one paper artifact by name; returns its rendered text.

    ``name`` is one of :data:`EXPERIMENTS` (``table1`` ... ``faults``).
    ``seed=None`` uses the artifact's committed default seed.  *request*
    describes the analysis phases as in :func:`analyze` and reaches every
    one of them whole (the fault ladder alone sets ``degraded`` per rung);
    ``request.verify_archive`` checksum-verifies trace archives first.
    The text renders severities and counts, so only ``degraded`` and an
    expired ``deadline_s`` can change it; a ``timeline`` is computed but
    not rendered (``repro analyze --timeline`` or an ``analyze`` job do).

    ``journal`` makes the run resumable: each completed (experiment, seed)
    cell — and, inside ``table2`` and ``faults``, each completed
    per-scheme/per-plan sub-cell — is persisted, and a rerun with the same
    journal skips straight to the cached result.  On archive damage the
    strict experiments raise :class:`~repro.errors.ArchiveError`, the
    fault ladder records the verdict in its report instead.

    ``pool`` lends every analysis phase of the experiment an externally
    owned warm :class:`SupervisedPool`, as in :func:`analyze`.  A lent
    ``deadline`` wins over ``request.deadline_s``; either way this is the
    one place an experiment's :class:`Deadline` starts, so all its phases
    draw down one clock.  (A driver called directly with ``deadline_s``
    and no lent ``Deadline`` restarts the budget per ``analyze`` call.)
    """
    runner = EXPERIMENTS.get(name)
    if runner is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {name!r}; choose from: {known}")
    if request is None:
        request = AnalysisRequest()
    if seed is None:
        seed = DEFAULT_SEEDS[name]
    if deadline is None and request.deadline_s is not None:
        deadline = Deadline(request.deadline_s)
    cell = {"experiment": name, "seed": seed}
    if journal is not None:
        cached = journal.get(cell)
        if cached is not None:
            return cached["text"]
    text = runner(seed, request, journal, pool=pool, deadline=deadline)
    if journal is not None:
        journal.record(cell, {"text": text})
    return text
