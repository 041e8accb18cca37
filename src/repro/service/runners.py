"""Execution of canonical job specs against the :mod:`repro.api` facade.

One entry point, :func:`execute_job`, which the live service runs whole
in a slot's worker process and which tests and the benchmark call
directly to compute a job's expected result without a server.
Determinism contract: for a fixed canonical spec, the ``result`` mapping
is byte-stable across runs and across restarts — it contains only
simulated-time quantities (rendered report text, severity cells, counts),
never wall-clock measurements.  Nondeterministic execution telemetry
(the supervised pool's :class:`~repro.resilience.pool.ExecutionReport`)
is returned *separately* so the job record can carry it without
polluting the cacheable result.

All :mod:`repro.api` imports are deferred into the functions: the
service package is itself re-exported through the facade, and the server
imports this module, so the compute stack loads only where a job runs —
in a slot's worker, or in the server when a job falls back to it.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import JobValidationError
from repro.service.store import AnalyzeConfig, SimulateConfig

__all__ = ["execute_job"]


def execute_job(spec: Mapping[str, Any]) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one canonical job spec; return ``(result, execution)``.

    A ``jobs=N`` analysis forks its own shard workers, as ``repro analyze
    --jobs N`` does.  The config's ``deadline_s`` starts one
    :class:`~repro.resilience.Deadline` bounding the whole job; when it
    expires the job raises :class:`~repro.errors.TimeBudgetExceeded`
    rather than returning — a partial result must never enter the
    content-addressed cache, where it would shadow the complete answer
    forever.
    """
    deadline = None
    budget = spec.get("config", {}).get("deadline_s")
    if budget:
        from repro.resilience import Deadline

        deadline = Deadline(budget)
    kind = spec.get("kind")
    if kind == "run_experiment":
        return _run_experiment_job(spec, deadline)
    if kind == "analyze":
        return _analyze_job(spec, deadline)
    if kind == "simulate":
        return _simulate_job(spec, deadline)
    raise JobValidationError(f"unknown job kind {kind!r}")


def _check_budget(deadline) -> None:
    """Refuse to cache a result whose budget ran out along the way."""
    if deadline is not None:
        deadline.check()


def _request(spec: Mapping[str, Any]):
    """The spec's ``AnalysisRequest``: its config minus the workload key."""
    from repro.api import AnalysisRequest

    config = dict(spec.get("config", {}))
    config.pop("coupling_intervals", None)
    return AnalysisRequest.from_config(config, jobs=spec["jobs"] or None)


def _run_experiment_job(spec: Mapping[str, Any], deadline) -> Tuple[Dict[str, Any], None]:
    """Regenerate a paper artifact; the result is its rendered text."""
    from repro.api import run_experiment

    text = run_experiment(
        spec["experiment"], _request(spec), seed=spec["seed"], deadline=deadline
    )
    # The experiment renderers flatten the AnalysisResult to text, so an
    # interrupted analysis is invisible here; the budget check is the
    # cache guard for this kind.
    _check_budget(deadline)
    return {"kind": "run_experiment", "experiment": spec["experiment"], "text": text}, None


def _analyze_job(
    spec: Mapping[str, Any], deadline
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """MetaTrace pipeline end to end: simulate, replay, render, cube.

    The ``text`` field is produced by the same renderer
    (:func:`~repro.experiments.figures.metatrace_report_text`) that
    ``run_experiment("figure6"/"figure7")`` uses, so a served report can
    be compared byte-for-byte against a direct library call.
    """
    from repro.experiments.figures import (
        METATRACE_FIGURES,
        metatrace_report_text,
        run_metatrace_experiment,
    )
    from repro.report.serialize import result_to_dict

    config = spec.get("config", {})
    experiment = spec["experiment"]
    outcome = run_metatrace_experiment(
        figure=METATRACE_FIGURES[experiment],
        seed=spec["seed"],
        coupling_intervals=AnalyzeConfig.from_config(config).coupling_intervals,
        request=_request(spec),
        deadline=deadline,
    )
    if outcome.result.interrupted is not None:
        from repro.errors import TimeBudgetExceeded

        raise TimeBudgetExceeded(outcome.result.interrupted)
    _check_budget(deadline)
    result = {
        "kind": "analyze",
        "experiment": experiment,
        "text": metatrace_report_text(outcome),
        "summary": outcome.summary(),
        "severity": result_to_dict(outcome.result, name=experiment),
    }
    if outcome.result.severity_timeline is not None:
        result["timeline"] = outcome.result.severity_timeline.to_payload()
    execution = (
        outcome.result.execution.to_dict()
        if outcome.result.execution is not None
        else None
    )
    return result, execution


def _simulate_job(spec: Mapping[str, Any], deadline) -> Tuple[Dict[str, Any], None]:
    """Run a synthetic imbalance workload; report archive integrity."""
    import math

    from repro.api import Placement, simulate, uniform_metacomputer, verify_archives
    from repro.apps.imbalance import make_imbalance_app

    sizes = SimulateConfig.from_config(spec.get("config", {}))
    ranks, metahosts, iterations = sizes.ranks, sizes.metahosts, sizes.iterations
    node_count = max(1, math.ceil(ranks / metahosts))
    metacomputer = uniform_metacomputer(
        metahost_count=metahosts, node_count=node_count, cpus_per_node=1
    )
    placement = Placement.block(metacomputer, ranks)
    # Deterministic per-rank compute imbalance: three work classes.
    work = {rank: 0.005 * (1 + rank % 3) for rank in range(ranks)}
    run = simulate(
        make_imbalance_app(work, iterations=iterations),
        metacomputer,
        placement,
        seed=spec["seed"],
    )
    verification = verify_archives(run)
    _check_budget(deadline)
    result = {
        "kind": "simulate",
        "experiment": spec["experiment"],
        "world_size": run.placement.size,
        "machines": [metacomputer.metahosts[m].name for m in run.machines_used],
        "integrity_ok": verification.ok,
    }
    return result, None
