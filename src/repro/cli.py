"""Command-line interface: regenerate the paper's artifacts, or serve them.

A thin wrapper over :mod:`repro.api`.  The experiment commands each
resolve to one :func:`repro.api.run_experiment` call; the service
commands drive the crash-safe job layer of :mod:`repro.service`.

Usage::

    python -m repro table1              # VIOLA network latencies
    python -m repro table2              # clock-condition violations
    python -m repro table3              # experiment configurations
    python -m repro figure6             # 3-metahost MetaTrace analysis
    python -m repro figure7             # 1-metahost MetaTrace analysis
    python -m repro faults              # escalating fault-injection ladder
    python -m repro all                 # everything above
    python -m repro figure6 --seed 3    # different random seed
    python -m repro figure6 --jobs 4    # sharded parallel analysis
    python -m repro faults --resume     # journal cells, skip finished ones
    python -m repro table2 --verify-archive   # checksum archives first

    python -m repro analyze figure6 --timeline           # when is the severity?
    python -m repro analyze figure6 --timeline --metric grid-late-sender

    python -m repro serve --port 8137            # run the analysis service
    python -m repro submit figure6 --wait        # submit a job, poll, print
    python -m repro jobs                         # list the service's jobs
    python -m repro jobs --store .repro-jobs.jsonl   # ... offline, from disk
    python -m repro jobs --requeue KEY           # re-admit a quarantined job
    python -m repro jobs --cancel KEY            # cancel a queued/running job

    python -m repro chaos --seeds 0..4           # seeded chaos invariants

(``python -m repro.cli`` keeps working as an alias.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import (
    DEFAULT_SEEDS,
    EXPERIMENTS,
    AnalysisRequest,
    CheckpointJournal,
    run_experiment,
)
from repro.errors import CheckpointLockError, PoolShutdown, ReproError
from repro.service.store import DONE, TERMINAL

#: Default on-disk location of the ``--resume`` checkpoint journal.
DEFAULT_JOURNAL = ".repro-checkpoint.jsonl"

#: Default service endpoint of the client commands.
DEFAULT_URL = "http://127.0.0.1:8137"


def _command(name: str) -> Callable[..., str]:
    def run(
        seed: int,
        request: Optional[AnalysisRequest] = None,
        journal: Optional[CheckpointJournal] = None,
    ) -> str:
        return run_experiment(name, request, seed=seed, journal=journal)

    run.__name__ = f"_cmd_{name}"
    return run


#: Command name → runner(seed[, request, journal]) — the CLI's registry, one
#: entry per facade experiment.
COMMANDS: Dict[str, Callable[..., str]] = {
    name: _command(name) for name in EXPERIMENTS
}


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the IPPS 2007 "
        "metacomputing trace-analysis paper on the simulated testbed — "
        "directly, or through the crash-safe analysis service.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # What every analysing command shares; ``_request`` reads it back.
    analysis_opts = argparse.ArgumentParser(add_help=False)
    analysis_opts.add_argument(
        "--seed", type=int, default=None, help="random seed (default: per-artifact)"
    )
    analysis_opts.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="analysis worker processes (1=serial, 0=one per core; "
        "default: serial)",
    )
    analysis_opts.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline for parallel analysis workers (default: 300)",
    )
    analysis_opts.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-dispatches allowed after a worker crash/hang (default: 2)",
    )
    analysis_opts.add_argument(
        "--verify-archive",
        action="store_true",
        help="checksum-verify trace archives before analysis",
    )
    for name in sorted(COMMANDS) + ["all"]:
        help_text = (
            "regenerate every artifact" if name == "all" else f"regenerate {name}"
        )
        run_parser = sub.add_parser(name, parents=[analysis_opts], help=help_text)
        run_parser.add_argument(
            "--resume",
            action="store_true",
            help="record completed experiment cells in a journal and skip them "
            "on rerun",
        )
        run_parser.add_argument(
            "--journal",
            default=DEFAULT_JOURNAL,
            metavar="PATH",
            help=f"checkpoint journal used by --resume (default: {DEFAULT_JOURNAL})",
        )
        run_parser.set_defaults(command="run", what=name)

    analyze_parser = sub.add_parser(
        "analyze",
        parents=[analysis_opts],
        help="analyze one MetaTrace experiment, optionally with a "
        "time-resolved severity timeline",
    )
    analyze_parser.add_argument(
        "experiment",
        choices=("figure6", "figure7"),
        help="MetaTrace experiment to simulate and analyze",
    )
    analyze_parser.add_argument(
        "--timeline",
        action="store_true",
        help="append rolling-window severity series to the report",
    )
    analyze_parser.add_argument(
        "--window", type=float, default=1.0, metavar="SECONDS",
        help="rolling-window width of the severity timeline (default: 1.0)",
    )
    analyze_parser.add_argument(
        "--stride", type=float, default=0.25, metavar="SECONDS",
        help="bin stride of the severity timeline (default: 0.25)",
    )
    analyze_parser.add_argument(
        "--metric",
        default=None,
        help="restrict the timeline rendering to one metric",
    )
    analyze_parser.add_argument(
        "--bounded",
        action="store_true",
        help="bounded-memory streaming replay (identical severity; "
        "drops the per-rank Gantt data)",
    )
    analyze_parser.set_defaults(command="analyze")

    serve_parser = sub.add_parser(
        "serve", help="run the analysis service (HTTP job layer over the API)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8137, help="TCP port (0 = OS-assigned)"
    )
    serve_parser.add_argument(
        "--store",
        default=".repro-jobs.jsonl",
        metavar="PATH",
        help="durable job store journal (default: .repro-jobs.jsonl)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="waiting jobs admitted before submissions get 429 (default: 16)",
    )
    serve_parser.add_argument(
        "--pool-workers", type=int, default=2, metavar="N",
        help="workers in the shared analysis pool (default: 2)",
    )
    serve_parser.add_argument(
        "--default-jobs", type=int, default=2, metavar="N",
        help="analysis shard count for jobs that do not specify one",
    )
    serve_parser.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="graceful-shutdown budget for the in-flight job (default: 30)",
    )
    serve_parser.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="default wall-clock budget per job; jobs over budget are "
        "cancelled with a partial record (default: unbounded)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive worker failures before the circuit breaker "
        "opens and submissions get 503 (default: 3)",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe (default: 30)",
    )
    serve_parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write host:port here once listening (for scripts/tests)",
    )

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a running service"
    )
    submit_parser.add_argument(
        "experiment", help="experiment name (e.g. figure6, table2, imbalance)"
    )
    submit_parser.add_argument(
        "--kind",
        choices=("run_experiment", "analyze", "simulate"),
        default="run_experiment",
        help="job kind (default: run_experiment)",
    )
    submit_parser.add_argument("--url", default=DEFAULT_URL)
    submit_parser.add_argument("--seed", type=int, default=None)
    submit_parser.add_argument("--jobs", type=int, default=None)
    submit_parser.add_argument(
        "--config",
        default=None,
        metavar="JSON",
        help='job config object, e.g. \'{"timeout": 60}\'',
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job is done, failed or cancelled; print its "
        "result (exit 0) or its error (exit 1)",
    )
    submit_parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS"
    )

    jobs_parser = sub.add_parser(
        "jobs", help="list jobs (from a running service, or --store offline)"
    )
    jobs_parser.add_argument("--url", default=DEFAULT_URL)
    jobs_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="read this job store journal directly instead of over HTTP",
    )
    jobs_parser.add_argument(
        "--requeue",
        default=None,
        metavar="KEY",
        help="re-admit a quarantined (failed) or cancelled job by key",
    )
    jobs_parser.add_argument(
        "--cancel",
        default=None,
        metavar="KEY",
        help="cancel a queued or running job by key (DELETE /jobs/<key>)",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="run seeded chaos episodes and check their invariants",
    )
    chaos_parser.add_argument(
        "--seeds",
        default="0..4",
        metavar="SPEC",
        help="seed list/ranges, e.g. '0..4' or '0,2,7' (default: 0..4)",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="analysis worker processes per episode (default: 4)",
    )
    chaos_parser.add_argument(
        "--grace", type=float, default=120.0, metavar="SECONDS",
        help="termination slack added to each episode's deadline "
        "(default: 120)",
    )
    chaos_parser.add_argument(
        "--workdir", default=None, metavar="PATH",
        help="directory for episode markers/journals (default: a temp dir)",
    )

    check_parser = sub.add_parser(
        "check",
        help="run the static invariant checks (determinism, atomicity, "
        "concurrency, API drift) over the repro sources",
    )
    check_parser.add_argument(
        "--root", default=None, metavar="PATH",
        help="source tree to scan (default: the installed repro package)",
    )
    check_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="suppression baseline to apply (default: the shipped "
        "checks_baseline.json)",
    )
    check_parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    check_parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to accept every current finding "
        "(existing reasons are carried forward; new entries still fail "
        "until a reason is written)",
    )
    check_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    return parser


def _parse_seeds(spec: str) -> List[int]:
    """``"0..4"`` → [0,1,2,3,4]; ``"0,2,7"`` → [0,2,7]; mixes allowed."""
    seeds: List[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            low, _, high = chunk.partition("..")
            start, end = int(low), int(high)
            if end < start:
                raise ValueError(f"empty seed range {chunk!r}")
            seeds.extend(range(start, end + 1))
        else:
            seeds.append(int(chunk))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


# -- experiment commands ---------------------------------------------------------


def _request(args: argparse.Namespace, **extra: Any) -> AnalysisRequest:
    """The request the shared analysis flags describe, plus a command's own."""
    return AnalysisRequest(
        jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        verify_archive=args.verify_archive,
        **extra,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    # ``--resume`` owns the journal for the whole sweep, so it takes the
    # writer lock up front and fails fast if another sweep holds it.
    journal = (
        CheckpointJournal(args.journal, exclusive=True) if args.resume else None
    )
    try:
        request = _request(args)
        targets = sorted(COMMANDS) if args.what == "all" else [args.what]
        for name in targets:
            seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
            print(f"==== {name} (seed {seed}) ====")
            print(COMMANDS[name](seed, request, journal=journal))
            print()
    finally:
        if journal is not None:
            journal.close()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.metric and not args.timeline:
        print("error: --metric requires --timeline", file=sys.stderr)
        return 2
    from repro.experiments.figures import (
        METATRACE_FIGURES,
        metatrace_report_text,
        run_metatrace_experiment,
    )
    from repro.report.timeline import render_severity_timeline

    seed = args.seed if args.seed is not None else DEFAULT_SEEDS[args.experiment]
    request = _request(
        args,
        timeline=args.timeline,
        window_s=args.window,
        stride_s=args.stride,
        bounded=args.bounded,
    )
    outcome = run_metatrace_experiment(
        figure=METATRACE_FIGURES[args.experiment], seed=seed, request=request
    )
    print(f"==== {args.experiment} (seed {seed}) ====")
    print(metatrace_report_text(outcome))
    if args.timeline:
        print()
        print(
            render_severity_timeline(
                outcome.result.severity_timeline, metric=args.metric
            )
        )
    return 0


# -- service commands ------------------------------------------------------------


def _http_json(
    method: str, url: str, body: Optional[Dict[str, Any]] = None, timeout: float = 60.0
) -> Tuple[int, Dict[str, Any]]:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            payload = {"error": str(exc)}
        return exc.code, payload


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        store_path=args.store,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        pool_workers=args.pool_workers,
        default_jobs=args.default_jobs,
        drain_grace_s=args.drain_grace,
        job_deadline_s=args.job_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    )
    return serve(config, ready_file=args.ready_file)


def _cmd_submit(args: argparse.Namespace) -> int:
    spec: Dict[str, Any] = {"kind": args.kind, "experiment": args.experiment}
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.jobs is not None:
        spec["jobs"] = args.jobs
    if args.config:
        try:
            spec["config"] = json.loads(args.config)
        except ValueError as exc:
            print(f"error: --config is not valid JSON: {exc}", file=sys.stderr)
            return 2
    try:
        status, body = _http_json("POST", f"{args.url}/jobs", spec)
    except OSError as exc:
        print(f"error: cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 1
    if status not in (200, 202):
        print(f"error: submission rejected ({status}): {body.get('error')}",
              file=sys.stderr)
        return 1
    key = body["job"]["key"]
    print(f"{body['disposition']}: job {key} ({body['job']['status']})")
    if not args.wait:
        return 0
    while True:
        status, body = _http_json("GET", f"{args.url}/jobs/{key}")
        if status != 200:
            print(f"error: poll failed ({status}): {body.get('error')}",
                  file=sys.stderr)
            return 1
        job = body["job"]
        if job["status"] in TERMINAL:
            break
        time.sleep(args.poll_interval)
    if job["status"] != DONE:  # failed, or cancelled by a client or its deadline
        print(f"job {job['status']}: {job.get('error')}", file=sys.stderr)
        return 1
    result = job.get("result") or {}
    print(result.get("text") or json.dumps(result, sort_keys=True, indent=2))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import render_report, run_chaos

    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: --seeds: {exc}", file=sys.stderr)
        return 2
    report = run_chaos(
        seeds, jobs=args.jobs, grace_s=args.grace, workdir=args.workdir
    )
    print(render_report(report))
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import DEFAULT_BASELINE_PATH, BaselineError, run_checks

    if args.no_baseline and (args.baseline or args.update_baseline):
        print(
            "error: --no-baseline conflicts with --baseline/--update-baseline",
            file=sys.stderr,
        )
        return 2
    if args.root is not None and not os.path.isdir(args.root):
        print(f"error: --root {args.root!r} is not a directory",
              file=sys.stderr)
        return 2
    baseline_path: Optional[str]
    if args.no_baseline:
        baseline_path = None
    else:
        baseline_path = args.baseline or DEFAULT_BASELINE_PATH
    try:
        report = run_checks(
            root=args.root,
            baseline_path=baseline_path,
            update_baseline=args.update_baseline,
        )
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    if args.requeue and args.cancel:
        print("error: --requeue and --cancel are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.requeue or args.cancel:
        if args.store:
            print("error: --requeue/--cancel need a running service (--url), "
                  "not --store", file=sys.stderr)
            return 2
        key = args.requeue or args.cancel
        method, url = (
            ("POST", f"{args.url}/jobs/{key}/requeue")
            if args.requeue
            else ("DELETE", f"{args.url}/jobs/{key}")
        )
        try:
            status, body = _http_json(method, url)
        except OSError as exc:
            print(f"error: cannot reach service at {args.url}: {exc}",
                  file=sys.stderr)
            return 1
        if status not in (200, 202):
            detail = body.get("error")
            if detail is None and "job" in body:
                detail = f"job is already {body['job'].get('status')}"
            print(f"error: request failed ({status}): {detail}", file=sys.stderr)
            return 1
        job = body["job"]
        verb = body.get("disposition", "requeued")
        print(f"{verb}: job {job['key']} ({job['status']})")
        return 0
    if args.store:
        # Offline listing reads the journal directly; a plain (lazy-lock)
        # journal never takes the writer lock for reads, so this works
        # while a service owns the store.
        from repro.service.store import JobRecord

        journal = CheckpointJournal(args.store)
        summaries = []
        for canon, payload in journal.cells().items():
            cell = json.loads(canon)
            if not (isinstance(cell, dict) and "job" in cell):
                continue
            try:
                summaries.append(JobRecord.from_payload(payload).summary())
            except (KeyError, TypeError, ValueError):
                continue
        summaries.sort(key=lambda s: s["seq"])
    else:
        try:
            status, body = _http_json("GET", f"{args.url}/jobs")
        except OSError as exc:
            print(f"error: cannot reach service at {args.url}: {exc}",
                  file=sys.stderr)
            return 1
        if status != 200:
            print(f"error: listing failed ({status}): {body.get('error')}",
                  file=sys.stderr)
            return 1
        summaries = body["jobs"]
    if not summaries:
        print("no jobs")
        return 0
    for job in summaries:
        line = (
            f"{job['key'][:12]}  {job['status']:8s} "
            f"{job['kind']}/{job['experiment']} seed={job['seed']} "
            f"attempts={job['attempts']}"
        )
        if job.get("phase"):
            line += f"  [{job['phase']}]"
        if job.get("error"):
            line += f"  error: {job['error']}"
        print(line)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "check":
            return _cmd_check(args)
    except BrokenPipeError:
        # The reader closed stdout early (`repro ... | head`).  Point the
        # fd at devnull so the interpreter's exit-time flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional shell encoding
    except CheckpointLockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PoolShutdown as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
