"""One field table, three edges.

Every request, ``simulate`` and ``coupling_intervals`` field is declared once
(``repro.analysis.request.declare``).  The library (``AnalysisRequest``), the
job store (``canonical_spec``) and the command line (``repro analyze`` argv)
all check a value by that declaration, so they must agree on every spec:

* each accepts it or each refuses it;
* an accepted spec has one job key — from a dict config or an
  ``AnalysisRequest``, with defaults spelled out or left out, with
  durations given as ``1`` or ``1.0``;
* every refusal names the field.

A random seed is one more declared rule (``repro.analysis.request.SEED``),
held to the same agreement by the library, the store and argv.

The strategy draws specs from the table plus hostile values.  The service's
own table (``ServiceConfig``) has two edges, the library and ``repro serve``
argv, held to the same agreement; a value either refuses stops the command
before any socket, pool or executor thread starts.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import asdict

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.api as api
import repro.cli as cli
from repro.analysis.request import SEED, AnalysisRequest, declared
from repro.chaos import harness
from repro.cli import _build_parser, _request
from repro.errors import AnalysisError, JobValidationError, ReproError
from repro.experiments import figures
from repro.service import ServiceConfig, app, http
from repro.service.store import _CONFIG, canonical_spec, job_key
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import uniform_metacomputer

REQUEST = declared(AnalysisRequest)
SERVICE = declared(ServiceConfig)
PARSER = _build_parser()
#: Request fields an ``analyze`` job carries: its config keys and ``jobs``.
STORE_FIELDS = sorted((_CONFIG["analyze"][1] - {"coupling_intervals"}) | {"jobs"})

HOSTILE = [
    math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None,
    "false", "true", "1s", "", 0, -1, 0.0, -0.5, 2**63,
]


def _valid(f):
    rule = f.metadata["rule"]
    if rule.kind == "flag":
        return st.booleans()
    if rule.kind == "count":
        return st.integers(rule.low, rule.high if rule.high is not None else rule.low + 64)
    if rule.kind == "text":
        return st.text(min_size=1, max_size=12)
    seconds = st.one_of(
        st.integers(1, 10**6),
        st.floats(min_value=1e-3, max_value=1e6),
        st.integers(1, 100).map(float),
    )
    return seconds if rule.finite else st.one_of(seconds, st.just(math.inf))


def _value(f):
    bounds = []
    rule = f.metadata["rule"]
    if rule.kind == "count":  # either side of each bound
        bounds = [rule.low - 1, rule.low] + ([rule.high, rule.high + 1] if rule.high else [])
    return st.one_of(_valid(f), st.just(f.default), st.sampled_from(HOSTILE + bounds))


def _specs(table, names):
    chosen = st.lists(st.sampled_from(names), unique=True, max_size=len(names))
    return chosen.flatmap(
        lambda keys: st.fixed_dictionaries({k: _value(table[k]) for k in keys})
    )


def _refusal(call):
    """``(result, None)`` if *call* succeeds, ``(None, message)`` if it refuses."""
    try:
        return call(), None
    except (AnalysisError, JobValidationError) as exc:
        return None, str(exc)


def _named(message, spec):
    """The spec field a refusal names; it must be refused on its own."""
    name = message.split(" must be ")[0]
    assert name in spec, f"{message!r} names no field of {spec!r}"
    return name


def _twin(table, spec):
    """*spec* as another caller would spell it: defaults left out,
    integral durations as ``int`` where given as ``float`` and back."""
    out = {}
    for name, value in spec.items():
        if _refusal(lambda: table(**{name: value}))[0] == table():
            continue  # an admitted default: leaving it out means the same
        if declared(table)[name].metadata["rule"].kind == "seconds":
            if type(value) is float and value.is_integer() and abs(value) < 2**53:
                value = int(value)
            elif type(value) is int and abs(value) < 2**53:
                value = float(value)
        out[name] = value
    return out


def _store(kind, config):
    """The job key of a *kind* job with *config*; a dict config's ``jobs``
    is the spec's top-level field (an ``AnalysisRequest`` lifts its own)."""
    raw = {"kind": kind, "experiment": "imbalance" if kind == "simulate" else "figure6"}
    if isinstance(config, dict):
        config = dict(config)
        if config.get("jobs") is not None:
            raw["jobs"] = config["jobs"]
        config.pop("jobs", None)
    return _refusal(lambda: job_key(canonical_spec({**raw, "seed": 1, "config": config})))


def _argv(spec, table=REQUEST, command=("analyze", "figure6")):
    """The *command* flags that spell *spec*, or ``None``."""
    argv = list(command)
    for name, value in spec.items():
        rule = table[name].metadata["rule"]
        if rule.flag is None:
            return None  # no flag: the command line cannot say it
        if rule.kind == "flag":
            if value is True:
                argv.append(rule.flag)
            elif value is not False:
                argv.append(f"{rule.flag}={value}")
        elif rule.kind == "text":
            if type(value) is not str:
                return None  # the command line says only strings
            argv.append(f"{rule.flag}={value}")
        elif value is not None or table[name].default is not None:
            argv += [rule.flag, str(value)]
    return argv


def _parse(argv, table=AnalysisRequest):
    """``(table instance, None)`` or ``(None, what the command line said)``."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            args = PARSER.parse_args(argv)
    except SystemExit:
        return None, stderr.getvalue()
    return _refusal(lambda: _request(args, table))


@seed(20260531)
@settings(max_examples=400, deadline=None)
@given(spec=_specs(REQUEST, STORE_FIELDS))
def test_request_edges_agree(spec):
    request, refused = _refusal(lambda: AnalysisRequest(**spec))
    key, store_refused = _store("analyze", spec)
    assert (key is None) == (request is None), (spec, refused, store_refused)

    argv = _argv(spec)
    if argv is not None:
        parsed, cli_refused = _parse(argv)
        assert (parsed is None) == (request is None), (argv, refused, cli_refused)
        if parsed is not None:
            assert parsed == request
        else:  # argparse names the flag, the table the field
            assert any(
                name in cli_refused or REQUEST[name].metadata["rule"].flag in cli_refused
                for name in spec
            ), cli_refused

    if request is None:
        for message in (refused, store_refused):
            name = _named(message, spec)
            assert _refusal(lambda: AnalysisRequest(**{name: spec[name]}))[1] is not None
        return
    assert _store("analyze", request)[0] == key
    assert _store("analyze", _twin(AnalysisRequest, spec))[0] == key


@pytest.mark.parametrize("kind", ["simulate", "analyze"])
@seed(20260531)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_job_config_edges_agree(kind, data):
    """Each kind's config table (``SimulateConfig``; ``AnalyzeConfig``, which
    adds ``coupling_intervals`` to the request) against the store."""
    table, allowed = _CONFIG[kind]
    spec = data.draw(_specs(declared(table), sorted(allowed)))
    built, refused = _refusal(lambda: table(**spec))
    key, store_refused = _store(kind, spec)
    assert (key is None) == (built is None), (spec, refused, store_refused)
    if built is None:
        for message in (refused, store_refused):
            name = _named(message, spec)
            assert _refusal(lambda: table(**{name: spec[name]}))[1] is not None
        return
    assert _store(kind, _twin(table, spec))[0] == key



@pytest.mark.parametrize(
    "name", [n for n in STORE_FIELDS if REQUEST[n].metadata["rule"].high is not None]
)
def test_count_bound_at_every_edge(name):
    """A count's declared bound is admitted and bound+1 refused, naming the
    field, by the library, the store and ``repro analyze`` argv alike."""
    high = REQUEST[name].metadata["rule"].high
    for value, admitted in ((high, True), (high + 1, False)):
        spec = {name: value}
        request, refused = _refusal(lambda: AnalysisRequest(**spec))
        key, store_refused = _store("analyze", spec)
        parsed, cli_refused = _parse(_argv(spec))
        assert [request is not None, key is not None, parsed is not None] == [admitted] * 3
        if not admitted:
            assert _named(refused, spec) == _named(store_refused, spec) == name
            assert f"<= {high}" in cli_refused and str(value) in cli_refused


@pytest.mark.parametrize(
    "name", [n for n in sorted(SERVICE) if SERVICE[n].metadata["rule"].high is not None]
)
def test_service_count_bound_at_every_edge(name):
    """A service count's declared bound is admitted and bound+1 refused,
    naming the field, by the library and ``repro serve`` argv alike."""
    high = SERVICE[name].metadata["rule"].high
    for value, admitted in ((high, True), (high + 1, False)):
        spec = {name: value}
        config, refused = _refusal(lambda: ServiceConfig(**spec))
        parsed, cli_refused = _parse(_argv(spec, SERVICE, ["serve"]), ServiceConfig)
        assert [config is not None, parsed is not None] == [admitted] * 2
        if not admitted:
            assert _named(refused, spec) == name
            assert f"<= {high}" in cli_refused and str(value) in cli_refused


@seed(20260531)
@settings(max_examples=300, deadline=None)
@given(spec=_specs(SERVICE, sorted(SERVICE)))
def test_service_edges_agree(spec):
    """``ServiceConfig(**spec)`` and ``repro serve`` argv accept or refuse
    alike, and build one config."""
    config, refused = _refusal(lambda: ServiceConfig(**spec))
    if config is None:
        name = _named(refused, spec)
        assert _refusal(lambda: ServiceConfig(**{name: spec[name]}))[1] is not None
    argv = _argv(spec, SERVICE, ["serve"])
    if argv is None:
        return
    parsed, cli_refused = _parse(argv, ServiceConfig)
    assert (parsed is None) == (config is None), (argv, refused, cli_refused)
    if parsed is not None:
        assert parsed == config
    else:
        assert any(
            name in cli_refused or SERVICE[name].metadata["rule"].flag in cli_refused
            for name in spec
        ), cli_refused


def test_service_defaults_are_unchanged():
    assert asdict(ServiceConfig()) == {
        "store_path": ".repro-jobs.jsonl",
        "host": "127.0.0.1",
        "port": 8137,
        "queue_limit": 16,
        "pool_workers": 2,
        "default_jobs": 2,
        "drain_grace_s": 30.0,
        "max_job_attempts": 3,
        "job_deadline_s": None,
        "breaker_threshold": 3,
        "breaker_cooldown_s": 30.0,
    }


def test_serve_flags_are_the_table_and_ready_file():
    serve = PARSER._subparsers._group_actions[0].choices["serve"]
    assert {s for action in serve._actions for s in action.option_strings} == {
        "-h", "--help", "--store", "--host", "--port", "--queue-limit", "--pool-workers",
        "--default-jobs", "--drain-grace", "--job-deadline", "--breaker-threshold",
        "--breaker-cooldown", "--ready-file",
    }


def _never(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran for a refused value")

    return fail


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--job-deadline", "-1", "job_deadline_s"),
        ("--job-deadline", "0", "job_deadline_s"),
        ("--job-deadline", "nan", "job_deadline_s"),
        ("--drain-grace", "nan", "drain_grace_s"),
        ("--default-jobs", "1025", "default_jobs"),
        ("--queue-limit", "0", "queue_limit"),
        ("--port", "65536", "port"),
        ("--breaker-threshold", "0", "breaker_threshold"),
        ("--pool-workers", "0", "pool_workers"),
        ("--pool-workers", str(SERVICE["pool_workers"].metadata["rule"].high + 1),
         "pool_workers"),
        ("--queue-limit", "4097", "queue_limit"),
    ],
)
def test_serve_refuses_before_starting(flag, value, field, monkeypatch, capsys):
    """Each value once started a service that then failed (a dead executor,
    a 429 for every submission, a traceback, a silent clamp)."""
    monkeypatch.setattr(http, "ServiceHTTPServer", _never("the HTTP server"))
    monkeypatch.setattr(app.AnalysisService, "startup", _never("service startup"))
    assert cli.main(["serve", flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    with pytest.raises(ReproError, match=f"^{field} must be "):
        ServiceConfig(**{field: cli.seconds(value)})


@pytest.mark.parametrize(
    "argv, field",
    [(["--grace", "nan"], "grace_s"), (["--grace", "-1"], "grace_s"),
     (["--grace", "inf"], "grace_s"), (["--jobs", "0"], "jobs"),
     (["--grace", "0"], "grace_s"), (["--jobs", "1025"], "jobs")],
)
def test_chaos_refuses_before_simulating(argv, field, monkeypatch, capsys):
    """``--grace nan`` turned the termination invariant off (``wall > bound +
    nan`` is never true); ``--grace -1`` failed every episode."""
    monkeypatch.setattr(harness, "_simulate", _never("the simulator"))
    monkeypatch.setattr(harness, "run_episode", _never("an episode"))
    assert cli.main(["chaos", "--seeds", "0", *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    with pytest.raises(ReproError, match=f"^{field} must be "):
        harness.run_chaos([0], **{field: cli.seconds(argv[1])})


@pytest.mark.parametrize("value", ["-1", "nan", "0", "inf"])
def test_submit_refuses_poll_interval_before_posting(value, monkeypatch, capsys):
    """``--poll-interval -1`` died in ``time.sleep`` after the job was accepted."""
    monkeypatch.setattr(cli, "_http_json", _never("an HTTP request"))
    argv = ["submit", "figure6", "--wait", "--poll-interval", value]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: poll_interval must be ")


def _options(command):
    parser = PARSER._subparsers._group_actions[0].choices[command]
    return {s for action in parser._actions for s in action.option_strings}


def test_client_flags_are_built_from_their_rules():
    """``submit --seed/--jobs/--poll-interval``, ``chaos --jobs/--grace`` and
    ``jobs --store`` are each generated from the ``Rule`` that admits them."""
    jobs = declared(AnalysisRequest)["jobs"].metadata["rule"]
    store = SERVICE["store_path"].metadata["rule"]
    assert {SEED.flag, jobs.flag, cli._POLL_INTERVAL.flag} <= _options("submit")
    assert {harness._JOBS.flag, harness._GRACE.flag} <= _options("chaos")
    assert store.flag in _options("jobs")
    args = PARSER.parse_args(["chaos", "--jobs", "3", "--grace", "5"])
    assert (args.jobs, args.grace_s) == (3, 5)


def test_left_out_client_flags_keep_the_callees_defaults(monkeypatch):
    """A flag left out passes nothing, so ``run_chaos`` keeps its own
    ``jobs``/``grace_s`` and ``submit --wait`` polls every 0.5 s."""
    import repro.chaos

    calls = []
    monkeypatch.setattr(
        repro.chaos, "run_chaos", lambda seeds, **kw: calls.append(kw) or _start()
    )
    with pytest.raises(_Started):
        cli.main(["chaos", "--seeds", "0"])
    with pytest.raises(_Started):
        cli.main(["chaos", "--seeds", "0", "--grace", "7"])
    assert calls == [{"workdir": None}, {"workdir": None, "grace_s": 7}]

    replies = iter([(202, {"disposition": "created", "job": {"key": "k", "status": "queued"}}),
                    (200, {"job": {"status": "queued"}})])
    monkeypatch.setattr(cli, "_http_json", lambda *a, **kw: next(replies))
    monkeypatch.setattr(cli.time, "sleep", lambda s: calls.append(s) or _start())
    with pytest.raises(_Started):
        cli.main(["submit", "figure6", "--wait"])
    assert calls[-1] == 0.5


class _Started(Exception):
    """Raised where an edge would begin its work: the value was admitted."""


def _start(*args, **kwargs):
    raise _Started


def _outcome(call):
    """``"admitted"`` if *call* reached its work, else what refused it."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = call()
    except _Started:
        return "admitted"
    except SystemExit:  # argparse refused the flag's text
        return stderr.getvalue()
    except ReproError as exc:
        return str(exc)
    assert code, "the command neither refused nor started"
    return stderr.getvalue()


@pytest.mark.parametrize("value, admitted", [(-1, False), (True, False), (1.0, False),
                                             (2**64, True), (0, True)])
def test_seed_at_every_edge(value, admitted, monkeypatch):
    """``-1`` once ended in a numpy traceback (``table1``, ``figure4``), in
    ``schedule_for_seed`` (``chaos``) or in a journalled job that always
    failed.  Now the library, the store and argv admit or refuse a seed
    alike, naming it, before any work."""
    monkeypatch.setitem(api.EXPERIMENTS, "table1", _start)
    monkeypatch.setattr(cli, "run_experiment", _start)
    monkeypatch.setattr(figures, "run_metatrace_experiment", _start)
    monkeypatch.setattr(harness, "_simulate", _start)
    mc = uniform_metacomputer(metahost_count=1, node_count=1, cpus_per_node=2)
    library = [
        _outcome(lambda: api.run_experiment("table1", seed=value)),
        _outcome(lambda: _start(MetaMPIRuntime(mc, Placement.block(mc, 2), seed=value))),
        _outcome(lambda: harness.run_chaos([value])),
        _outcome(lambda: _start(canonical_spec({"experiment": "table1", "seed": value}))),
    ]
    argv = [
        _outcome(lambda: cli.main(["table1", "--seed", str(value)])),
        _outcome(lambda: cli.main(["analyze", "figure6", "--seed", str(value)])),
        _outcome(lambda: cli.main(["chaos", f"--seeds={value}"])),
    ]
    if admitted:
        assert library + argv == ["admitted"] * 7
        return
    for message in library:
        assert message == f"seed must be an integer >= 0, got {value!r}"
    for message in argv:
        assert "error: seed must be " in message or "--seed" in message, message
