"""The HTTP front end and the CLI client commands, in process."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.service import ServiceConfig, create_app
from repro.service.http import ServiceHTTPServer

from tests.gates import Flag


def _request(base, method, path, body=None, timeout=30.0):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        store_path=str(tmp_path / "jobs.jsonl"),
        port=0,
        queue_limit=2,
        pool_workers=1,
        default_jobs=1,
    )
    app = create_app(config)
    httpd = ServiceHTTPServer((config.host, config.port), app)
    host, port = httpd.server_address[:2]
    app.startup()
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://{host}:{port}", app
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()
        app.shutdown()


def _poll_done(base, key, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = _request(base, "GET", f"/jobs/{key}")
        assert status == 200
        if body["job"]["status"] in ("done", "failed"):
            return body["job"]
        time.sleep(0.05)
    raise AssertionError(f"job {key} never settled")


SIM = {"kind": "simulate", "experiment": "imbalance", "seed": 1}


class TestEndpoints:
    def test_health_and_readiness(self, server):
        base, app = server
        assert _request(base, "GET", "/healthz")[0] == 200
        status, _, body = _request(base, "GET", "/readyz")
        assert status == 200 and body["status"] == "ready"
        assert body["queued"] == 0

    def test_submission_lifecycle(self, server):
        base, _ = server
        status, _, body = _request(base, "POST", "/jobs", SIM)
        assert status == 202 and body["disposition"] == "created"
        key = body["job"]["key"]
        assert body["url"] == f"/jobs/{key}"

        # Result is 409 until done, 200 after.
        status, _, early = _request(base, "GET", f"/jobs/{key}/result")
        if early.get("status") != "done":
            assert status == 409
        job = _poll_done(base, key)
        assert job["status"] == "done"
        status, _, body = _request(base, "GET", f"/jobs/{key}/result")
        assert status == 200
        assert body["result"]["integrity_ok"] is True

        # Idempotent resubmission: 200 + cached, byte-identical result.
        status, _, again = _request(base, "POST", "/jobs", SIM)
        assert status == 200 and again["disposition"] == "cached"
        assert again["job"]["result"] == body["result"]

        status, _, listing = _request(base, "GET", "/jobs")
        assert status == 200 and len(listing["jobs"]) == 1

    def test_validation_and_routing_errors(self, server):
        base, _ = server
        assert _request(base, "POST", "/jobs", {"kind": "nope", "experiment": "x"})[0] == 400
        assert _request(base, "POST", "/nope", {})[0] == 404
        assert _request(base, "GET", "/jobs/feedbead")[0] == 404
        assert _request(base, "GET", "/jobs/feedbead/result")[0] == 404
        assert _request(base, "GET", "/nope")[0] == 404
        # Malformed JSON body → 400, not a connection reset.
        request = urllib.request.Request(
            base + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_queue_full_gets_429_with_retry_after(self, server, monkeypatch):
        base, app = server
        import repro.service.app as app_module

        gate = Flag()  # shared with the job's worker process

        def gated(spec, *, pool=None, progress=None, deadline=None):
            gate.wait(timeout=60)
            return {"kind": spec["kind"]}, None

        monkeypatch.setattr(app_module, "execute_job", gated)
        try:
            codes = []
            for seed in (10, 11, 12, 13):
                status, headers, body = _request(
                    base, "POST", "/jobs", {**SIM, "seed": seed}
                )
                codes.append(status)
                if status == 429:
                    assert "Retry-After" in headers
                    assert body["retry_after_s"] > 0
            assert codes.count(429) >= 1
            assert codes[:2] == [202, 202]
        finally:
            gate.set()

    def test_delete_kills_a_job_that_never_checks_its_deadline(self, server, monkeypatch):
        """Cancellation is not cooperative: the job's worker is killed, so
        a stand-in that never polls a deadline still lands ``cancelled``."""
        base, _ = server
        import repro.service.app as app_module

        worker = multiprocessing.RawValue("i", 0)

        def wedged(spec, *, pool=None, progress=None, deadline=None):
            worker.value = os.getpid()
            time.sleep(60)

        monkeypatch.setattr(app_module, "execute_job", wedged)
        _, _, body = _request(base, "POST", "/jobs", SIM)
        key = body["job"]["key"]
        give_up = time.monotonic() + 30
        while not worker.value and time.monotonic() < give_up:
            time.sleep(0.01)
        assert worker.value, "the job never reached its worker"
        began = time.monotonic()
        status, _, body = _request(base, "DELETE", f"/jobs/{key}")
        assert status == 202 and body["disposition"] == "cancelling"
        while _request(base, "GET", f"/jobs/{key}")[2]["job"]["status"] != "cancelled":
            assert time.monotonic() - began < 1.0, "cancel did not land within 1 s"
            time.sleep(0.01)
        assert worker.value not in {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(ProcessLookupError):
            os.kill(worker.value, 0)

    def test_jobs_2_analyze_shards_in_its_worker(self, server):
        """A ``jobs=2`` job forks its shard worker from its job worker: a
        two-shard execution, and the ``jobs=1`` job's result."""
        base, _ = server
        spec = {"kind": "analyze", "experiment": "figure6", "seed": 4,
                "config": {"coupling_intervals": 1}}
        jobs = {}
        for n in (1, 2):
            _, _, body = _request(base, "POST", "/jobs", {**spec, "jobs": n})
            jobs[n] = _poll_done(base, body["job"]["key"], timeout=120)
            assert jobs[n]["status"] == "done", jobs[n]["error"]
        results = {
            n: _request(base, "GET", f"/jobs/{job['key']}/result")[2] for n, job in jobs.items()
        }
        assert len(results[2]["execution"]["tasks"]) == 2
        assert results[2]["result"] == results[1]["result"]

    def test_severity_endpoint(self, server):
        base, _ = server
        spec = {
            "kind": "analyze",
            "experiment": "figure7",
            "seed": 3,
            "jobs": 1,
            "config": {"coupling_intervals": 2},
        }
        _, _, body = _request(base, "POST", "/jobs", spec)
        key = body["job"]["key"]
        job = _poll_done(base, key, timeout=120)
        assert job["status"] == "done", job["error"]
        status, _, overview = _request(base, "GET", f"/jobs/{key}/severity")
        assert status == 200 and "late-sender" in overview["metrics"]
        status, _, detail = _request(
            base, "GET", f"/jobs/{key}/severity?metric=late-sender"
        )
        assert status == 200 and detail["by_rank"]
        status, _, _ = _request(base, "GET", f"/jobs/{key}/severity?metric=bogus")
        assert status == 409
        # The analyze result carries the report text and the execution story.
        _, _, result = _request(base, "GET", f"/jobs/{key}/result")
        assert result["result"]["text"].startswith("Experiment 2")


    def test_severity_timeline_endpoint(self, server):
        base, _ = server
        spec = {
            "kind": "analyze",
            "experiment": "figure6",
            "seed": 2,
            "jobs": 1,
            "config": {
                "timeline": True,
                "coupling_intervals": 1,
                "window_s": 0.5,
                "stride_s": 0.25,
            },
        }
        status, _, body = _request(base, "POST", "/jobs", spec)
        assert status in (200, 202), body
        key = body["job"]["key"]
        job = _poll_done(base, key, timeout=120)
        assert job["status"] == "done", job["error"]

        status, _, overview = _request(base, "GET", f"/jobs/{key}/severity/timeline")
        assert status == 200
        assert overview["window_s"] == 0.5 and overview["stride_s"] == 0.25
        assert overview["metrics"], "timeline came back empty"
        series = overview["metrics"]["mpi"]["series"]
        assert series and all(len(point) == 2 for point in series)
        assert overview["metrics"]["mpi"]["by_rank"]

        status, _, detail = _request(
            base, "GET", f"/jobs/{key}/severity/timeline?metric=mpi"
        )
        assert status == 200 and list(detail["metrics"]) == ["mpi"]

        status, _, body = _request(
            base, "GET", f"/jobs/{key}/severity/timeline?metric=bogus"
        )
        assert status == 409 and "bogus" in body["error"]

        # An analyze job submitted without timeline config has none to serve.
        plain = {"kind": "analyze", "experiment": "figure6", "seed": 2, "jobs": 1,
                 "config": {"coupling_intervals": 1}}
        _, _, body = _request(base, "POST", "/jobs", plain)
        plain_key = body["job"]["key"]
        assert plain_key != key
        assert _poll_done(base, plain_key, timeout=120)["status"] == "done"
        status, _, body = _request(base, "GET", f"/jobs/{plain_key}/severity/timeline")
        assert status == 409 and "timeline" in body["error"]

        # Non-analyze jobs never carry one.
        _, _, body = _request(base, "POST", "/jobs", SIM)
        sim_key = body["job"]["key"]
        _poll_done(base, sim_key)
        status, _, body = _request(base, "GET", f"/jobs/{sim_key}/severity/timeline")
        assert status == 409 and "only analyze jobs" in body["error"]


    def test_tiny_timeline_stride_fails_the_job_not_the_server(self, server):
        """``stride_s=1e-7`` passes validation (positive, finite) but would
        need more bins than a timeline may hold: the job fails at its first
        charge, and the service goes on serving."""
        base, _ = server
        spec = {
            "kind": "analyze",
            "experiment": "figure6",
            "seed": 2,
            "jobs": 1,
            "config": {"timeline": True, "coupling_intervals": 1, "stride_s": 1e-7},
        }
        status, _, body = _request(base, "POST", "/jobs", spec)
        assert status == 202, body
        job = _poll_done(base, body["job"]["key"], timeout=120)
        assert job["status"] == "failed"
        assert "raise stride_s" in job["error"], job["error"]
        assert _request(base, "GET", "/healthz")[0] == 200
        _, _, body = _request(base, "POST", "/jobs", SIM)
        assert _poll_done(base, body["job"]["key"])["status"] == "done"


class TestCliClient:
    def test_submit_wait_prints_result(self, server, capsys):
        base, _ = server
        code = cli_main(
            [
                "submit", "imbalance", "--kind", "simulate", "--seed", "5",
                "--url", base, "--wait", "--poll-interval", "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "created: job " in out
        assert '"integrity_ok": true' in out

    def test_submit_wait_returns_for_a_cancelled_job(self, server, capsys):
        """A job its deadline cancels is terminal: ``--wait`` stops polling,
        prints the job's error and exits 1.  The client runs in a thread so
        a poll loop that never ends fails this test instead of the suite."""
        base, _ = server
        outcome = {}

        def submit():
            outcome["code"] = cli_main(
                [
                    "submit", "imbalance", "--kind", "simulate", "--seed", "7",
                    "--config", '{"deadline_s": 1e-06}',
                    "--url", base, "--wait", "--poll-interval", "0.05",
                ]
            )

        client = threading.Thread(target=submit, daemon=True)
        client.start()
        client.join(timeout=60)
        assert not client.is_alive(), "submit --wait kept polling a cancelled job"
        captured = capsys.readouterr()
        assert outcome["code"] == 1
        assert "created: job " in captured.out
        assert "job cancelled: TimeBudgetExceeded" in captured.err
        assert "deadline of 1e-06s exceeded" in captured.err

    def test_submit_invalid_is_an_error_exit(self, server, capsys):
        base, _ = server
        code = cli_main(["submit", "figure99", "--url", base])
        assert code == 1
        assert "rejected" in capsys.readouterr().err

    def test_submit_unreachable_service(self, capsys):
        code = cli_main(
            ["submit", "figure6", "--url", "http://127.0.0.1:9", "--seed", "1"]
        )
        assert code == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_jobs_listing_over_http_and_offline(self, server, capsys, tmp_path):
        base, app = server
        cli_main(
            [
                "submit", "imbalance", "--kind", "simulate", "--seed", "6",
                "--url", base, "--wait", "--poll-interval", "0.05",
            ]
        )
        capsys.readouterr()
        assert cli_main(["jobs", "--url", base]) == 0
        http_listing = capsys.readouterr().out
        assert "done" in http_listing and "simulate/imbalance" in http_listing
        # Offline listing reads the journal the service is holding open.
        assert cli_main(["jobs", "--store", app.config.store_path]) == 0
        offline_listing = capsys.readouterr().out
        assert offline_listing == http_listing

    def test_jobs_empty_store(self, tmp_path, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert cli_main(["jobs", "--store", str(empty)]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_closed_stdout_is_not_a_traceback(self, tmp_path):
        """`repro jobs | head`-style early reader exit must stay quiet.

        The read end of the pipe is closed before the CLI (slowed by
        interpreter startup) writes, so the write hits EPIPE.  A clean
        CLI exits 141 (128+SIGPIPE) with empty stderr; losing the race
        and finishing the write is a plain 0.
        """
        import os
        import subprocess
        import sys

        from repro.service import JobStore, JobRecord, canonical_spec, job_key

        store = tmp_path / "jobs.jsonl"
        spec = canonical_spec({"kind": "simulate", "experiment": "imbalance"})
        with JobStore(str(store)) as jobs:
            jobs.save(JobRecord(key=job_key(spec), seq=0, spec=spec))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "jobs", "--store", str(store)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 141)
        assert b"Traceback" not in stderr, stderr.decode()
