"""``service_closed_loop``: submit→result latency through the real server.

The program under test is ``python -m repro serve`` in its own process on
a fresh store.  Load is a **closed loop with two clients**, each on one
keep-alive ``http.client.HTTPConnection``: a client sends its next
request only after the previous one completed, so a slower server
receives less load.  Phase A submits distinct jobs and follows each to its
result; phase B resubmits phase-A specifications, which the
content-addressed cache must answer.  Then SIGTERM, and exit code 0.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.resilience.checkpoint import CheckpointJournal
from repro.service.runners import execute_job
from repro.service.store import JobRecord, JobStore, canonical_spec, job_key

from benchmarks.e2e.measure import Run, percentile
from benchmarks.e2e.spans import NoSpans, Spans
from benchmarks.e2e.workloads import (
    SERVICE_CLIENTS,
    service_jobs,
    service_resubmissions,
)

#: Pause between two polls of a job's record.
POLL_INTERVAL_S = 0.010
#: A job still not terminal after this long is a failed operation.
JOB_TIMEOUT_S = 60.0
STARTUP_TIMEOUT_S = 60.0


class Refused(RuntimeError):
    """The server refused a request with 429 or 503."""


class Server:
    """The service as a subprocess; always stopped, killed if it must be."""

    def __init__(self, tmpdir: str) -> None:
        self.store_path = os.path.join(tmpdir, "jobs.jsonl")
        self.ready_path = os.path.join(tmpdir, "ready")
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self, spans: Spans) -> None:
        """Spawn → ready-file (the ``service.startup`` span) → first 200 from ``/readyz``."""
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--store", self.store_path,
            "--ready-file", self.ready_path,
            "--queue-limit", "64",
        ]  # fmt: skip
        with spans.span("service.startup"):
            self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL)
            self.address = self._await_ready_file(self.ready_path)
        client = Client(self.address, NoSpans())
        try:
            status, _ = client.request("service.readyz", "GET", "/readyz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}")

    def _await_ready_file(self, path: str) -> Tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not os.path.exists(path):
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} at start")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not write its ready-file")
            time.sleep(0.002)
        with open(path, encoding="utf-8") as handle:
            host, port = handle.read().strip().rsplit(":", 1)
        return host, int(port)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM, wait for the graceful drain, return the exit code."""
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
            return -signal.SIGKILL

    def kill(self) -> None:
        """Make sure the process is gone; safe at any point of its life."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Client:
    """One keep-alive connection; every request is a span when tracing."""

    def __init__(self, address: Tuple[str, int], spans: Spans) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=JOB_TIMEOUT_S)
        self.spans = spans

    def request(
        self, span: str, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        with self.spans.span(span):
            if body is None:
                self.connection.request(method, path)
            else:
                self.connection.request(
                    method,
                    path,
                    body=json.dumps(body),
                    headers={"Content-Type": "application/json"},
                )
            response = self.connection.getresponse()
            payload = json.loads(response.read())
        if response.status in (429, 503):
            raise Refused(f"{method} {path} answered {response.status}: {payload.get('error')}")
        return response.status, payload

    def close(self) -> None:
        self.connection.close()


@dataclass
class JobSample:
    """What one phase-A job cost, seen from the client and from the record."""

    spec: Dict[str, Any]
    latency_s: float  # POST sent → result body fully read
    ack_s: float  # POST sent → 202 body read
    fetch_s: float  # GET …/result round trip
    polls: int
    queue_wait_s: float  # started_at − submitted_at, from the job record
    execute_s: float  # finished_at − started_at, from the job record
    result: Any


def _follow_job(client: Client, spec: Dict[str, Any]) -> JobSample:
    """Submit one job and follow it to its result; raises when it fails."""
    t_sent = time.perf_counter()
    status, payload = client.request("service.submit", "POST", "/jobs", spec)
    t_ack = time.perf_counter()
    if status != 202:
        raise RuntimeError(f"POST /jobs answered {status}: {payload.get('error')}")
    key = payload["job"]["key"]
    polls = 0
    while True:
        time.sleep(POLL_INTERVAL_S)
        status, payload = client.request("service.poll", "GET", f"/jobs/{key}")
        polls += 1
        record = payload.get("job", {})
        if record.get("status") == "done":
            break
        if status != 200 or record.get("status") in ("failed", "cancelled"):
            raise RuntimeError(f"job {key[:12]} ended {record.get('status')}: {record.get('error')}")
        if time.perf_counter() - t_sent > JOB_TIMEOUT_S:
            raise RuntimeError(f"job {key[:12]} not done after {JOB_TIMEOUT_S:.0f} s")
    t_done = time.perf_counter()
    status, payload = client.request("service.result_fetch", "GET", f"/jobs/{key}/result")
    t_result = time.perf_counter()
    if status != 200:
        raise RuntimeError(f"GET result of {key[:12]} answered {status}")
    return JobSample(
        spec=spec,
        latency_s=t_result - t_sent,
        ack_s=t_ack - t_sent,
        fetch_s=t_result - t_done,
        polls=polls,
        queue_wait_s=record["started_at"] - record["submitted_at"],
        execute_s=record["finished_at"] - record["started_at"],
        result=payload["result"],
    )


def _resubmit(client: Client, spec: Dict[str, Any]) -> float:
    """One phase-B round trip; raises unless the cache answered it."""
    t_sent = time.perf_counter()
    status, payload = client.request("service.cached_submit", "POST", "/jobs", spec)
    elapsed = time.perf_counter() - t_sent
    if status != 200 or payload.get("disposition") != "cached":
        raise RuntimeError(
            f"resubmission answered {status} / {payload.get('disposition')!r}, not cached"
        )
    return elapsed


def _closed_loop(
    run: Run, server: Server, span: str, inputs: List[Dict[str, Any]], one
) -> Tuple[List[Any], float, int]:
    """Drive *inputs* through ``one(client, spec)`` from the client threads.

    Returns ``(outputs, wall seconds, requests refused with 429/503)``.
    Every input is one attempted operation; one that raises is a failure.
    """
    lock = threading.Lock()
    pending: Iterator[Dict[str, Any]] = iter(inputs)
    outputs: List[Any] = []
    refused = 0

    def client_loop() -> None:
        nonlocal refused
        client = Client(server.address, run.spans)
        try:
            while True:
                with lock:
                    spec = next(pending, None)
                if spec is None:
                    return
                try:
                    with run.spans.span(span):
                        output = one(client, spec)
                except Exception as exc:
                    with lock:
                        run.attempted += 1
                        run.failed += 1
                        run.fail(f"{type(exc).__name__}: {exc}")
                        refused += isinstance(exc, Refused)
                    client.close()  # the connection's state is unknown now
                    client = Client(server.address, run.spans)
                else:
                    with lock:
                        run.attempted += 1
                        outputs.append(output)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outputs, time.perf_counter() - t0, refused


def _first_of_kind(samples: List[JobSample], kind: str) -> Optional[JobSample]:
    ordered = sorted(samples, key=lambda s: s.spec["seed"])
    return next((s for s in ordered if s.spec["kind"] == kind), None)


def _check_against_direct(run: Run, samples: List[JobSample]) -> None:
    """One served job per kind must equal ``execute_job`` run in this process."""
    for kind in ("simulate", "analyze"):
        sample = _first_of_kind(samples, kind)
        before = len(run.failures)
        if sample is None:
            run.fail(f"no {kind} job finished, nothing to compare")
        else:
            direct, _ = run.spans.call(
                f"service.execute_direct_{kind}", execute_job, canonical_spec(sample.spec)
            )
            run.check(
                json.dumps(direct, sort_keys=True) == json.dumps(sample.result, sort_keys=True),
                f"served {kind} result differs from execute_job run directly",
            )
        run.settle(before)


def service_closed_loop(run: Run) -> None:
    sizing = run.sizing
    jobs = service_jobs(run.seed, sizing.service_jobs)
    resubmissions = service_resubmissions(run.seed, jobs, sizing.service_resubmits)
    server = Server(run.tmpdir)
    try:
        server.start(run.spans)
        run.setup_done()
        samples, wall_a, refused_a = _closed_loop(run, server, "service.job", jobs, _follow_job)
        cached, wall_b, refused_b = _closed_loop(
            run, server, "service.resubmission", resubmissions, _resubmit
        )
        if run.traced:
            _http_floor(run, server)
        run.peak_rss_mib = server.peak_rss_mib()
        server_cpu_s = server.cpu_seconds()
        store_bytes = os.path.getsize(server.store_path)
        before = len(run.failures)
        code = server.stop()
        run.check(code == 0, f"server exited with {code} after SIGTERM")
        run.settle(before)
    finally:
        server.kill()

    run.samples = [sample.latency_s for sample in samples]
    run.throughput_per_s = len(samples) / wall_a
    run.facts.update(
        jobs=len(jobs),
        resubmissions=len(resubmissions),
        clients=SERVICE_CLIENTS,
        phase_a_wall_s=wall_a,
        phase_b_wall_s=wall_b,
        store_bytes=store_bytes,
    )
    _check_against_direct(run, samples)
    if run.traced and samples and cached:
        run.layer["service.rejected"] = refused_a + refused_b
        run.layer["service.server_cpu_s"] = server_cpu_s
        run.layer["service.store_bytes"] = store_bytes
        _request_layer(run, samples, cached)
        _store_probes(run, samples)


def _request_layer(run: Run, samples: List[JobSample], cached: List[float]) -> None:
    """``service.*`` metrics read off the phase-A jobs and phase-B round trips."""

    def ms(values: List[float], pct: float) -> float:
        return percentile(values, pct) * 1e3

    layer = run.layer
    layer["service.job_latency_p50_ms"] = ms(run.samples, 50)
    layer["service.job_latency_p90_ms"] = ms(run.samples, 90)
    layer["service.submit_ack_p50_ms"] = ms([s.ack_s for s in samples], 50)
    layer["service.jobs_per_s"] = run.throughput_per_s
    layer["service.cached_submit_p50_ms"] = ms(cached, 50)
    layer["service.cached_submit_p95_ms"] = ms(cached, 95)
    layer["service.queue_wait_p50_ms"] = ms([s.queue_wait_s for s in samples], 50)
    layer["service.polls_per_job"] = statistics.mean(s.polls for s in samples)
    for kind in ("simulate", "analyze"):
        of_kind = [s for s in samples if s.spec["kind"] == kind]
        if of_kind:
            layer[f"service.execute_{kind}_p50_ms"] = ms([s.execute_s for s in of_kind], 50)
    analyze = [s.fetch_s for s in samples if s.spec["kind"] == "analyze"]
    if analyze:
        layer["service.result_fetch_p50_ms"] = ms(analyze, 50)
    run.layer_time("service.startup")
    run.layer_time(
        "service.http_floor",
        "service.execute_direct_simulate",
        "service.execute_direct_analyze",
        unit="ms",
    )


# -- probes of the layers under the service ---------------------------------------


def _http_floor(run: Run, server: Server) -> None:
    """The cheapest request there is, on a keep-alive connection."""
    client = Client(server.address, run.spans)
    try:
        for _ in range(50):
            client.request("service.http_floor", "GET", "/healthz")
    finally:
        client.close()


def _journal_of(run: Run, name: str, size: int, open_journal, write_one) -> str:
    """Path of a journal holding *size* entries, built in parts of ten.

    Every save rewrites the whole journal, so filling one file to 100
    entries costs fifty full-size rewrites — seconds of set-up for a probe
    of milliseconds.  A journal is JSON lines, one entry per line, so ten
    ten-entry journals written by the program itself and concatenated are
    the same 100-entry journal at a tenth of the cost.
    """
    path = os.path.join(run.tmpdir, f"{name}-{size}.jsonl")
    with open(path, "wb") as whole:
        for first in range(0, size, 10):
            part = f"{path}.part{first}"
            with open_journal(part) as journal:
                for index in range(first, min(first + 10, size)):
                    write_one(journal, index)
            with open(part, "rb") as handle:
                whole.write(handle.read())
    return path


def _record_ms(run: Run, span: str, record, times: int = 5) -> float:
    """Median milliseconds of *record()* repeated at a fixed journal size."""
    for _ in range(times):
        run.spans.call(span, record)
    return statistics.median(run.spans.durations(span)) * 1e3


def _store_probes(run: Run, samples: List[JobSample]) -> None:
    """Cost of one durable save at two store sizes, and of canonicalisation.

    The store rewrites and fsyncs its whole journal on every save, so a
    save into a store of 100 jobs costs far more than into a store of one;
    the records saved here carry the results phase A really produced.
    """
    samples = sorted(samples, key=lambda sample: sample.spec["seed"])
    spec = samples[0].spec
    for _ in range(200):
        run.spans.call("service.canonical_spec", lambda: job_key(canonical_spec(spec)))
    run.layer_time("service.canonical_spec", unit="us")

    def job_record(index: int) -> JobRecord:
        sample = samples[index % len(samples)]
        return JobRecord(
            key=f"{index:064x}", seq=index + 1, spec=sample.spec,
            status="done", result=sample.result,
        )  # fmt: skip

    payload = {"blob": "x" * 100_000}
    for size in (1, 100):
        path = _journal_of(
            run, "store", size, JobStore, lambda store, i: store.save(job_record(i))
        )
        with JobStore(path) as store:
            if len(store) != size:
                raise RuntimeError(f"probe store holds {len(store)} records, not {size}")
            last = job_record(size - 1)
            run.layer[f"service.store_save_at_{size}_ms"] = _record_ms(
                run, f"service.store_save_at_{size}", lambda: store.save(last)
            )
        path = _journal_of(
            run, "journal", size, CheckpointJournal,
            lambda journal, i: journal.record({"cell": i}, payload),
        )  # fmt: skip
        with CheckpointJournal(path) as journal:
            if len(journal) != size:
                raise RuntimeError(f"probe journal holds {len(journal)} cells, not {size}")
            cell = {"cell": size - 1}
            run.layer[f"resilience.journal_record_{size}_ms"] = _record_ms(
                run, f"resilience.journal_record_{size}", lambda: journal.record(cell, payload)
            )
