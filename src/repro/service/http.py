"""Stdlib HTTP front end of the analysis service.

Routes (all JSON):

* ``POST /jobs`` — submit ``{"kind", "experiment", "seed", "jobs",
  "config"}``.  ``202`` for newly accepted work; ``200`` with a
  ``disposition`` of ``duplicate``/``cached``/``retried`` for idempotent
  resubmission; ``400`` on a malformed spec; ``429`` +
  ``Retry-After`` when the queue is full; ``503`` + ``Retry-After``
  while draining.
* ``GET /jobs`` — all jobs (summaries, submission order).
* ``GET /jobs/<key>`` — one job's full record (status, phase, attempts).
* ``GET /jobs/<key>/result`` — the result payload; ``409`` until the
  job is ``done`` (or after it failed — the body says which); ``500``
  naming the job if its result no longer reads back from the store.
* ``GET /jobs/<key>/severity[?metric=...]`` — severity-cube query of a
  finished analyze job.
* ``GET /jobs/<key>/severity/timeline[?metric=...]`` — window-resolved
  severity series of a finished analyze job submitted with config
  ``{"timeline": true}``.
* ``DELETE /jobs/<key>`` — cancel.  ``200`` for a queued job (journaled
  ``cancelled`` immediately); ``202`` for the running job (its deadline
  is cancelled, the executor journals ``cancelled`` at the next
  cooperative check); ``409`` when already terminal; ``404`` unknown.
* ``POST /jobs/<key>/requeue`` — re-admit a quarantined or cancelled
  job (``202``), bypassing the circuit breaker but not the queue bound.
* ``GET /healthz`` — liveness plus circuit-breaker state; ``GET
  /readyz`` — readiness (``503`` + ``Retry-After`` derived from the
  remaining drain grace while draining) plus queue statistics.

:func:`serve` is the blocking entry point behind ``repro serve``: it
starts the app, serves until SIGTERM/SIGINT, then drains gracefully —
stop admission, let the in-flight job finish (bounded by the configured
grace), journal the rest for the next start.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    CheckpointError,
    JobRejected,
    JobValidationError,
    ServiceError,
)
from repro.service.app import AnalysisService, ServiceConfig, create_app
from repro.service.store import JobRecord, splice

__all__ = ["ServiceHTTPServer", "serve"]

_MAX_BODY_BYTES = 1 << 20  # a job spec is tiny; anything bigger is abuse


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the :class:`AnalysisService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: AnalysisService) -> None:
        super().__init__(address, _Handler)
        self.app = app


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> AnalysisService:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the supervisor's job, not stderr noise

    # -- response plumbing -----------------------------------------------------

    def _send(
        self, status: int, payload: Any, headers: Optional[Dict[str, str]] = None
    ) -> None:
        """Answer *payload*: a dict, or the bytes of its ``json.dumps(..., sort_keys=True)``."""
        if not isinstance(payload, bytes):
            payload = json.dumps(payload, sort_keys=True).encode("utf-8")
        body = payload + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # One write, not end_headers() then the body: ``wfile`` is unbuffered,
        # and a second small segment on a keep-alive connection waits out the
        # peer's delayed-ACK timer (~40 ms per response).
        if self.request_version == "HTTP/0.9":  # header-less: nothing to join
            self.wfile.write(body)
        else:
            self._headers_buffer.append(b"\r\n" + body)
            self.flush_headers()

    def _send_job(self, status: int, fields: Dict[str, Any], record: JobRecord) -> None:
        """Answer *fields* plus ``job``: the record, its result's bytes spliced in."""
        self._send(status, splice(fields, "job", self.app.payload(record)))

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise JobValidationError("request body must be a JSON object")
        if length > _MAX_BODY_BYTES:
            raise JobValidationError("request body too large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobValidationError(f"request body is not valid JSON: {exc}") from exc

    # -- routing ---------------------------------------------------------------

    def _submit(self) -> None:
        raw = self._read_json()
        record, disposition = self.app.submit(raw)
        status = 202 if disposition in ("created", "retried") else 200
        self._send_job(status, {"disposition": disposition, "url": f"/jobs/{record.key}"}, record)

    def do_POST(self) -> None:  # noqa: N802
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path == "/jobs":
                self._submit()
            elif path.startswith("/jobs/") and path.endswith("/requeue"):
                key = path[len("/jobs/") : -len("/requeue")]
                record = self.app.requeue(key)
                fields = {"disposition": "requeued", "url": f"/jobs/{record.key}"}
                self._send_job(202, fields, record)
            else:
                self._send(404, {"error": f"no route POST {path}"})
        except JobValidationError as exc:
            self._send(400, {"error": str(exc)})
        except JobRejected as exc:
            status = exc.status or (503 if not self.app.accepting else 429)
            self._send(
                status,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": str(max(1, int(exc.retry_after_s)))},
            )
        except ServiceError as exc:
            self._send(404, {"error": str(exc)})
        except CheckpointError as exc:
            self._send(500, {"error": f"job store failure: {exc}"})
        except Exception as exc:  # pragma: no cover - last-resort 500
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_DELETE(self) -> None:  # noqa: N802
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path.startswith("/jobs/"):
                key = path[len("/jobs/") :]
                if "/" in key:
                    self._send(404, {"error": f"no route DELETE {path}"})
                    return
                record, disposition = self.app.cancel(key)
                status = {"cancelled": 200, "cancelling": 202}.get(disposition, 409)
                self._send_job(status, {"disposition": disposition}, record)
            else:
                self._send(404, {"error": f"no route DELETE {path}"})
        except ServiceError as exc:
            self._send(404, {"error": str(exc)})
        except CheckpointError as exc:
            self._send(500, {"error": f"job store failure: {exc}"})
        except Exception as exc:  # pragma: no cover - last-resort 500
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802
        split = urlsplit(self.path)
        path = split.path.rstrip("/")
        query = parse_qs(split.query)
        try:
            if path == "/healthz":
                self._send(
                    200,
                    {"status": "alive", "breaker": self.app.breaker.snapshot()},
                )
            elif path == "/readyz":
                stats = self.app.stats()
                if self.app.ready:
                    self._send(200, {"status": "ready", **stats})
                else:
                    retry_after = self.app.drain_retry_after_s()
                    self._send(
                        503,
                        {
                            "status": "draining",
                            "retry_after_s": retry_after,
                            **stats,
                        },
                        headers={"Retry-After": str(max(1, int(retry_after)))},
                    )
            elif path == "/jobs":
                self._send(200, {"jobs": [r.summary() for r in self.app.jobs()]})
            elif path.startswith("/jobs/"):
                self._job_routes(path[len("/jobs/") :], query)
            else:
                self._send(404, {"error": f"no route GET {path}"})
        except ServiceError as exc:
            self._send(404, {"error": str(exc)})
        except CheckpointError as exc:
            self._send(500, {"error": f"job store failure: {exc}"})
        except Exception as exc:  # pragma: no cover - last-resort 500
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _job_routes(self, rest: str, query: Dict[str, Any]) -> None:
        parts = rest.split("/")
        key = parts[0]
        record = self.app.job(key)
        if record is None:
            self._send(404, {"error": f"no job {key}"})
            return
        if len(parts) == 1:
            self._send_job(200, {}, record)
        elif parts[1:] == ["result"]:
            if record.status == "done":
                fields = {"status": record.status, "execution": record.execution}
                self._send(200, splice(fields, "result", self.app.result_bytes(key)))
            else:
                self._send(
                    409,
                    {
                        "status": record.status,
                        "phase": record.phase,
                        "error": record.error,
                    },
                )
        elif parts[1:] == ["severity"]:
            metric = (query.get("metric") or [None])[0]
            try:
                self._send(200, self.app.severity(key, metric=metric))
            except ServiceError as exc:
                self._send(409, {"error": str(exc)})
        elif parts[1:] == ["severity", "timeline"]:
            metric = (query.get("metric") or [None])[0]
            try:
                self._send(200, self.app.severity_timeline(key, metric=metric))
            except ServiceError as exc:
                self._send(409, {"error": str(exc)})
        else:
            self._send(404, {"error": f"no route GET /jobs/{rest}"})


def serve(
    config: Optional[ServiceConfig] = None,
    *,
    app: Optional[AnalysisService] = None,
    ready_file: Optional[str] = None,
) -> int:
    """Run the service until SIGTERM/SIGINT; returns the exit code.

    Binds first (``port=0`` lets the OS pick), then opens the store and
    recovers journaled jobs, then announces readiness — on stdout and,
    when ``ready_file`` is given, as ``host:port`` in that file (how
    tests and scripts discover an OS-assigned port).  On signal:
    graceful drain (see :meth:`AnalysisService.shutdown`), then exit 0.
    """
    config = config or ServiceConfig()
    app = app or create_app(config)
    httpd = ServiceHTTPServer((config.host, config.port), app)
    host, port = httpd.server_address[:2]
    app.startup()

    stop = threading.Event()
    received: Dict[str, Any] = {"signal": None}

    def _on_signal(signum, frame):  # noqa: ANN001
        received["signal"] = signum
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)

    server_thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    server_thread.start()
    print(f"repro service listening on http://{host}:{port} (store: {app.config.store_path})", flush=True)
    if ready_file:
        # Watchers poll for this file; an atomic replace means they never
        # observe a torn half-written address.
        directory = os.path.dirname(os.path.abspath(ready_file)) or "."
        fd, tmp = tempfile.mkstemp(prefix=".ready-", dir=directory)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{host}:{port}\n")
        os.replace(tmp, ready_file)
    try:
        while not stop.is_set():
            stop.wait(timeout=0.5)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        name = (
            signal.Signals(received["signal"]).name
            if received["signal"] is not None
            else "shutdown"
        )
        print(f"repro service draining on {name} ...", flush=True)
        httpd.shutdown()
        server_thread.join(timeout=5.0)
        httpd.server_close()
        app.shutdown(drain=True)
        print("repro service stopped", flush=True)
    return 0
