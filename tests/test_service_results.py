"""Results live in the journal, not in memory.

The journal keeps each cell's place in its file and reads a payload back
only when asked; the job store keeps every record without its result, and
the service reads a done job's result back for the client that asks.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import pytest

import repro.service.app as app_module
from repro.errors import CheckpointError
from repro.resilience.checkpoint import CheckpointJournal
from repro.service import ServiceConfig, create_app
from repro.service.http import ServiceHTTPServer
from repro.service.store import DONE, RUNNING, JobRecord, JobStore

_MiB = 1 << 20
_V1 = pathlib.Path(__file__).parent / "data" / "job_store_v1" / "jobs.jsonl"


def _held_after(build):
    """Bytes still allocated by *build()* while what it returns is alive."""
    tracemalloc.start()
    try:
        kept = build()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, held


def _big_result(i):
    return {"kind": "analyze", "text": f"result {i} " + "x" * 100_000}


def _done(key, seq, result):
    return JobRecord(
        key=key, seq=seq, status=DONE, result=result,
        spec={"kind": "analyze", "experiment": "figure6", "seed": seq},
    )  # fmt: skip


class TestMemoryDoesNotGrowWithResults:
    def test_journal_keeps_places_not_payloads(self, tmp_path):
        def build():
            journal = CheckpointJournal(str(tmp_path / "j.jsonl"), exclusive=True)
            for i in range(50):
                journal.record({"i": i}, _big_result(i))
            return journal

        journal, held = _held_after(build)
        with journal:
            assert len(journal) == 50
            assert held < _MiB, held
            assert journal.get({"i": 49}) == _big_result(49)

    def test_store_keeps_records_without_results(self, tmp_path):
        def build():
            store = JobStore(str(tmp_path / "jobs.jsonl"))
            for i in range(50):
                store.save(_done(f"{i:064x}", i + 1, _big_result(i)))
            return store

        store, held = _held_after(build)
        with store:
            assert len(store) == 50
            assert held < _MiB, held
            assert store.get(f"{7:064x}").result is None
            assert store.result(f"{7:064x}") == _big_result(7)


class TestJournalReadBack:
    def _two_cells(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record({"i": 1}, "one")
            journal.record({"i": 2}, "two")
        with open(path, "rb") as handle:
            first, second = handle.readlines()
        return path, first, second

    def test_a_line_damaged_after_load_reads_as_missing(self, tmp_path):
        path, first, _second = self._two_cells(tmp_path)
        journal = CheckpointJournal(path)
        with open(path, "r+b") as handle:
            handle.seek(len(first) // 2)
            handle.write(b"\x00\x00")
        assert journal.has({"i": 1}) and journal.get({"i": 1}, "missing") == "missing"
        assert journal.cells() == {'{"i":2}': "two"}

    def test_a_line_that_now_holds_another_cell_never_reads_as_it(self, tmp_path):
        path, first, second = self._two_cells(tmp_path)
        assert len(first) == len(second)
        journal = CheckpointJournal(path)
        with open(path, "r+b") as handle:
            handle.write(second)  # cell 2's bytes where cell 1's line was
        assert journal.get({"i": 1}, "missing") == "missing"
        assert journal.cells() == {'{"i":2}': "two"}

    def test_a_line_cut_off_after_load_reads_as_missing(self, tmp_path):
        path, first, _second = self._two_cells(tmp_path)
        journal = CheckpointJournal(path)
        os.truncate(path, len(first))
        assert journal.cells() == {'{"i":1}': "one"}
        # The next line goes where the file really ends.
        journal.record({"i": 3}, "three")
        assert journal.cells() == CheckpointJournal(path).cells() == {
            '{"i":1}': "one",
            '{"i":3}': "three",
        }


class TestStoreReadBack:
    def test_results_read_back_after_a_compaction_moved_every_line(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        results = {f"{i:064x}": _big_result(i) for i in range(4)}
        churn = JobRecord(key="c" * 64, seq=99, spec={"kind": "simulate"}, status=RUNNING)
        with JobStore(path) as store:
            store.save(churn)  # the file's first line, superseded below
            for seq, (key, result) in enumerate(results.items(), 1):
                store.save(JobRecord(key=key, seq=seq, spec={}, status=RUNNING))
                store.save(_done(key, seq, result))
            with open(path, "rb") as handle:
                before = handle.read()
            inode = os.stat(path).st_ino
            # Large superseded lines of one job push the file past the
            # compaction threshold; record() compacts on its own.
            while os.stat(path).st_ino == inode:
                churn.error = "e" * 50_000 + str(len(churn.error or ""))
                store.save(churn)
            with open(path, "rb") as handle:
                after = handle.read()
            for key, result in results.items():
                marker = result["text"].encode()[:12]
                assert after.find(marker) != before.find(marker), key
                assert store.result(key) == result
        with JobStore(path) as reopened:
            for key, result in results.items():
                assert reopened.result(key) == result

    def test_an_unreadable_result_names_its_job(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore(path) as store:
            store.save(_done("a" * 64, 1, {"kind": "simulate", "echo": 1}))
            os.truncate(path, 10)
            with pytest.raises(CheckpointError, match=f"result of job {'a' * 64} cannot"):
                store.result("a" * 64)


class TestOpeningAStoreParsesEachResultOnce:
    """A restart parses each stored result once: the journal checks a
    line's cell and CRC without parsing its payload, and the store parses
    each payload once.  Each result used to be parsed twice on open."""

    def _parses(self, monkeypatch, marker):
        parsed = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            raw = text.encode() if isinstance(text, str) else bytes(text)
            parsed.extend([raw] if marker in raw else [])
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        return parsed

    def test_a_restart_parses_each_result_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "jobs.jsonl")
        keys = [f"{i:064x}" for i in range(5)]
        with JobStore(path) as store:
            for seq, key in enumerate(keys, 1):
                store.save(JobRecord(key=key, seq=seq, spec={}, status=RUNNING))
                store.save(_done(key, seq, None), json.dumps(_big_result(seq)).encode())
        parsed = self._parses(monkeypatch, b"x" * 1000)
        with JobStore(path) as store:
            assert [(r.key, r.status, r.result) for r in store.records()] == [
                (key, DONE, None) for key in keys
            ]
            assert len(parsed) == len(keys)
            assert store.result(keys[2]) == _big_result(3)
        assert len(parsed) == len(keys) + 1  # and the one result a client asked for

    def test_a_store_written_before_still_loads_by_parsing(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        shutil.copy(_V1, path)
        with JobStore(str(path)) as store:
            assert len(store) and all(record.result is None for record in store.records())


def _request(base, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def served(tmp_path, monkeypatch):
    """A function that starts a service whose jobs echo their seed and
    returns ``(base URL, service, store path)``; a test may fill the store
    before it calls it."""
    monkeypatch.setattr(
        app_module,
        "execute_job",
        lambda spec: ({"kind": spec["kind"], "echo": spec["seed"]}, None),
    )
    path = str(tmp_path / "jobs.jsonl")
    service = create_app(ServiceConfig(store_path=path, pool_workers=1, default_jobs=1))
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    host, port = httpd.server_address[:2]
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )

    def start():
        service.startup()
        thread.start()
        return f"http://{host}:{port}", service, path

    try:
        yield start
    finally:
        if thread.is_alive():
            httpd.shutdown()
            thread.join(timeout=10)
        httpd.server_close()
        service.shutdown()


def _settle(service):
    give_up = time.monotonic() + 30.0
    while any(job.status != DONE for job in service.jobs()):
        assert time.monotonic() < give_up, "jobs never finished"
        time.sleep(0.01)


def _live_line(path, key):
    """``(offset, bytes)`` of *key*'s last line in the journal at *path*."""
    found, offset = None, 0
    with open(path, "rb") as handle:
        for line in handle:
            if json.loads(line)["cell"] == {"job": key}:
                found = (offset, line)
            offset += len(line)
    return found


class TestServedResults:
    SIM = {"kind": "simulate", "experiment": "imbalance"}

    def test_a_damaged_result_answers_an_error_naming_its_job(self, served):
        base, service, path = served()
        keys = [_request(base, "POST", "/jobs", {**self.SIM, "seed": s})[1]["job"]["key"]
                for s in (1, 2, 3)]  # fmt: skip
        _settle(service)
        victim = keys[1]
        offset, line = _live_line(path, victim)
        assert json.loads(line)["payload"]["status"] == DONE
        with open(path, "r+b") as handle:
            handle.seek(offset + len(line) // 2)
            handle.write(b"\x00" * 8)
        for route in (f"/jobs/{victim}/result", f"/jobs/{victim}"):
            status, body = _request(base, "GET", route)
            assert status == 500 and f"result of job {victim}" in body["error"], body
        status, body = _request(base, "POST", "/jobs", {**self.SIM, "seed": 2})
        assert status == 500 and victim in body["error"], body
        for seed, key in zip((1, 3), (keys[0], keys[2])):
            status, body = _request(base, "GET", f"/jobs/{key}/result")
            assert status == 200
            assert body["result"] == {"kind": "simulate", "echo": seed}
            status, body = _request(base, "POST", "/jobs", {**self.SIM, "seed": seed})
            assert (status, body["disposition"]) == (200, "cached")
            assert body["job"]["result"] == {"kind": "simulate", "echo": seed}

    def test_a_store_written_before_restarts_and_serves_every_result(self, served, tmp_path):
        shutil.copy(_V1, tmp_path / "jobs.jsonl")
        with open(_V1, "rb") as handle:
            last = {row["cell"]["job"]: row["payload"] for row in map(json.loads, handle)}
        done = {key: payload for key, payload in last.items() if payload["status"] == DONE}
        assert done, "the fixture holds done jobs"
        base, service, _path = served()
        _settle(service)  # the fixture's unfinished jobs run, then every job is done
        for key, payload in done.items():
            status, body = _request(base, "GET", f"/jobs/{key}/result")
            assert (status, body["result"], body["execution"]) == (
                200, payload["result"], payload["execution"],
            )  # fmt: skip
            status, body = _request(base, "GET", f"/jobs/{key}")
            assert (status, body["job"]) == (200, payload)
        for key in sorted(set(last) - set(done)):
            status, body = _request(base, "GET", f"/jobs/{key}/result")
            assert status == 200 and body["result"]["kind"] == last[key]["spec"]["kind"]
