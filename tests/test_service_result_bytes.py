"""A served result is bytes: journaled once, checked by CRC, spliced into bodies.

A version-2 journal line is ``json.dumps(record, sort_keys=True)`` with a
CRC-32 of its payload's bytes; reads slice the payload out and check it,
and every HTTP body that carries a result is spliced from those bytes.
The bodies must equal what the dict form encoded, byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import shutil
import threading
import time
import urllib.error
import urllib.request
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.app as app_module
from repro.resilience.checkpoint import CheckpointJournal
from repro.service import ServiceConfig, create_app
from repro.service.http import ServiceHTTPServer
from repro.service.store import DONE, canonical_spec, job_key, splice

_V1 = pathlib.Path(__file__).parent / "data" / "job_store_v1" / "jobs.jsonl"
SIM = {"kind": "simulate", "experiment": "imbalance"}


def _result(spec):
    """A stand-in job result with what JSON encodes with care."""
    return {
        "kind": spec["kind"],
        "echo": 12345 + spec["seed"],
        "text": "Zürich – 東京   \"quoted\"",
        "floats": [0.1, 1e-300, -2.5e17, 3.0],
        "nested": {"b": [None, True, {"z": 1, "a": 2}], "a": {}},
    }


def _flip_digit(path, needle):
    """Change the first digit of *needle* in the file at *path* to another digit."""
    with open(path, "r+b") as handle:
        data = handle.read()
        at = data.index(needle)
        handle.seek(at)
        handle.write(b"7" if needle[:1] != b"7" else b"8")


class TestJournalLine:
    def test_a_line_is_the_json_of_its_record_with_a_crc_of_its_payload(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        payload = {"n": 12345, "text": "é", "list": [1.5, None]}
        with CheckpointJournal(path) as journal:
            journal.record({"i": 1}, payload)
        with open(path, "rb") as handle:
            (line,) = handle.readlines()
        encoded = json.dumps(payload, sort_keys=True).encode()
        record = {"cell": {"i": 1}, "crc": zlib.crc32(encoded), "payload": payload, "version": 2}
        assert line == (json.dumps(record, sort_keys=True) + "\n").encode()
        with CheckpointJournal(path) as journal:
            assert journal.payload_bytes({"i": 1}) == encoded

    def test_encoded_bytes_are_recorded_as_they_are(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record({"i": 1}, b'{"a": [1, 2]}')
            assert journal.get({"i": 1}) == {"a": [1, 2]}
        assert CheckpointJournal(path).cells() == {'{"i":1}': {"a": [1, 2]}}

    def test_a_version_1_line_reads_back_as_its_encoded_payload(self):
        journal = CheckpointJournal(str(_V1))
        with open(_V1, "rb") as handle:
            last = {row["cell"]["job"]: row["payload"] for row in map(json.loads, handle)}
        for key, payload in last.items():
            expected = json.dumps(payload, sort_keys=True).encode()
            assert journal.payload_bytes({"job": key}) == expected


class TestAChangedByteThatStillParses:
    def _journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record({"i": 1}, {"n": 12345})
            journal.record({"i": 2}, {"n": 67890})
        return path

    def test_a_flip_after_load_reads_as_missing(self, tmp_path):
        path = self._journal(tmp_path)
        journal = CheckpointJournal(path)
        _flip_digit(path, b"12345")
        assert journal.has({"i": 1})
        assert journal.get({"i": 1}, "missing") == "missing"
        assert journal.payload_bytes({"i": 1}) is None
        assert journal.cells() == {'{"i":2}': {"n": 67890}}

    def test_a_flipped_line_is_skipped_on_a_fresh_load(self, tmp_path):
        path = self._journal(tmp_path)
        _flip_digit(path, b"12345")
        json.loads(open(path, "rb").readline())  # the damage still parses
        journal = CheckpointJournal(path)
        assert not journal.has({"i": 1}) and len(journal) == 1
        assert journal.cells() == {'{"i":2}': {"n": 67890}}


@given(
    obj=st.dictionaries(
        st.text(max_size=6),
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=8,
        ),
        max_size=6,
    ),
    key=st.text(max_size=6),
    value=st.recursive(
        st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    pick=st.integers(min_value=0),
)
@settings(max_examples=300, deadline=None)
def test_splice_equals_encoding_the_merged_object(obj, key, value, pick):
    keys = sorted(obj)
    if keys and pick % 3 == 0:
        key = keys[pick % len(keys)]  # a key the object already has
    raw = json.dumps(value, sort_keys=True).encode()
    assert splice(obj, key, raw) == json.dumps({**obj, key: value}, sort_keys=True).encode()


@pytest.mark.parametrize(
    "obj, key",
    [
        ({}, "job"),
        ({"b": 1, "c": 2}, "a"),  # sorts before the others
        ({"a": 1, "b": 2}, "c"),  # after
        ({"a": 1, "c": 2}, "b"),  # between
        ({"a": 1, "b": [2.5, "ü"], "c": None}, "b"),  # replaces a value
    ],
)
def test_splice_places_the_key_where_sorting_does(obj, key):
    value = {"nested": ["é", 0.1, {"y": 1, "x": 2}]}
    raw = json.dumps(value, sort_keys=True).encode()
    assert splice(obj, key, raw) == json.dumps({**obj, key: value}, sort_keys=True).encode()


def _raw(base, method, path, body=None):
    """``(status, body bytes)`` of one request."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@contextlib.contextmanager
def _serving(path):
    """A started service on the store at *path* behind an HTTP server; yields
    ``(base URL, service)``."""
    service = create_app(ServiceConfig(store_path=path, pool_workers=1, default_jobs=1))
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    host, port = httpd.server_address[:2]
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    service.startup()
    thread.start()
    try:
        yield f"http://{host}:{port}", service
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()
        service.shutdown()


def _settle(service):
    give_up = time.monotonic() + 30.0
    while any(job.status != DONE for job in service.jobs()):
        assert time.monotonic() < give_up, "jobs never finished"
        time.sleep(0.01)


def _encoded(obj):
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _assert_bodies_are_the_dict_form(base, service, key, result, submission):
    """Each route that carries *result* answers the dict form's encoding
    (the ``cached`` POST when *submission* resubmits the job)."""
    record = service.job(key)
    job = {**record.to_payload(), "result": result}
    expected = {
        ("GET", f"/jobs/{key}"): (200, {"job": job}),
        ("GET", f"/jobs/{key}/result"): (
            200,
            {"status": DONE, "result": result, "execution": record.execution},
        ),
        ("POST", "/jobs"): (
            200,
            {"disposition": "cached", "job": job, "url": f"/jobs/{key}"},
        ),
        ("DELETE", f"/jobs/{key}"): (409, {"disposition": "terminal", "job": job}),
    }
    if job_key(canonical_spec(submission)) != key:  # a key no spec of today maps to
        del expected["POST", "/jobs"]
    for (method, route), (status, body) in expected.items():
        sent = submission if method == "POST" else None
        assert _raw(base, method, route, sent) == (status, _encoded(body)), (method, route)


class TestBodiesAreByteIdentical:
    def test_a_job_journaled_here_before_and_after_a_restart(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app_module, "execute_job", lambda spec: (_result(spec), None))
        path = str(tmp_path / "jobs.jsonl")
        submissions = [{**SIM, "seed": seed} for seed in (1, 2)]
        with _serving(path) as (base, service):
            keys = [
                json.loads(_raw(base, "POST", "/jobs", s)[1])["job"]["key"] for s in submissions
            ]
            _settle(service)
            for key, submission in zip(keys, submissions):
                result = _result({"kind": "simulate", "seed": submission["seed"]})
                _assert_bodies_are_the_dict_form(base, service, key, result, submission)
        with _serving(path) as (base, service):
            for key, submission in zip(keys, submissions):
                result = _result({"kind": "simulate", "seed": submission["seed"]})
                _assert_bodies_are_the_dict_form(base, service, key, result, submission)

    def test_every_done_job_of_a_version_1_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app_module, "execute_job", lambda spec: (_result(spec), None))
        path = str(tmp_path / "jobs.jsonl")
        shutil.copy(_V1, path)
        with open(_V1, "rb") as handle:
            last = {row["cell"]["job"]: row["payload"] for row in map(json.loads, handle)}
        done = {key: p for key, p in last.items() if p["status"] == DONE}
        assert done, "the fixture holds done jobs"
        with _serving(path) as (base, service):
            _settle(service)
            for key, payload in done.items():
                _assert_bodies_are_the_dict_form(
                    base, service, key, payload["result"], payload["spec"]
                )

    def test_the_served_path_parses_and_encodes_no_result(self, tmp_path, monkeypatch):
        big = {"kind": "simulate", "blob": "x" * 100_000}
        monkeypatch.setattr(app_module, "execute_job", lambda spec: (big, None))
        path = str(tmp_path / "jobs.jsonl")
        with _serving(path) as (base, service):
            key = json.loads(_raw(base, "POST", "/jobs", {**SIM, "seed": 1})[1])["job"]["key"]
            _settle(service)
            sizes = []
            real_loads, real_dumps = json.loads, json.dumps

            def loads(text, *args, **kwargs):
                sizes.append(len(text))
                return real_loads(text, *args, **kwargs)

            def dumps(obj, *args, **kwargs):
                encoded = real_dumps(obj, *args, **kwargs)
                sizes.append(len(encoded))
                return encoded

            monkeypatch.setattr(json, "loads", loads)
            monkeypatch.setattr(json, "dumps", dumps)
            for method, route, body in (
                ("GET", f"/jobs/{key}", None),
                ("GET", f"/jobs/{key}/result", None),
                ("POST", "/jobs", {**SIM, "seed": 1}),
                ("DELETE", f"/jobs/{key}", None),
            ):
                status, raw = _raw(base, method, route, body)
                assert status in (200, 409) and len(raw) > 100_000, (method, route)
            monkeypatch.undo()
            assert sizes and max(sizes) < 10_000, max(sizes)


def test_a_flipped_result_digit_answers_500_naming_the_job(tmp_path, monkeypatch):
    monkeypatch.setattr(app_module, "execute_job", lambda spec: (_result(spec), None))
    path = str(tmp_path / "jobs.jsonl")
    with _serving(path) as (base, service):
        keys = [
            json.loads(_raw(base, "POST", "/jobs", {**SIM, "seed": seed})[1])["job"]["key"]
            for seed in (1, 2)
        ]
        _settle(service)
        _flip_digit(path, b"12346")  # seed 1's echo, inside its result
        for route in (f"/jobs/{keys[0]}/result", f"/jobs/{keys[0]}"):
            status, body = _raw(base, "GET", route)
            assert status == 500 and f"result of job {keys[0]}".encode() in body, body
        status, body = _raw(base, "GET", f"/jobs/{keys[1]}/result")
        assert status == 200 and json.loads(body)["result"]["echo"] == 12347
