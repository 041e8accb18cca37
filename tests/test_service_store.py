"""The durable job store: canonicalization, content-addressed dedup, recovery."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.errors import AnalysisError, CheckpointLockError, JobValidationError
from repro.service.store import (
    ACCEPTED,
    DONE,
    FAILED,
    RUNNING,
    JobRecord,
    JobStore,
    canonical_spec,
    job_key,
)


class TestCanonicalSpec:
    def test_defaults_made_explicit(self):
        spec = canonical_spec({"experiment": "figure6"}, default_jobs=2)
        assert spec == {
            "kind": "run_experiment",
            "experiment": "figure6",
            "seed": 11,  # figure6's committed default seed
            "jobs": 2,
            "config": {},
        }

    def test_equivalent_submissions_share_a_key(self):
        implicit = canonical_spec({"experiment": "figure6"}, default_jobs=2)
        explicit = canonical_spec(
            {
                "config": {},
                "jobs": 2,
                "seed": 11,
                "kind": "run_experiment",
                "experiment": "figure6",
            },
            default_jobs=1,
        )
        assert job_key(implicit) == job_key(explicit)

    def test_different_seed_is_different_work(self):
        a = canonical_spec({"experiment": "figure6", "seed": 1})
        b = canonical_spec({"experiment": "figure6", "seed": 2})
        assert job_key(a) != job_key(b)

    def test_config_affects_identity(self):
        a = canonical_spec(
            {"kind": "analyze", "experiment": "figure7", "config": {"timeout": 60}}
        )
        b = canonical_spec({"kind": "analyze", "experiment": "figure7"})
        assert job_key(a) != job_key(b)

    @pytest.mark.parametrize(
        "raw",
        [
            "not a mapping",
            {"experiment": "figure6", "bogus": 1},
            {"kind": "nope", "experiment": "figure6"},
            {"kind": "run_experiment", "experiment": "figure99"},
            {"kind": "analyze", "experiment": "table2"},
            {"kind": "simulate", "experiment": "figure6"},
            {"experiment": ""},
            {"experiment": "figure6", "seed": "eleven"},
            {"experiment": "figure6", "seed": True},
            {"experiment": "figure6", "jobs": -1},
            {"experiment": "figure6", "config": "x"},
            {"experiment": "figure6", "config": {"coupling_intervals": 3}},
            {"kind": "analyze", "experiment": "figure6", "config": {"timeout": 0}},
            {"kind": "simulate", "experiment": "imbalance", "config": {"ranks": 1}},
        ],
    )
    def test_malformed_submissions_rejected(self, raw):
        with pytest.raises(JobValidationError):
            canonical_spec(raw)

    @pytest.mark.parametrize("config", [[], 0, "", False, "x"])
    def test_config_must_be_an_object_even_when_falsy(self, config):
        """``[]``, ``0``, ``""`` and ``false`` were once read as ``{}``;
        only an absent or ``null`` config is."""
        with pytest.raises(JobValidationError, match="^config must be a JSON object$"):
            canonical_spec({"experiment": "figure6", "config": config})
        implicit = canonical_spec({"experiment": "figure6"})
        assert canonical_spec({"experiment": "figure6", "config": None}) == implicit

    def test_timeline_config_keys_validate(self):
        spec = canonical_spec(
            {
                "kind": "analyze",
                "experiment": "figure6",
                "config": {"timeline": True, "window_s": 2.0, "stride_s": 0.5,
                           "bounded": True},
            }
        )
        assert spec["config"]["timeline"] is True
        for bad in (
            {"timeline": "yes"},
            {"window_s": 0},
            {"stride_s": -0.5},
            {"bounded": 1},
        ):
            with pytest.raises(JobValidationError):
                canonical_spec(
                    {"kind": "analyze", "experiment": "figure6", "config": bad}
                )

    def test_analyze_and_simulate_whitelists(self):
        analyze = canonical_spec(
            {
                "kind": "analyze",
                "experiment": "figure7",
                "config": {"coupling_intervals": 2, "verify_archive": True},
            }
        )
        assert analyze["config"] == {"coupling_intervals": 2, "verify_archive": True}
        simulate = canonical_spec(
            {
                "kind": "simulate",
                "experiment": "imbalance",
                "config": {"ranks": 4, "metahosts": 2, "iterations": 3},
            }
        )
        assert simulate["seed"] == 0  # no committed default: falls back to 0


class TestRequestCanonicalization:
    """An AnalysisRequest is a first-class job config: it canonicalizes to
    its defaults-omitted dict form and dedupes against the plain-JSON
    submission that means the same work."""

    def test_request_config_equals_plain_dict(self):
        from repro.analysis.request import AnalysisRequest

        as_request = canonical_spec(
            {
                "kind": "analyze",
                "experiment": "figure6",
                "seed": 1,
                "config": AnalysisRequest(timeline=True, window_s=2.0),
            }
        )
        as_dict = canonical_spec(
            {
                "kind": "analyze",
                "experiment": "figure6",
                "seed": 1,
                "config": {"timeline": True, "window_s": 2.0},
            }
        )
        assert as_request == as_dict
        assert job_key(as_request) == job_key(as_dict)

    def test_all_defaults_request_equals_empty_config(self):
        from repro.analysis.request import AnalysisRequest

        with_request = canonical_spec(
            {"kind": "analyze", "experiment": "figure6",
             "config": AnalysisRequest()}
        )
        without = canonical_spec({"kind": "analyze", "experiment": "figure6"})
        assert job_key(with_request) == job_key(without)
        assert with_request["config"] == {}

    def test_request_jobs_lift_into_spec(self):
        from repro.analysis.request import AnalysisRequest

        spec = canonical_spec(
            {"kind": "analyze", "experiment": "figure6",
             "config": AnalysisRequest(jobs=4)},
            default_jobs=1,
        )
        assert spec["jobs"] == 4
        assert "jobs" not in spec["config"]

    def test_request_jobs_conflict_rejected(self):
        from repro.analysis.request import AnalysisRequest

        with pytest.raises(JobValidationError, match="conflicts"):
            canonical_spec(
                {"kind": "analyze", "experiment": "figure6", "jobs": 2,
                 "config": AnalysisRequest(jobs=4)}
            )
        # Agreeing values are not a conflict.
        spec = canonical_spec(
            {"kind": "analyze", "experiment": "figure6", "jobs": 4,
             "config": AnalysisRequest(jobs=4)}
        )
        assert spec["jobs"] == 4


class TestSameJobSameKey:
    """One canonicalisation path: a plain-dict config and a request object
    are normalised alike, so an explicit default or an integer-valued
    duration never makes a second cache entry for the same work."""

    BASE = {"kind": "analyze", "experiment": "figure6"}

    def key(self, config):
        return job_key(canonical_spec({**self.BASE, "config": config}))

    def test_five_probes_two_keys(self):
        from repro.analysis.request import AnalysisRequest

        plain = self.key({})
        timeline = self.key({"timeline": True})
        assert plain != timeline
        assert self.key({"bounded": False}) == plain
        assert self.key({"timeline": True, "window_s": 1.0}) == timeline
        assert self.key({"timeline": True, "window_s": 1}) == timeline
        assert self.key(AnalysisRequest()) == plain
        assert self.key(AnalysisRequest(timeline=True)) == timeline

    def test_durations_are_floats_from_either_form(self):
        from repro.analysis.request import AnalysisRequest

        ints = {"timeout": 60, "deadline_s": 300, "window_s": 2, "stride_s": 1}
        spec = canonical_spec({**self.BASE, "config": ints})
        assert spec["config"] == {k: float(v) for k, v in ints.items()}
        assert all(type(v) is float for v in spec["config"].values())
        assert spec == canonical_spec({**self.BASE, "config": AnalysisRequest(**ints)})

    def test_workload_kept_and_simulate_keys_canonical(self):
        spec = canonical_spec(
            {**self.BASE, "config": {"coupling_intervals": 1, "timeline": False}}
        )
        assert spec["config"] == {"coupling_intervals": 1}

        def simulate(config):
            return canonical_spec(
                {"kind": "simulate", "experiment": "imbalance", "config": config}
            )

        # simulate specs canonicalize like the analysing kinds: durations
        # are floats and a spelled-out default is left out.
        assert simulate({"deadline_s": 5}) == simulate({"deadline_s": 5.0})
        assert type(simulate({"deadline_s": 5})["config"]["deadline_s"]) is float
        assert simulate({"metahosts": 2}) == simulate({})
        assert simulate({"ranks": 8, "iterations": 4})["config"] == {"ranks": 8}

    def test_duration_no_float_can_hold_is_rejected(self):
        with pytest.raises(JobValidationError, match="deadline_s must be a number of seconds > 0"):
            canonical_spec({**self.BASE, "config": {"deadline_s": 10**400}})

    @pytest.mark.parametrize("key", ["window_s", "stride_s"])
    def test_infinite_timeline_width_is_rejected(self, key):
        # JSON admits ``Infinity``; no timeline can bin with it.
        config = json.loads(f'{{"{key}": Infinity}}')
        with pytest.raises(
            JobValidationError, match=f"{key} must be a number of seconds > 0 and finite"
        ):
            canonical_spec({**self.BASE, "config": config})

    def test_service_dedupes_explicit_defaults_and_integer_widths(
        self, tmp_path, monkeypatch
    ):
        import time

        import repro.service.app as app_module
        from repro.service import ServiceConfig, create_app

        from tests.gates import Flag

        release = Flag()  # shared with the job's worker process

        def gated(spec):
            assert release.wait(timeout=60), "gate never released"
            return {"kind": spec["kind"]}, None

        monkeypatch.setattr(app_module, "execute_job", gated)
        config = ServiceConfig(store_path=str(tmp_path / "jobs.jsonl"), pool_workers=1)
        with create_app(config) as service:
            try:
                first, disposition = service.submit(
                    {**self.BASE, "config": {"timeline": True}}
                )
                assert disposition == "created"
                again, disposition = service.submit(
                    {**self.BASE, "config": {"timeline": True, "bounded": False}}
                )
                assert (again.key, disposition) == (first.key, "duplicate")
            finally:
                release.set()
            give_up = time.monotonic() + 30.0
            while service.job(first.key).status != DONE and time.monotonic() < give_up:
                time.sleep(0.01)
            cached, disposition = service.submit(
                {**self.BASE, "config": {"timeline": True, "window_s": 1}}
            )
            assert (cached.key, disposition) == (first.key, "cached")
            assert len(service.jobs()) == 1


class TestSizeBounds:
    """Every workload size has an upper bound, and one past it is refused
    before any work runs — by the store and by the runner alike."""

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("simulate", "ranks"),
            ("simulate", "metahosts"),
            ("simulate", "iterations"),
            ("analyze", "coupling_intervals"),
        ],
    )
    def test_one_past_the_bound_is_refused(self, kind, name, monkeypatch):
        import repro.api
        import repro.experiments.figures
        from repro.analysis.request import declared
        from repro.service.runners import execute_job
        from repro.service.store import _CONFIG

        def no_work(*args, **kwargs):
            raise AssertionError("work ran for a refused spec")

        monkeypatch.setattr(repro.api, "simulate", no_work)
        monkeypatch.setattr(repro.experiments.figures, "run_metatrace_experiment", no_work)
        rule = declared(_CONFIG[kind][0])[name].metadata["rule"]
        assert rule.high is not None and rule.why
        experiment = "imbalance" if kind == "simulate" else "figure6"
        raw = {"kind": kind, "experiment": experiment, "seed": 0, "jobs": 1}
        admitted = canonical_spec({**raw, "config": {name: rule.high}})
        assert admitted["config"] == {name: rule.high}
        pattern = f"{name} must be an integer >= {rule.low} and <= {rule.high} "
        with pytest.raises(JobValidationError, match=pattern):
            canonical_spec({**raw, "config": {name: rule.high + 1}})
        with pytest.raises(AnalysisError, match=pattern):
            execute_job({**raw, "config": {name: rule.high + 1}})

    def test_ranks_reach_the_benchmark_ladder_top(self):
        from repro.analysis.request import declared
        from repro.service.store import SimulateConfig

        assert declared(SimulateConfig)["ranks"].metadata["rule"].high >= 1024


class TestAdmittedIsServed:
    """The store's whitelist and the runner's request cannot drift apart:
    every config key the two analysing kinds admit is a field of the
    kind's declared table and, ``coupling_intervals`` (the workload size)
    aside, an AnalysisRequest field; the runner turns any admitted config
    into a request without loss."""

    @staticmethod
    def off_default(f):
        """One admitted value of declared field *f* that is not its default
        (durations as integers, which the table serves as floats)."""
        rule = f.metadata["rule"]
        if rule.kind == "flag":
            return not f.default
        if rule.kind == "count":
            return (f.default if f.default is not None else rule.low) + 1
        return int(f.default or 1) + 1

    @pytest.mark.parametrize("kind", ["run_experiment", "analyze"])
    def test_whitelist_is_request_fields(self, kind):
        from repro.analysis.request import AnalysisRequest, declared
        from repro.service.store import _CONFIG

        table, allowed = _CONFIG[kind]
        assert allowed <= set(declared(table))
        assert allowed - {"coupling_intervals"} <= set(declared(AnalysisRequest))

    @pytest.mark.parametrize("kind", ["run_experiment", "analyze"])
    def test_runner_serves_every_admitted_key(self, kind):
        from repro.analysis.request import AnalysisRequest, declared
        from repro.service.runners import _request
        from repro.service.store import _CONFIG

        table, allowed = _CONFIG[kind]
        config = {key: self.off_default(declared(table)[key]) for key in allowed}
        spec = canonical_spec(
            {"kind": kind, "experiment": "figure6", "jobs": 2, "config": config}
        )
        assert set(spec["config"]) == allowed  # no admitted value was a default
        served = dict(spec["config"])
        served.pop("coupling_intervals", None)
        AnalysisRequest.from_config(served)  # accepts every admitted key
        request = _request(spec)
        assert request.jobs == 2
        assert request.to_config() == {"jobs": 2, **served}

    def test_integer_windows_serve_the_float_result(self):
        from repro.service.runners import execute_job

        def result_of(window_s, stride_s):
            spec = canonical_spec(
                {
                    "kind": "analyze",
                    "experiment": "figure6",
                    "seed": 1,
                    "jobs": 1,
                    "config": {
                        "coupling_intervals": 1,
                        "timeline": True,
                        "window_s": window_s,
                        "stride_s": stride_s,
                    },
                }
            )
            return json.dumps(execute_job(spec)[0], sort_keys=True)

        assert result_of(2, 1) == result_of(2.0, 1.0)
        assert '"window_s": 2.0' in result_of(2, 1)


class TestStoreWrittenBefore:
    """``tests/data/job_store_v1``: a job store journal written before the
    field table existed (``jobs.jsonl``), with the raw submissions that made
    it and the keys they got then (``submissions.json``).  Its analyze and
    run_experiment jobs — an explicit default and integer durations among
    them — keep their keys; only simulate specs that spelled a default or
    an integer duration re-key."""

    DATA = pathlib.Path(__file__).parent / "data" / "job_store_v1"
    REKEYED = [{"ranks": 8, "metahosts": 2}, {"deadline_s": 5}]

    def rows(self):
        return json.loads((self.DATA / "submissions.json").read_text())

    def test_submissions_keep_their_keys(self):
        rekeyed = []
        for row in self.rows():
            raw = row["submission"]
            if job_key(canonical_spec(raw, default_jobs=1)) != row["key"]:
                assert raw["kind"] == "simulate", raw
                rekeyed.append(raw["config"])
        assert rekeyed == self.REKEYED

    def test_stored_specs_recanonicalize_to_their_keys(self, tmp_path):
        shutil.copy(self.DATA / "jobs.jsonl", tmp_path)
        with JobStore(str(tmp_path / "jobs.jsonl")) as store:
            records = store.records()
        assert [r.key for r in records] == [row["key"] for row in self.rows()]
        for record in records:
            if record.spec["kind"] != "simulate":
                assert job_key(canonical_spec(record.spec)) == record.key

    def test_service_restarts_over_the_journal(self, tmp_path, monkeypatch):
        import time

        import repro.service.app as app_module
        from repro.service import ServiceConfig, create_app

        monkeypatch.setattr(
            app_module, "execute_job", lambda spec: ({"kind": spec["kind"]}, None)
        )
        shutil.copy(self.DATA / "jobs.jsonl", tmp_path)
        config = ServiceConfig(
            store_path=str(tmp_path / "jobs.jsonl"), pool_workers=1, default_jobs=1
        )
        rows = self.rows()
        with create_app(config) as service:
            give_up = time.monotonic() + 30.0
            while any(job.status != DONE for job in service.jobs()):
                assert time.monotonic() < give_up, "recovered jobs never finished"
                time.sleep(0.01)
            assert sorted(job.key for job in service.jobs()) == sorted(r["key"] for r in rows)
            for row in rows:
                record, disposition = service.submit(row["submission"])
                if row["submission"].get("config") in self.REKEYED:
                    assert disposition == "created"
                else:
                    assert (record.key, disposition) == (row["key"], "cached")


class TestJobRecord:
    def test_payload_round_trip(self):
        record = JobRecord(
            key="abc",
            seq=3,
            spec={"kind": "simulate", "experiment": "imbalance"},
            status=DONE,
            attempts=2,
            submitted_at=1.5,
            started_at=2.0,
            finished_at=4.0,
            result={"integrity_ok": True},
            execution={"workers": 2},
        )
        assert JobRecord.from_payload(record.to_payload()) == record

    def test_summary_omits_result(self):
        record = JobRecord(
            key="abc", seq=1, spec={"kind": "analyze", "experiment": "figure6"},
            status=DONE, result={"text": "x" * 10000},
        )
        summary = record.summary()
        assert "result" not in summary
        assert summary["status"] == DONE
        assert summary["experiment"] == "figure6"


class TestJobStore:
    def _record(self, key, seq, status=ACCEPTED):
        return JobRecord(
            key=key, seq=seq, status=status,
            spec={"kind": "simulate", "experiment": "imbalance", "seed": seq},
        )

    def test_save_get_and_ordering(self, tmp_path):
        with JobStore(str(tmp_path / "jobs.jsonl")) as store:
            store.save(self._record("b", 2))
            store.save(self._record("a", 1))
            assert [r.key for r in store.records()] == ["a", "b"]
            assert store.get("a").seq == 1
            assert store.get("missing") is None
            assert store.next_seq() == 3

    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore(path) as store:
            store.save(self._record("done", 1, status=DONE))
            store.save(self._record("failed", 2, status=FAILED))
            store.save(self._record("queued", 3, status=ACCEPTED))
            store.save(self._record("inflight", 4, status=RUNNING))
        with JobStore(path) as reopened:
            assert len(reopened) == 4
            # Recovery set: accepted + running, in submission order.
            assert [r.key for r in reopened.pending()] == ["queued", "inflight"]

    def test_restart_restores_the_last_state_of_every_job(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        jobs = 20
        last = {}
        with JobStore(path) as store:
            for n in range(jobs):
                record = self._record(f"job{n:02d}", store.next_seq())
                store.save(record)
                # Every third job stops at accepted, every third at running.
                for status in (RUNNING, DONE)[: n % 3]:
                    record.status = status
                    record.attempts += status == RUNNING
                    if status == DONE:
                        record.result = {"text": f"result of {n}"}
                    store.save(record)
                last[record.key] = record.to_payload()
            assert store.next_seq() == jobs + 1
        with open(path, "rb") as handle:
            assert len(handle.readlines()) > jobs  # transitions were appended
        with JobStore(path) as reopened:
            # The records in memory carry no result; a done one reads back.
            assert {
                r.key: {
                    **r.to_payload(),
                    "result": reopened.result(r.key) if r.status == DONE else None,
                }
                for r in reopened.records()
            } == last
            assert [r.seq for r in reopened.records()] == list(range(1, jobs + 1))
            assert reopened.next_seq() == jobs + 1
            reopened.save(self._record("late", reopened.next_seq()))
            assert reopened.next_seq() == jobs + 2

    def test_single_writer_enforced(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        with JobStore(path):
            with pytest.raises(CheckpointLockError):
                JobStore(path)
        JobStore(path).close()  # released on close

    def test_foreign_journal_cells_ignored(self, tmp_path):
        from repro.resilience.checkpoint import CheckpointJournal

        path = str(tmp_path / "jobs.jsonl")
        with CheckpointJournal(path) as journal:
            journal.record({"experiment": "table2", "seed": 7}, {"text": "..."})
        with JobStore(path) as store:
            assert len(store) == 0
            store.save(self._record("a", 1))
        # The foreign cell is preserved alongside job cells.
        with CheckpointJournal(path) as journal:
            assert journal.get({"experiment": "table2", "seed": 7}) == {"text": "..."}
