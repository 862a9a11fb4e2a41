"""Distributed tracing: contexts, records, spools, Chrome merge."""

import json

import pytest

from repro.obs.distributed import (
    ROLE_SERVICE,
    ROLE_WORKER,
    SPOOL_SCHEMA,
    TraceContext,
    merge_job_trace,
    new_trace_id,
    read_spool,
    span_record,
    wall_span_records,
    write_spool,
)
from repro.obs.tracer import Tracer

JOB = "a" * 64


class TestTraceContext:
    def test_for_job_derives_ids(self):
        ctx = TraceContext.for_job(JOB)
        assert ctx.job_id == JOB
        assert ctx.trace_id.startswith(JOB[:12] + "-")
        assert ctx.parent == f"{ctx.trace_id}/job"

    def test_round_trip(self):
        ctx = TraceContext.for_job(JOB)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_from_dict_rejects_empty(self):
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({}) is None

    def test_trace_ids_distinguish_executions(self):
        assert new_trace_id(JOB) != new_trace_id(JOB)


class TestSpanRecord:
    def test_fields(self):
        record = span_record("engine", "phases", 100.0, 0.5,
                             role=ROLE_WORKER, pid=42, heap_mb=32)
        assert record == {
            "name": "engine", "track": "phases",
            "start_unix": 100.0, "dur_s": 0.5,
            "pid": 42, "role": ROLE_WORKER,
            "args": {"heap_mb": 32},
        }

    def test_negative_duration_clamped(self):
        record = span_record("x", "t", 1.0, -0.25, role=ROLE_SERVICE)
        assert record["dur_s"] == 0.0

    def test_args_key_omitted_when_empty(self):
        assert "args" not in span_record("x", "t", 0.0, 0.0,
                                         role=ROLE_SERVICE)


class TestWallSpanRecords:
    def test_rebases_wall_spans_onto_unix_time(self):
        tracer = Tracer()
        tracer.add_wall_span("engine", "phases", 1.0, 2.0, vm="jikes")
        tracer.add_sim_span("gc", "gc", 0.0, 1.0)  # sim: excluded
        (record,) = wall_span_records(tracer)
        assert record["name"] == "engine"
        assert record["start_unix"] == pytest.approx(
            tracer.epoch_unix + 1.0)
        assert record["dur_s"] == pytest.approx(2.0)
        assert record["args"] == {"vm": "jikes"}
        assert record["role"] == ROLE_WORKER


class TestSpool:
    def test_write_read_round_trip(self, tmp_path):
        ctx = TraceContext.for_job(JOB)
        records = [span_record("engine", "phases", 10.0, 1.0,
                               role=ROLE_WORKER, pid=7)]
        path = write_spool(tmp_path / "deep" / "key.spans", ctx,
                           records)
        assert path.exists()
        assert read_spool(path) == records
        doc = json.loads(path.read_text())
        assert doc["schema"] == SPOOL_SCHEMA
        assert doc["job_id"] == JOB
        assert doc["trace_id"] == ctx.trace_id

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_spool(tmp_path / "nope.spans") == []

    def test_torn_file_reads_empty(self, tmp_path):
        torn = tmp_path / "torn.spans"
        torn.write_text('{"schema": "repro-job-spa')
        assert read_spool(torn) == []

    def test_wrong_schema_reads_empty(self, tmp_path):
        other = tmp_path / "other.spans"
        other.write_text(json.dumps({"schema": "something-else",
                                     "spans": [{"name": "x"}]}))
        assert read_spool(other) == []

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_spool(tmp_path / "key.spans", TraceContext.for_job(JOB),
                    [])
        assert [p.name for p in tmp_path.iterdir()] == ["key.spans"]

    def test_failed_write_leaves_no_tmp_file(self, tmp_path):
        target = tmp_path / "key.spans"
        target.mkdir()  # renaming a file onto a directory fails
        with pytest.raises(OSError):
            write_spool(target, TraceContext.for_job(JOB), [])
        assert [p.name for p in tmp_path.iterdir()] == ["key.spans"]


class TestMergeJobTrace:
    def events(self):
        service = [
            span_record("queue wait", "service", 100.0, 0.5,
                        role=ROLE_SERVICE, pid=1),
            span_record("store write", "service", 103.0, 0.1,
                        role=ROLE_SERVICE, pid=1),
        ]
        worker = [
            span_record("engine", "phases", 100.5, 2.5,
                        role=ROLE_WORKER, pid=2),
        ]
        return merge_job_trace(JOB, service, worker, trace_id="t-1")

    def test_empty_inputs_merge_to_empty(self):
        assert merge_job_trace(JOB, [], []) == []

    def test_per_pid_process_rows(self):
        names = {e["args"]["name"] for e in self.events()
                 if e["name"] == "process_name"}
        assert names == {"service pid 1", "worker pid 2"}

    def test_x_events_span_both_pids(self):
        xs = [e for e in self.events() if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {1, 2}

    def test_timestamps_rebased_to_earliest_span(self):
        xs = {e["name"]: e for e in self.events() if e["ph"] == "X"}
        assert xs["queue wait"]["ts"] == 0
        assert xs["engine"]["ts"] == pytest.approx(0.5e6)
        assert xs["store write"]["ts"] == pytest.approx(3.0e6)
        assert xs["engine"]["dur"] == pytest.approx(2.5e6)

    def test_job_metadata_event(self):
        (meta,) = [e for e in self.events()
                   if e["name"] == "repro_job_trace"]
        assert meta["args"]["job_id"] == JOB
        assert meta["args"]["trace_id"] == "t-1"
        assert meta["args"]["base_unix"] == 100.0
        assert meta["args"]["n_spans"] == 3

    def test_thread_rows_per_pid_track(self):
        threads = [(e["pid"], e["args"]["name"])
                   for e in self.events()
                   if e["name"] == "thread_name"]
        assert (1, "service") in threads
        assert (2, "phases") in threads

    def test_events_json_serializable(self):
        json.dumps(self.events())

    def test_role_defaulted_into_args(self):
        xs = {e["name"]: e for e in self.events() if e["ph"] == "X"}
        assert xs["engine"]["args"]["role"] == ROLE_WORKER
        assert xs["queue wait"]["args"]["role"] == ROLE_SERVICE
