"""End-to-end distributed tracing through the HTTP service.

Traced servers (``job_trace=True``) must produce one merged
Chrome/Perfetto trace per job — service-side validate/queue spans plus
the worker's lease, campaign and store-write spans — while leaving the
served result bytes byte-identical to an untraced run.  Untraced
servers must behave exactly as before: no trace link, 404 on the trace
route, no spool files.
"""

import pytest

from repro.obs.distributed import TraceContext, span_record, write_spool
from repro.obs.tracer import Tracer
from repro.serve import ServiceClient, ServiceError
from repro.serve.server import ServiceServer
from tests.obs.test_exposition import parse_exposition

SPEC_TOML = (
    '[axes]\nbenchmark = "_202_jess"\ncollector = "SemiSpace"\n'
    'heap_mb = 32\ninput_scale = 0.2\n'
)


def make_server(tmp_path, sub, **kwargs):
    server = ServiceServer(
        host="127.0.0.1", port=0, queue_size=4, job_workers=1,
        cache_dir=tmp_path / sub / "cells",
        result_dir=tmp_path / sub / "results",
        **kwargs,
    )
    server.start()
    return server


@pytest.fixture
def traced(tmp_path):
    server = make_server(tmp_path, "traced", job_trace=True)
    yield server
    server.stop(drain_timeout=10.0)


@pytest.fixture
def client(traced):
    return ServiceClient(traced.url, timeout_s=10.0)


def run_job(client):
    job = client.submit_bytes(SPEC_TOML, fmt="toml")
    return client.wait(job["id"], timeout_s=60.0)


class TestTracedJob:
    def test_job_snapshot_links_trace(self, client):
        job = run_job(client)
        assert job["state"] == "done"
        assert job["trace"] == f"/v1/jobs/{job['id']}/trace"

    def test_merged_trace_has_service_and_worker_spans(self, client):
        job = run_job(client)
        events = client.job_trace(job["id"])
        xs = {e["name"] for e in events if e["ph"] == "X"}
        # service-side lifecycle spans...
        assert "validate" in xs
        assert "queue wait" in xs
        # ...plus the worker's spans, all from the one job tracer
        assert "lease acquire" in xs
        assert "store write" in xs
        assert "campaign" in xs
        assert any("_202_jess" in name for name in xs)

    def test_trace_is_chrome_schema(self, client):
        job = run_job(client)
        events = client.job_trace(job["id"])
        assert events, "traced job produced no events"
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_trace_metadata_names_the_job(self, client):
        job = run_job(client)
        events = client.job_trace(job["id"])
        (meta,) = [e for e in events if e["name"] == "repro_job_trace"]
        assert meta["args"]["job_id"] == job["id"]
        assert meta["args"]["trace_id"]

    def test_spool_file_beside_result(self, traced, client):
        job = run_job(client)
        spool = traced.service.results.trace_spool_for(job["id"])
        assert spool.exists()
        assert traced.service.results.path_for(job["id"]).exists()

    def test_unknown_job_trace_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job_trace("0" * 64)
        assert excinfo.value.status == 404


class TestByteIdentity:
    def test_traced_result_bytes_match_untraced(self, tmp_path):
        baseline = make_server(tmp_path, "plain")
        traced = make_server(tmp_path, "traced2", job_trace=True)
        try:
            plain_client = ServiceClient(baseline.url, timeout_s=10.0)
            traced_client = ServiceClient(traced.url, timeout_s=10.0)
            plain_job = run_job(plain_client)
            traced_job = run_job(traced_client)
            assert plain_job["id"] == traced_job["id"]
            assert (plain_client.result_bytes(plain_job["id"])
                    == traced_client.result_bytes(traced_job["id"]))
        finally:
            baseline.stop(drain_timeout=10.0)
            traced.stop(drain_timeout=10.0)


class TestTracingDisabled:
    def test_no_trace_link_no_spool_and_404(self, tmp_path):
        server = make_server(tmp_path, "off")
        try:
            client = ServiceClient(server.url, timeout_s=10.0)
            job = run_job(client)
            assert job["state"] == "done"
            assert job["trace"] is None
            assert not server.service.results.trace_spool_for(
                job["id"]).exists()
            with pytest.raises(ServiceError) as excinfo:
                client.job_trace(job["id"])
            assert excinfo.value.status == 404
        finally:
            server.stop(drain_timeout=10.0)

    @pytest.mark.parametrize("job_trace", [False, True],
                             ids=["off", "on"])
    def test_tracing_hooks_run_only_when_tracing_is_on(
            self, tmp_path, monkeypatch, job_trace):
        """Tracing off costs nothing: a real job never builds a trace
        context, records a service span, builds the worker's tracer or
        writes a spool.  The traced run proves the counters sit on the
        live call sites."""
        hooks = {
            "repro.serve.server.TraceContext.for_job":
                TraceContext.for_job,
            "repro.serve.server.span_record": span_record,
            "repro.serve.pool.Tracer": Tracer,
            "repro.serve.pool.write_spool": write_spool,
        }
        calls = dict.fromkeys(hooks, 0)
        for target, original in hooks.items():
            def counted(*args, _target=target, _original=original,
                        **kwargs):
                calls[_target] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(target, counted)
        server = make_server(tmp_path, "counted", job_trace=job_trace)
        try:
            job = run_job(ServiceClient(server.url, timeout_s=10.0))
            assert job["state"] == "done"
        finally:
            server.stop(drain_timeout=10.0)
        if job_trace:
            assert all(calls.values()), calls
        else:
            assert calls == dict.fromkeys(hooks, 0)


class TestMetricsExposition:
    def test_json_remains_the_default(self, client):
        snapshot = client.metrics()
        assert "counters" in snapshot
        assert "derived" in snapshot

    def test_prometheus_on_accept_text_plain(self, client):
        run_job(client)
        status, body, headers = client._request(
            "/v1/metrics", accept="text/plain")
        assert status == 200
        assert headers.get("Content-Type").startswith("text/plain")
        assert "version=0.0.4" in headers.get("Content-Type")
        samples, types = parse_exposition(body.decode("utf-8"))
        assert samples["serve_jobs_executed"] >= 1
        assert types["serve_jobs_executed"] == "counter"
        assert types["serve_queue_depth"] == "gauge"
        assert 'serve_job_wall_s{quantile="0.5"}' in samples

    def test_gauges_computed_at_scrape_time(self, client):
        snapshot = client.metrics()
        assert snapshot["derived"]["queue_depth"] == 0
        assert snapshot["derived"]["inflight"] == 0
        assert snapshot["gauges"]["serve.queue_depth"] == 0


class TestProcessModeTrace:
    def test_worker_process_spans_carry_their_own_pid(self, tmp_path):
        server = make_server(tmp_path, "proc", job_trace=True,
                             worker_mode="process")
        try:
            client = ServiceClient(server.url, timeout_s=30.0)
            job = client.submit_bytes(SPEC_TOML, fmt="toml")
            job = client.wait(job["id"], timeout_s=120.0)
            assert job["state"] == "done"
            events = client.job_trace(job["id"])
            xs = [e for e in events if e["ph"] == "X"]
            pids = {e["pid"] for e in xs}
            assert len(pids) == 2, f"expected 2 pids, got {pids}"
            rows = {e["args"]["name"] for e in events
                    if e["name"] == "process_name"}
            assert any(r.startswith("service pid ") for r in rows)
            assert any(r.startswith("worker pid ") for r in rows)
            # wall-clock alignment: worker spans sit inside the
            # service-side job span's window
            engine = [e for e in xs
                      if e["args"].get("role") == "worker"]
            job_span = [e for e in xs if e["name"].startswith("job ")]
            assert engine and job_span
            lo = job_span[0]["ts"]
            hi = lo + job_span[0]["dur"]
            for e in engine:
                assert lo - 1e6 <= e["ts"] <= hi + 1e6
        finally:
            server.stop(drain_timeout=30.0)
