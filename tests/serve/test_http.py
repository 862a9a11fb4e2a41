"""HTTP-layer tests: routes, status codes, headers, drain behavior.

These bind a real socket (ephemeral port) and exercise the service
through :class:`~repro.serve.client.ServiceClient`; execution is the
real simulator on a reduced-input single-cell spec (~0.3 s per run).
"""

import json

import pytest

from repro.serve import ServiceBusy, ServiceClient, ServiceError
from repro.serve.server import ServiceServer
from repro.spec import ScenarioSpec

SPEC_TOML = (
    '[axes]\nbenchmark = "_202_jess"\ncollector = "SemiSpace"\n'
    'heap_mb = 32\ninput_scale = 0.2\n'
)


def tiny_spec():
    return ScenarioSpec.for_experiment(
        "_202_jess", collector="SemiSpace", heap_mb=32,
        input_scale=0.2,
    )


@pytest.fixture
def server(tmp_path):
    server = ServiceServer(
        host="127.0.0.1", port=0, queue_size=4, job_workers=1,
        cache_dir=tmp_path / "cells", result_dir=tmp_path / "results",
    )
    server.start()
    yield server
    server.stop(drain_timeout=10.0)


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout_s=10.0)


class TestRoutes:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_capacity"] == 4
        assert "uptime_s" in health

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("/v1/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("0" * 64)
        assert excinfo.value.status == 404

    def test_unknown_result_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.result("0" * 64)
        assert excinfo.value.status == 404

    def test_empty_body_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_bytes(b"")
        assert excinfo.value.status == 400

    def test_invalid_spec_400_lists_every_problem(self, client):
        body = json.dumps({
            "schema": "repro-scenario",
            "benchmark": "bogus",
            "vms": ["alien"],
            "heap_mb": -1,
        })
        with pytest.raises(ServiceError) as excinfo:
            client.submit_bytes(body, fmt="json")
        assert excinfo.value.status == 400
        problems = excinfo.value.body["problems"]
        assert len(problems) == 3

    def test_submit_poll_fetch_cycle(self, client):
        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        assert job["outcome"] in ("queued", "cached")
        final = client.wait(job["id"], timeout_s=60.0)
        assert final["state"] == "done"
        assert final["attempts"] >= 1
        assert final["wall_s"] >= 0.0
        assert final["result"] == f"/v1/results/{job['id']}"
        result = client.result(job["id"])
        assert result["schema"] == "repro-result-v1"
        assert result["spec_hash"] == job["id"]
        cell = result["cells"][0]
        assert cell["config"]["benchmark"] == "_202_jess"

    def test_job_id_is_spec_hash(self, client):
        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        assert job["id"] == tiny_spec().spec_hash()

    def test_jobs_listing(self, client):
        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        client.wait(job["id"], timeout_s=60.0)
        listed = client.jobs()
        assert any(j["id"] == job["id"] for j in listed)

    def test_resubmission_after_done_is_cached_200(self, client):
        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        client.wait(job["id"], timeout_s=60.0)
        again = client.submit_bytes(SPEC_TOML, fmt="toml")
        assert again["outcome"] == "cached"
        assert again["state"] == "done"

    def test_metrics_endpoint(self, client):
        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        client.wait(job["id"], timeout_s=60.0)
        metrics = client.metrics()
        assert metrics["counters"]["serve.jobs_executed"] >= 1
        assert metrics["counters"]["serve.http_requests"] >= 2
        assert "serve.request_s.jobs_post" in metrics["histograms"]
        assert metrics["derived"]["queue_depth"] == 0


class TestDrainOverHTTP:
    def test_draining_rejects_posts_but_answers_gets(self, tmp_path):
        server = ServiceServer(
            host="127.0.0.1", port=0, queue_size=4, job_workers=1,
            use_cell_cache=False, result_dir=tmp_path / "results",
        )
        server.start()
        client = ServiceClient(server.url, timeout_s=10.0)
        try:
            job = client.submit_bytes(SPEC_TOML, fmt="toml")
            client.wait(job["id"], timeout_s=60.0)
            server.service.begin_drain()
            with pytest.raises(ServiceError) as excinfo:
                client.submit_bytes(SPEC_TOML, fmt="toml")
            assert excinfo.value.status == 503
            # Reads still work while draining.
            assert client.healthz()["status"] == "draining"
            assert client.job(job["id"])["state"] == "done"
            assert client.result(job["id"])["spec_hash"] == job["id"]
        finally:
            server.stop(drain_timeout=10.0)

    def test_stop_is_clean_with_empty_queue(self, tmp_path):
        server = ServiceServer(
            host="127.0.0.1", port=0, queue_size=4, job_workers=2,
            use_cell_cache=False, result_dir=tmp_path / "results",
        )
        server.start()
        assert server.stop(drain_timeout=10.0) is True


class TestClientErrors:
    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=2.0)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert "cannot reach" in str(excinfo.value)

    def test_service_busy_carries_retry_hint(self):
        err = ServiceBusy(429, {"error": "full"}, 3.0)
        assert err.retry_after_s == 3.0
        assert err.status == 429

    @staticmethod
    def busy_client(monkeypatch, n_busy):
        """A client whose first *n_busy* submissions get a 429 with a
        zero ``Retry-After``; returns ``(client, calls)``."""
        calls = []

        def fake_json(path, data=None, content_type=None):
            calls.append(path)
            if len(calls) <= n_busy:
                raise ServiceBusy(429, {"error": "full"}, 0.0)
            return {"id": "job", "outcome": "queued"}

        client = ServiceClient("http://127.0.0.1:9", timeout_s=1.0)
        monkeypatch.setattr(client, "_json", fake_json)
        return client, calls

    def test_zero_retry_after_is_retried_until_accepted(self,
                                                         monkeypatch):
        client, calls = self.busy_client(monkeypatch, n_busy=2)
        job = client.submit_bytes(SPEC_TOML, fmt="toml", retry=True,
                                  max_wait_s=5.0)
        assert job["outcome"] == "queued"
        assert len(calls) == 3

    def test_zero_retry_after_backs_off_until_the_deadline(
            self, monkeypatch):
        from repro.serve.client import MIN_RETRY_BACKOFF_S

        client, calls = self.busy_client(monkeypatch, n_busy=10**6)
        with pytest.raises(ServiceBusy):
            client.submit_bytes(SPEC_TOML, fmt="toml", retry=True,
                                max_wait_s=0.2)
        # Retried, but spaced by the floor rather than spinning.
        assert 2 <= len(calls) <= 0.2 / MIN_RETRY_BACKOFF_S + 2


class TestRetryAfterParsing:
    """``Retry-After`` may be delta-seconds or an HTTP-date (RFC 9110);
    neither form may crash the client."""

    def parse(self, value, **kw):
        from repro.serve.client import parse_retry_after

        return parse_retry_after(value, **kw)

    def test_delta_seconds(self):
        assert self.parse("3") == 3.0
        assert self.parse("0") == 0.0
        assert self.parse(" 2.5 ") == 2.5

    def test_negative_delta_clamps_to_zero(self):
        assert self.parse("-7") == 0.0

    def test_http_date_in_the_future(self):
        from datetime import datetime, timedelta, timezone

        now = datetime(2025, 8, 1, 12, 0, 0, tzinfo=timezone.utc)
        when = now + timedelta(seconds=90)
        header = when.strftime("%a, %d %b %Y %H:%M:%S GMT")
        assert self.parse(header, now=now) == pytest.approx(90.0)

    def test_http_date_in_the_past_clamps_to_zero(self):
        assert self.parse("Fri, 01 Aug 2025 12:00:00 GMT") == 0.0

    def test_garbage_falls_back_to_default(self):
        from repro.serve.client import DEFAULT_RETRY_AFTER_S

        for value in ("soon", "", None, "Fri, 99 Zzz", "1e"):
            assert self.parse(value) == DEFAULT_RETRY_AFTER_S

    def test_429_with_http_date_raises_busy_not_valueerror(
            self, monkeypatch):
        """The original bug: ``float("Fri, ...")`` raised an uncaught
        ``ValueError`` out of ``_request`` instead of ServiceBusy."""
        import io
        import urllib.error
        import urllib.request

        def fake_urlopen(req, timeout=None):
            raise urllib.error.HTTPError(
                req.full_url, 429, "Too Many Requests",
                {"Retry-After": "Fri, 01 Aug 2025 12:00:00 GMT"},
                io.BytesIO(b'{"error": "queue full"}'),
            )

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:9", timeout_s=1.0)
        with pytest.raises(ServiceBusy) as excinfo:
            client.healthz()
        assert excinfo.value.retry_after_s == 0.0  # date is long past


class TestProvenanceOverHttp:
    def test_done_job_carries_provenance_summary(self, client):
        from repro.provenance import code_digest

        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        job = client.wait(job["id"], timeout_s=60.0)
        prov = job["provenance"]
        assert prov["code_digest"] == code_digest()
        assert prov["cache_version"] is not None
        assert prov["written_unix"] > 0

    def test_cached_resubmission_carries_provenance(self, client):
        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        client.wait(job["id"], timeout_s=60.0)
        again = client.submit_bytes(SPEC_TOML, fmt="toml")
        assert again["outcome"] == "cached"
        assert again["provenance"]["code_digest"]

    def test_result_headers_expose_code_digest(self, server, client):
        from repro import __version__
        from repro.provenance import code_digest

        job = client.submit_bytes(SPEC_TOML, fmt="toml")
        client.wait(job["id"], timeout_s=60.0)
        _, body, headers = client._request(f"/v1/results/{job['id']}")
        assert headers["X-Repro-Code-Digest"] == code_digest()
        assert headers["X-Repro-Version"] == __version__
        # Headers are metadata only: the body is the stored bytes.
        assert body == server.service.results.get_bytes(job["id"])

    def test_legacy_result_serves_without_headers(self, server,
                                                  client):
        key = "ab" * 32
        server.service.results.put_bytes(key, b'{"legacy": true}')
        _, body, headers = client._request(f"/v1/results/{key}")
        assert body == b'{"legacy": true}'
        assert headers.get("X-Repro-Code-Digest") is None
        assert headers.get("X-Repro-Version") is None
