"""The service smoke run: a traced server on a real socket, the
quickstart scenario submitted twice through ``repro submit``, and every
check made on what it served; then ``repro serve`` in its own process,
drained by SIGTERM with the quickstart job in flight.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.runner import CampaignRunner
from repro.cli import main
from repro.serve import ServiceClient
from repro.serve.server import (
    ServiceServer,
    build_result_payload,
    encode_result,
)
from repro.serve.store import ResultStore
from repro.spec import ScenarioSpec
from tests.obs.test_exposition import parse_exposition

REPO = Path(__file__).resolve().parents[2]
QUICKSTART = REPO / "examples" / "scenarios" / "quickstart.toml"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``(client, job id, served file, directory)`` after one
    ``submit --wait --output`` and one resubmission."""
    tmp = tmp_path_factory.mktemp("smoke")
    server = ServiceServer(
        host="127.0.0.1", port=0, queue_size=4, job_workers=1,
        use_cell_cache=False, result_dir=tmp / "results", job_trace=True,
    )
    server.start()
    try:
        served = tmp / "served.json"
        submit = ["submit", str(QUICKSTART), "--server", server.url]
        assert main(submit + ["--wait", "--output", str(served)]) == 0
        assert main(submit) == 0
        job_id = ScenarioSpec.from_file(QUICKSTART).spec_hash()
        yield ServiceClient(server.url, timeout_s=10.0), job_id, served, tmp
    finally:
        server.stop(drain_timeout=10.0)


def test_served_bytes_equal_a_direct_run(smoke):
    _, _, served, _ = smoke
    spec = ScenarioSpec.from_file(QUICKSTART)
    direct = CampaignRunner(workers=1, cache_dir=None).run(spec)
    assert served.read_bytes() == encode_result(
        build_result_payload(spec, direct)
    )


def test_resubmission_is_served_from_the_result_store(smoke):
    client, _, _, _ = smoke
    metrics = client.metrics()
    assert metrics["counters"]["serve.jobs_executed"] == 1
    assert metrics["counters"]["serve.result_cache_hits"] == 1
    assert metrics["derived"]["queue_depth"] == 0


def test_prometheus_families_and_samples(smoke):
    client, _, _, _ = smoke
    status, body, _ = client._request("/v1/metrics", accept="text/plain")
    assert status == 200
    # parse_exposition also requires every sample value to be a float.
    samples, types = parse_exposition(body.decode("utf-8"))
    assert set(types.values()) <= {"counter", "gauge", "summary"}, types
    assert types["serve_jobs_executed"] == "counter"
    assert samples["serve_jobs_executed"] == 1
    assert types["serve_queue_depth"] == "gauge"
    assert any(name.startswith("serve_job_wall_s{quantile=")
               for name in samples)


def test_job_trace_fetched_by_the_cli(smoke):
    client, job_id, _, tmp = smoke
    path = tmp / "cli_trace.json"
    assert main(["jobs", job_id, "--server", client.base_url,
                 "--trace", str(path)]) == 0
    events = json.loads(path.read_text())
    assert events == client.job_trace(job_id)
    spans = [e for e in events if e.get("ph") == "X"]
    for event in spans:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            assert key in event, (key, event)
    names = {e["name"] for e in spans}
    for expected in ("validate", "queue wait", "lease acquire",
                     "store write", "campaign"):
        assert expected in names
    rows = {e["args"]["name"] for e in events
            if e.get("name") == "process_name"}
    assert any(row.startswith("service pid ") for row in rows), rows
    (meta,) = [e for e in events if e.get("name") == "repro_job_trace"]
    assert meta["args"]["trace_id"]


def test_sigterm_drains_the_in_flight_job(smoke, tmp_path):
    """SIGTERM with a job queued or running: the job still finishes
    into the store, the final metrics are logged and the exit is 0."""
    _, _, served, _ = smoke
    results = tmp_path / "results"
    log = tmp_path / "serve.log"
    with log.open("w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--verbose", "serve",
             "--port", "0", "--job-workers", "1", "--no-cache",
             "--result-dir", str(results)],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        try:
            url = re.search(r"listening on (\S+)",
                            proc.stdout.readline()).group(1)
            job = ServiceClient(url, timeout_s=10.0).submit_file(QUICKSTART)
            assert job["state"] in ("queued", "running")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0, log.read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    assert ResultStore(results).get_bytes(job["id"]) == served.read_bytes()
    records = {}
    for line in log.read_text().splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            records[record["event"]] = record
    assert "serve.final_metrics" in records
    assert records["serve.stopped"]["clean"] is True
