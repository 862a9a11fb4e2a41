"""Tests for the transport-free ExperimentService core.

Execution is stubbed with a gated fake CampaignRunner so single-flight
and backpressure are exercised deterministically (no timing races);
one test runs the real simulator to pin down result-byte determinism.
"""

import threading

import pytest

from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignSummary,
    CellResult,
)
from repro.errors import SpecValidationError
from repro.serve.queue import QueueFull
from repro.serve.server import (
    OUTCOME_CACHED,
    OUTCOME_COALESCED,
    OUTCOME_QUEUED,
    ExperimentService,
    ServiceDraining,
    build_result_payload,
    encode_result,
)
from repro.serve.store import DONE, FAILED
from repro.spec import ScenarioSpec


def tiny_spec(**kw):
    kw.setdefault("heap_mb", 32)
    kw.setdefault("collector", "SemiSpace")
    kw.setdefault("input_scale", 0.2)
    return ScenarioSpec.for_experiment("_202_jess", **kw)


def fake_result(spec):
    cells = spec.cells()
    results = [
        CellResult(config=config, ok=True, attempts=1, wall_s=0.01,
                   payload={"schema": "repro-cell-v1", "cell": i})
        for i, config in enumerate(cells)
    ]
    summary = CampaignSummary(
        n_cells=len(cells), n_ok=len(cells), n_failed=0, n_cached=0,
        n_executed=len(cells), wall_s=0.01, workers=1,
    )
    return CampaignResult(cells=results, summary=summary)


class GatedRunner:
    """Stands in for CampaignRunner; blocks until the gate opens."""

    gate = None       # threading.Event, set per test
    started = None    # list of specs seen
    fail = False
    cache = None      # no cell cache, as with ``cache_dir=None``

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def run(self, campaign):
        GatedRunner.started.append(campaign)
        assert GatedRunner.gate.wait(10.0), "gate never opened"
        if GatedRunner.fail:
            raise RuntimeError("injected job failure")
        return fake_result(campaign)


@pytest.fixture
def gated(monkeypatch):
    GatedRunner.gate = threading.Event()
    GatedRunner.started = []
    GatedRunner.fail = False
    monkeypatch.setattr("repro.serve.pool.CampaignRunner",
                        GatedRunner)
    return GatedRunner


def make_service(tmp_path, **kw):
    kw.setdefault("queue_size", 2)
    kw.setdefault("job_workers", 1)
    kw.setdefault("use_cell_cache", False)
    kw.setdefault("result_dir", tmp_path / "results")
    return ExperimentService(**kw)


def wait_state(service, job_id, state, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.jobs.get(job_id)
        if job is not None and job.state == state:
            return job
        time.sleep(0.01)
    raise AssertionError(
        f"job never reached {state!r}; now "
        f"{service.jobs.get(job_id).state!r}"
    )


class TestSingleFlight:
    def test_duplicate_inflight_coalesces(self, tmp_path, gated):
        service = make_service(tmp_path).start()
        try:
            spec = tiny_spec()
            outcome_a, job_a = service.submit_spec(spec)
            assert outcome_a == OUTCOME_QUEUED
            # Same content => same job object, nothing new queued.
            outcome_b, job_b = service.submit_spec(tiny_spec())
            assert outcome_b == OUTCOME_COALESCED
            assert job_b is job_a
            gated.gate.set()
            wait_state(service, job_a.id, DONE)
            assert len(gated.started) == 1
            # A third submission is now a content-addressed hit.
            outcome_c, job_c = service.submit_spec(tiny_spec())
            assert outcome_c == OUTCOME_CACHED
            assert job_c.state == DONE
            assert len(gated.started) == 1
        finally:
            gated.gate.set()
            service.drain(5.0)

    def test_distinct_specs_each_execute(self, tmp_path, gated):
        gated.gate.set()
        service = make_service(tmp_path, queue_size=8).start()
        try:
            ids = set()
            for heap in (32, 48, 64):
                _, job = service.submit_spec(tiny_spec(heap_mb=heap))
                ids.add(job.id)
            assert len(ids) == 3
            for job_id in ids:
                wait_state(service, job_id, DONE)
            assert len(gated.started) == 3
        finally:
            service.drain(5.0)

    def test_result_bytes_in_store(self, tmp_path, gated):
        gated.gate.set()
        service = make_service(tmp_path).start()
        try:
            spec = tiny_spec()
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE)
            payload = service.results.get_json(job.id)
            assert payload["schema"] == "repro-result-v1"
            assert payload["spec_hash"] == spec.spec_hash()
            assert [c["cell"] for c in payload["cells"]] == [0]
        finally:
            service.drain(5.0)


class TestBackpressure:
    def test_full_queue_rejects(self, tmp_path, gated):
        service = make_service(tmp_path, queue_size=1).start()
        try:
            # Job A occupies the single worker; B fills the queue.
            _, job_a = service.submit_spec(tiny_spec(heap_mb=32))
            wait_state(service, job_a.id, "running")
            service.submit_spec(tiny_spec(heap_mb=48))
            with pytest.raises(QueueFull) as excinfo:
                service.submit_spec(tiny_spec(heap_mb=64))
            assert excinfo.value.retry_after_s >= 1.0
            # The rejected spec can be resubmitted once space frees.
            gated.gate.set()
            wait_state(service, job_a.id, DONE)
            outcome, job_c = service.submit_spec(tiny_spec(heap_mb=64))
            assert outcome == OUTCOME_QUEUED
            wait_state(service, job_c.id, DONE)
        finally:
            gated.gate.set()
            service.drain(5.0)

    def test_rejected_job_is_not_left_queued(self, tmp_path, gated):
        service = make_service(tmp_path, queue_size=1).start()
        try:
            _, job_a = service.submit_spec(tiny_spec(heap_mb=32))
            wait_state(service, job_a.id, "running")
            service.submit_spec(tiny_spec(heap_mb=48))
            with pytest.raises(QueueFull):
                service.submit_spec(tiny_spec(heap_mb=64))
            rejected = service.jobs.get(
                tiny_spec(heap_mb=64).spec_hash()
            )
            assert rejected.state == FAILED
            assert "queue full" in rejected.error
        finally:
            gated.gate.set()
            service.drain(5.0)


class TestFailureAndRetry:
    def test_failed_job_records_error_and_retries(self, tmp_path,
                                                  gated):
        gated.gate.set()
        gated.fail = True
        service = make_service(tmp_path).start()
        try:
            spec = tiny_spec()
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, FAILED)
            assert "injected job failure" in job.error
            assert job.attempts == 1
            # Resubmission retries rather than serving the failure.
            gated.fail = False
            outcome, job2 = service.submit_spec(tiny_spec())
            assert outcome == OUTCOME_QUEUED
            assert job2 is job
            wait_state(service, job.id, DONE)
            assert job.attempts == 2
        finally:
            service.drain(5.0)


class TestDrain:
    def test_drain_finishes_queued_work(self, tmp_path, gated):
        service = make_service(tmp_path, queue_size=4).start()
        spec_a, spec_b = tiny_spec(heap_mb=32), tiny_spec(heap_mb=48)
        _, job_a = service.submit_spec(spec_a)
        _, job_b = service.submit_spec(spec_b)
        service.begin_drain()
        with pytest.raises(ServiceDraining):
            service.submit_spec(tiny_spec(heap_mb=64))
        gated.gate.set()
        assert service.drain(10.0) is True
        assert job_a.state == DONE
        assert job_b.state == DONE
        assert service.health()["status"] == "draining"


class TestValidation:
    def test_submit_body_collects_every_problem(self, tmp_path):
        service = make_service(tmp_path)
        body = (b'{"schema": "repro-scenario", "benchmark": "nope",'
                b' "vms": ["alien"], "heap_mb": -4}')
        with pytest.raises(SpecValidationError) as excinfo:
            service.submit_body(body, "application/json")
        problems = excinfo.value.problems
        assert any("nope" in p for p in problems)
        assert any("alien" in p for p in problems)
        assert any("heap_mb" in p for p in problems)

    def test_submit_body_toml(self, tmp_path, gated):
        gated.gate.set()
        service = make_service(tmp_path).start()
        try:
            body = (b'[axes]\nbenchmark = "_202_jess"\n'
                    b'collector = "SemiSpace"\nheap_mb = 32\n'
                    b'input_scale = 0.2\n')
            outcome, job = service.submit_body(
                body, "application/toml"
            )
            assert outcome == OUTCOME_QUEUED
            assert job.id == tiny_spec().spec_hash()
        finally:
            service.drain(5.0)


class TestMetrics:
    def test_snapshot_counts_and_derived(self, tmp_path, gated):
        service = make_service(tmp_path).start()
        try:
            _, job = service.submit_spec(tiny_spec())
            service.submit_spec(tiny_spec())      # coalesced
            gated.gate.set()
            wait_state(service, job.id, DONE)
            service.submit_spec(tiny_spec())      # cached
            snap = service.metrics_snapshot()
            counters = snap["counters"]
            assert counters["serve.jobs_executed"] == 1
            assert counters["serve.jobs_coalesced"] == 1
            assert counters["serve.result_cache_hits"] == 1
            assert counters["serve.cells_executed"] == 1
            derived = snap["derived"]
            assert derived["dedup_rate"] == pytest.approx(2 / 3)
            assert derived["queue_depth"] == 0
            assert "serve.job_wall_s" in snap["histograms"]
        finally:
            service.drain(5.0)


class TestRealExecutionDeterminism:
    def test_service_bytes_match_direct_campaign(self, tmp_path):
        """The stored payload is a pure function of the spec: a direct
        in-process campaign over the same spec encodes byte-identically
        to what the service stored."""
        spec = tiny_spec()
        service = make_service(tmp_path).start()
        try:
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE, timeout=60.0)
            served = service.results.get_bytes(job.id)
        finally:
            service.drain(10.0)
        direct = CampaignRunner(workers=1).run(spec)
        expected = encode_result(build_result_payload(spec, direct))
        assert served == expected
