"""Tests for the job runner, the worker pool and cross-instance
single-flight.

The in-process single-flight tests live in test_service.py; this file
exercises the worker fleet: the lease protocol between *two service
instances sharing one result store*, stale-lease takeover, the job
runner on its own, and the process worker pool end-to-end — including
a worker killed mid-job.
"""

import os
import pickle
import threading
import time

import pytest

from repro.campaign.runner import CampaignRunner
from repro.errors import ConfigurationError
from repro.obs.distributed import (
    TraceContext,
    read_spool,
    span_record,
    write_spool,
)
from repro.serve.lease import try_acquire
from repro.serve.pool import JobRunner, WorkerPool
from repro.serve.server import (
    ExperimentService,
    build_result_payload,
    encode_result,
)
from repro.serve.store import DONE, FAILED, ResultStore
from tests.serve.test_service import (
    gated,  # noqa: F401 - fixture reused across files
    tiny_spec,
    wait_state,
)


def make_service(tmp_path, **kw):
    kw.setdefault("queue_size", 4)
    kw.setdefault("job_workers", 1)
    kw.setdefault("use_cell_cache", False)
    kw.setdefault("result_dir", tmp_path / "results")
    return ExperimentService(**kw)


def counters_of(service):
    return service.metrics_snapshot()["counters"]


class TestCrossInstanceSingleFlight:
    def test_racing_duplicate_executes_exactly_once(self, tmp_path,
                                                    gated):  # noqa: F811
        """Two instances, one store, the same spec submitted to both:
        one runs it, the other coalesces on the lease."""
        store_dir = tmp_path / "shared"
        a = make_service(tmp_path, result_dir=store_dir).start()
        b = make_service(tmp_path, result_dir=store_dir).start()
        try:
            spec = tiny_spec()
            _, job_a = a.submit_spec(spec)
            _, job_b = b.submit_spec(tiny_spec())
            # Both workers are in: one inside the gated runner, the
            # other polling the lease (both jobs report running).
            wait_state(a, job_a.id, "running")
            wait_state(b, job_b.id, "running")
            gated.gate.set()
            wait_state(a, job_a.id, DONE)
            wait_state(b, job_b.id, DONE)
            assert len(gated.started) == 1
            executed = [
                counters_of(s).get("serve.jobs_executed", 0)
                for s in (a, b)
            ]
            leased = [
                counters_of(s).get("serve.jobs_lease_coalesced", 0)
                for s in (a, b)
            ]
            assert sorted(executed) == [0, 1]
            assert sorted(leased) == [0, 1]
            # Winner and loser are opposite instances.
            assert executed.index(1) != leased.index(1)
            # No lease file left behind.
            assert not list(store_dir.rglob("*.lease"))
        finally:
            gated.gate.set()
            a.drain(5.0)
            b.drain(5.0)

    def test_peer_result_mid_wait_serves_without_executing(
            self, tmp_path, gated):  # noqa: F811
        """A job blocked on a foreign lease completes as soon as the
        lease holder's result bytes appear — no execution here."""
        service = make_service(tmp_path).start()
        try:
            spec = tiny_spec()
            job_id = spec.spec_hash()
            # A live foreign lease (fresh mtime, 30 s TTL) the service
            # can neither acquire nor steal.
            lease_path = service.results.lease_path_for(job_id)
            lease_path.parent.mkdir(parents=True, exist_ok=True)
            lease_path.write_text("{}")
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, "running")
            time.sleep(0.15)  # let it poll the lease a few times
            assert job.state == "running"
            # The "peer" finishes: result bytes land in the store.
            peer_bytes = b'{"schema":"repro-result-v1","peer":true}'
            service.results.put_bytes(job_id, peer_bytes)
            wait_state(service, job.id, DONE)
            assert gated.started == []  # never executed locally
            assert counters_of(service)[
                "serve.jobs_lease_coalesced"] == 1
            assert service.results.get_bytes(job_id) == peer_bytes
        finally:
            gated.gate.set()
            service.drain(5.0)
            lease_path.unlink(missing_ok=True)

    def test_stale_lease_is_taken_over_and_counted(self, tmp_path,
                                                   gated):  # noqa: F811
        """A dead peer's lease (old mtime, nobody refreshing) must not
        wedge the key: the worker steals it and runs."""
        gated.gate.set()
        service = make_service(tmp_path, lease_ttl_s=0.2).start()
        try:
            spec = tiny_spec()
            lease_path = service.results.lease_path_for(
                spec.spec_hash()
            )
            lease_path.parent.mkdir(parents=True, exist_ok=True)
            lease_path.write_text("{}")
            dead = time.time() - 60.0
            os.utime(lease_path, (dead, dead))
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE)
            assert len(gated.started) == 1
            snap = counters_of(service)
            assert snap["serve.jobs_executed"] == 1
            assert snap["serve.lease_takeovers"] == 1
            assert not lease_path.exists()
        finally:
            service.drain(5.0)

    def test_unyielding_lease_times_out_the_job(self, tmp_path,
                                                gated):  # noqa: F811
        """A live foreign lease that never resolves fails the job with
        LeaseTimeout after lease_wait_s — it does not hang forever."""
        service = make_service(
            tmp_path, lease_ttl_s=30.0, lease_wait_s=0.3
        ).start()
        try:
            spec = tiny_spec()
            lease_path = service.results.lease_path_for(
                spec.spec_hash()
            )
            lease_path.parent.mkdir(parents=True, exist_ok=True)
            lease_path.write_text("{}")
            keep_fresh = threading.Event()

            def refresher():
                while not keep_fresh.wait(0.05):
                    os.utime(lease_path)

            thread = threading.Thread(target=refresher, daemon=True)
            thread.start()
            try:
                _, job = service.submit_spec(spec)
                wait_state(service, job.id, FAILED)
                assert "[LeaseTimeout]" in job.error
                assert gated.started == []
            finally:
                keep_fresh.set()
                thread.join(2.0)
        finally:
            gated.gate.set()
            service.drain(5.0)
            lease_path.unlink(missing_ok=True)


class TestExecuteSpecJob:
    """``JobRunner.run``: one spec executed as a job under the lease."""

    def test_store_hit_short_circuits(self, tmp_path):
        spec = tiny_spec()
        ResultStore(tmp_path).put_bytes(spec.spec_hash(), b"{}")
        outcome = JobRunner(str(tmp_path)).run(spec)
        assert outcome == {
            "ok": True, "executed": False, "via": "store",
            "took_over": False, "n_cells": 0, "n_executed": 0,
            "n_cached": 0, "cache_hits": 0, "cache_misses": 0,
        }

    def test_runner_exception_folds_into_outcome(self, tmp_path,
                                                 monkeypatch):
        spec = tiny_spec()

        class Boom:
            def __init__(self, **kwargs):
                pass

            def run(self, campaign):
                raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.serve.pool.CampaignRunner", Boom)
        outcome = JobRunner(str(tmp_path)).run(spec)
        assert outcome["ok"] is False
        assert outcome["error_type"] == "RuntimeError"
        assert "kaboom" in outcome["error"]
        assert "kaboom" in outcome["traceback"]
        # The lease was released despite the failure.
        results = ResultStore(tmp_path)
        assert not results.lease_path_for(spec.spec_hash()).exists()

    def test_lease_waiter_does_not_clobber_executor_spool(
            self, tmp_path):
        """A lease-coalesced waiter must never replace the executor's
        spool for the same content-addressed key."""
        spec = tiny_spec()
        results = ResultStore(tmp_path)
        job_id = spec.spec_hash()
        spool = results.trace_spool_for(job_id)
        write_spool(spool, TraceContext.for_job(job_id), [
            span_record("campaign", "engine", 1000.0, 1.0,
                        role="worker"),
        ])
        executor_bytes = spool.read_bytes()
        # A live "peer" holds the lease and finishes while we wait.
        lease = try_acquire(results.lease_path_for(job_id))
        assert lease is not None
        publish = threading.Timer(
            0.2, lambda: results.put_bytes(job_id, b"{}")
        )
        publish.start()
        try:
            outcome = JobRunner(str(tmp_path), lease_wait_s=10.0).run(
                spec, trace_ctx=TraceContext.for_job(job_id),
            )
        finally:
            publish.join()
            lease.release()
        assert outcome["ok"] and not outcome["executed"]
        assert outcome["via"] == "lease"
        # The executor's spans survived the waiter.
        assert spool.read_bytes() == executor_bytes
        assert [s["name"] for s in read_spool(spool)] == ["campaign"]

    def test_traced_run_spools_lease_campaign_and_store_spans(
            self, tmp_path, gated):  # noqa: F811
        """The executor's lease, campaign and store-write spans come
        off one tracer, re-based onto unix time in one spool."""
        gated.gate.set()
        spec = tiny_spec()
        ctx = TraceContext.for_job(spec.spec_hash())
        before = time.time()
        outcome = JobRunner(str(tmp_path)).run(spec, trace_ctx=ctx)
        after = time.time()
        assert outcome["ok"] and outcome["executed"]
        spans = read_spool(
            ResultStore(tmp_path).trace_spool_for(spec.spec_hash()))
        assert [s["name"] for s in spans] == [
            "lease acquire", "store write"]
        assert {s["role"] for s in spans} == {"worker"}
        assert spans[0]["args"] == {"took_over": False}
        for span in spans:
            assert before <= span["start_unix"]
            assert span["start_unix"] + span["dur_s"] <= after

    def test_runner_pickles_as_it_is(self, tmp_path):
        runner = JobRunner(str(tmp_path), store_shards=4,
                           cache_dir=str(tmp_path / "cells"),
                           timeout_s=5.0, lease_ttl_s=1.0)
        assert pickle.loads(pickle.dumps(runner)) == runner


class TestProcessMode:
    def test_process_job_bytes_match_direct_run(self, tmp_path):
        """End-to-end through the process pool with the real simulator:
        the stored bytes are the same pure function of the spec."""
        spec = tiny_spec()
        service = make_service(
            tmp_path, worker_mode="process", job_workers=2
        ).start()
        try:
            assert service.health()["worker_mode"] == "process"
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE, timeout=60.0)
            served = service.results.get_bytes(job.id)
            assert counters_of(service)["serve.jobs_executed"] == 1
        finally:
            service.drain(10.0)
        direct = CampaignRunner(workers=1).run(spec)
        assert served == encode_result(
            build_result_payload(spec, direct)
        )

    def test_spec_round_trips_process_boundary(self):
        spec = tiny_spec(heap_mb=48, seed=7)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()


class TestConfiguration:
    def test_unknown_worker_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            make_service(tmp_path, worker_mode="fibers")

    def test_worker_pool_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WorkerPool("fibers", JobRunner(str(tmp_path)))

    def test_thread_pool_runs_the_patched_campaign_runner(
            self, tmp_path, gated):  # noqa: F811
        gated.gate.set()
        pool = WorkerPool("thread", JobRunner(str(tmp_path))).start()
        outcome = pool.run_job(tiny_spec())
        assert outcome["ok"] and outcome["executed"]
        assert outcome["via"] == "run"
        assert len(gated.started) == 1


class TestWorkerDeath:
    def test_killed_worker_leaves_lease_and_rerun_takes_it_over(
            self, tmp_path):
        """SIGKILL the lone process worker once it holds the job's
        lease: that job fails with BrokenProcessPool and leaves the
        lease behind; the rebuilt pool reruns the spec, takes the stale
        lease over, and stores the bytes of a direct run."""
        import signal

        from repro.serve.lease import read_lease

        spec = tiny_spec()
        service = make_service(
            tmp_path, worker_mode="process", job_workers=1,
            lease_ttl_s=1.0,
        ).start()
        outcomes = []
        run_job = service.pool.run_job

        def recording_run_job(job_spec, trace_ctx=None):
            outcomes.append(run_job(job_spec, trace_ctx=trace_ctx))
            return outcomes[-1]

        service.pool.run_job = recording_run_job
        lease_path = service.results.lease_path_for(spec.spec_hash())
        killed = []

        def kill_lease_holder():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                holder = read_lease(lease_path) or {}
                if holder.get("pid", os.getpid()) != os.getpid():
                    os.kill(holder["pid"], signal.SIGKILL)
                    killed.append(holder["pid"])
                    return
                time.sleep(0.005)

        killer = threading.Thread(target=kill_lease_holder, daemon=True)
        killer.start()
        try:
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, FAILED, timeout=60.0)
            killer.join(5.0)
            assert killed
            assert "[BrokenProcessPool]" in job.error
            assert outcomes[0]["error_type"] == "BrokenProcessPool"
            assert lease_path.exists()

            service.submit_spec(spec)
            wait_state(service, job.id, DONE, timeout=60.0)
            assert outcomes[1]["ok"] and outcomes[1]["executed"]
            assert outcomes[1]["took_over"] is True
            counters = counters_of(service)
            assert counters["serve.lease_takeovers"] == 1
            assert counters["serve.jobs_executed"] == 1
            served = service.results.get_bytes(job.id)
            assert not lease_path.exists()
        finally:
            service.drain(30.0)
        direct = CampaignRunner(workers=1).run(spec)
        assert served == encode_result(
            build_result_payload(spec, direct)
        )


class TestCellCacheCounters:
    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_second_run_hits_the_cell_cache(self, tmp_path,
                                            worker_mode):
        """Both modes fold each job's cell-cache traffic into the
        service's hit rate: one miss, then (result entry removed) one
        hit."""
        spec = tiny_spec()
        service = make_service(
            tmp_path, worker_mode=worker_mode, use_cell_cache=True,
            cache_dir=tmp_path / "cells",
        ).start()
        try:
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE, timeout=60.0)
            assert service.results.path_for(job.id).unlink() is None
            service.submit_spec(spec)
            wait_state(service, job.id, DONE, timeout=60.0)
            snapshot = service.metrics_snapshot()
        finally:
            service.drain(30.0)
        assert snapshot["counters"]["serve.jobs_executed"] == 2
        assert snapshot["counters"]["serve.cells_from_cache"] == 1
        assert snapshot["derived"]["cell_cache_hit_rate"] == 0.5
