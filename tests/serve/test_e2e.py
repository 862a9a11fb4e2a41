"""Acceptance end-to-end test (ISSUE 5).

N concurrent clients submit a mix of K distinct specs (K < N) over
real HTTP; the service must execute exactly K simulations (verified
via ``/v1/metrics``) in either worker mode, serve result bytes
identical to a direct ``repro run --spec``-equivalent execution, and
answer ``429`` with ``Retry-After`` when the bounded queue is full.
Two process-mode instances sharing one store must run each spec once
between them.
"""

import threading

import pytest

from repro.core.experiment import Experiment
from repro.export import result_to_cell_dict
from repro.serve import ServiceBusy, ServiceClient
from repro.serve.server import ServiceServer, encode_result
from repro.spec import ScenarioSpec


def spec_toml(heap_mb):
    return (
        '[axes]\nbenchmark = "_202_jess"\ncollector = "SemiSpace"\n'
        f'heap_mb = {heap_mb}\ninput_scale = 0.2\n'
    )


def spec_for(heap_mb):
    return ScenarioSpec.for_experiment(
        "_202_jess", collector="SemiSpace", heap_mb=heap_mb,
        input_scale=0.2,
    )


HEAPS = (32, 40, 48)           # K = 3 distinct specs
N_CLIENTS = 9                  # N = 9 concurrent submitters


def start_server(result_dir, **kwargs):
    kwargs.setdefault("job_workers", 2)
    server = ServiceServer(
        host="127.0.0.1", port=0, queue_size=8, use_cell_cache=False,
        result_dir=result_dir, **kwargs,
    )
    return server.start()


def storm(submissions):
    """Submit every ``(url, heap)`` pair from its own client thread,
    all released at once, and wait for every job to finish."""
    finals = []
    errors = []
    barrier = threading.Barrier(len(submissions))

    def submit(url, heap):
        client = ServiceClient(url, timeout_s=30.0)
        barrier.wait()
        try:
            job = client.submit_bytes(
                spec_toml(heap), fmt="toml", retry=True,
                max_wait_s=60.0,
            )
            finals.append(client.wait(job["id"], timeout_s=120.0))
        except Exception as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    threads = [
        threading.Thread(target=submit, args=pair)
        for pair in submissions
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(180.0)
    assert not errors, errors
    assert len(finals) == len(submissions)
    assert all(final["state"] == "done" for final in finals)


class TestAcceptance:
    @pytest.mark.parametrize("worker_mode, job_trace", [
        ("thread", False), ("process", False), ("thread", True),
    ], ids=["thread", "process", "thread-traced"])
    def test_n_clients_k_specs_exactly_k_executions(self, tmp_path,
                                                    worker_mode,
                                                    job_trace):
        results = tmp_path / "results"
        server = start_server(results, worker_mode=worker_mode,
                              job_trace=job_trace)
        try:
            storm([(server.url, HEAPS[i % len(HEAPS)])
                   for i in range(N_CLIENTS)])

            # Exactly K simulations, despite N submissions.
            client = ServiceClient(server.url, timeout_s=10.0)
            metrics = client.metrics()
            counters = metrics["counters"]
            assert counters["serve.jobs_executed"] == len(HEAPS)
            assert counters["serve.cells_executed"] == len(HEAPS)
            dedup = (counters.get("serve.jobs_coalesced", 0)
                     + counters.get("serve.result_cache_hits", 0))
            assert dedup == N_CLIENTS - len(HEAPS)
            assert metrics["derived"]["dedup_rate"] == pytest.approx(
                (N_CLIENTS - len(HEAPS)) / N_CLIENTS)
            # One trace spool per executed job, none when untraced.
            spools = list(results.rglob("*.spans"))
            assert len(spools) == (len(HEAPS) if job_trace else 0)

            # Result bytes are identical to a direct in-process run
            # of the same spec (what `repro run --spec` executes).
            for heap in HEAPS:
                spec = spec_for(heap)
                served = client.result_bytes(spec.spec_hash())
                direct = Experiment(spec.experiment_config()).run()
                expected = encode_result({
                    "schema": "repro-result-v1",
                    "spec_hash": spec.spec_hash(),
                    "spec": spec.to_dict(),
                    "cells": [result_to_cell_dict(direct)],
                })
                assert served == expected
        finally:
            server.stop(drain_timeout=15.0)

    def test_full_queue_429_with_retry_after(self, tmp_path,
                                             monkeypatch):
        """With the lone worker gated shut, a queue of one fills after
        one submission and the next distinct spec is rejected with 429
        + Retry-After rather than accepted."""
        gate = threading.Event()

        class GatedRunner:
            cache = None

            def __init__(self, **kwargs):
                pass

            def run(self, campaign):
                assert gate.wait(30.0)
                from repro.campaign.runner import (
                    CampaignResult,
                    CampaignSummary,
                    CellResult,
                )

                cells = campaign.cells()
                results = [
                    CellResult(config=config, ok=True, attempts=1,
                               wall_s=0.01,
                               payload={"schema": "repro-cell-v1"})
                    for config in cells
                ]
                summary = CampaignSummary(
                    n_cells=len(cells), n_ok=len(cells), n_failed=0,
                    n_cached=0, n_executed=len(cells), wall_s=0.01,
                    workers=1,
                )
                return CampaignResult(cells=results, summary=summary)

        monkeypatch.setattr("repro.serve.pool.CampaignRunner",
                            GatedRunner)
        server = ServiceServer(
            host="127.0.0.1", port=0, queue_size=1, job_workers=1,
            use_cell_cache=False, result_dir=tmp_path / "results",
        )
        server.start()
        client = ServiceClient(server.url, timeout_s=10.0)
        try:
            # First job occupies the worker...
            running = client.submit_bytes(spec_toml(32), fmt="toml")
            import time

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.job(running["id"])["state"] == "running":
                    break
                time.sleep(0.01)
            assert client.job(running["id"])["state"] == "running"
            # ...the second fills the queue of one...
            client.submit_bytes(spec_toml(40), fmt="toml")
            # ...and the third is told to back off.
            with pytest.raises(ServiceBusy) as excinfo:
                client.submit_bytes(spec_toml(48), fmt="toml")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s >= 1.0
            assert excinfo.value.body["retry_after_s"] >= 1
            # Queue depth surfaced through metrics.
            metrics = client.metrics()
            assert metrics["counters"]["serve.jobs_rejected"] == 1
        finally:
            gate.set()
            server.stop(drain_timeout=15.0)


class TestTwoProcessInstances:
    def test_shared_store_executes_each_spec_once(self, tmp_path):
        """Every spec raced into two process-mode instances on one
        store runs once between them: the per-key lease file is the
        only lock that crosses their worker processes."""
        store = tmp_path / "shared"
        servers = [start_server(store, worker_mode="process",
                                job_workers=1) for _ in range(2)]
        try:
            storm([(server.url, heap)
                   for server in servers for heap in HEAPS])
            counters = [
                ServiceClient(server.url).metrics()["counters"]
                for server in servers
            ]
            executed_total = sum(c.get("serve.jobs_executed", 0)
                                 for c in counters)
            assert executed_total == len(HEAPS)
            assert not list(store.rglob("*.lease"))
        finally:
            for server in servers:
                server.stop(drain_timeout=30.0)
