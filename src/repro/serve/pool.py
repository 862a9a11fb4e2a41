"""Job execution: one picklable job runner and one worker pool.

A :class:`JobRunner` holds a service's job settings as plain values
(result store root and shards, cell-cache root, cell workers, timeout,
retries, lease TTL and wait) and runs one spec to a stored result.  It
builds its stores from those values on every call, so the same frozen
object runs a job on the service's worker thread or, pickled as it is,
in a worker process.  :class:`WorkerPool` decides where it runs:

* ``"thread"`` — on the calling worker thread, with the service's
  observability bundle reaching the campaign.  Fine for I/O-light
  deployments and for tests, but every concurrent job contends on one
  GIL, so CPU-bound cells serialize.
* ``"process"`` — on a persistent ``ProcessPoolExecutor``, one OS
  process per job worker.  The worker writes the result bytes into
  the shared :class:`~repro.serve.store.ResultStore` itself; only a
  small outcome dict is pickled back, never the payload.

Every job runs the cross-process single-flight protocol
(:mod:`repro.serve.lease`):

1. result already in the store → serve it, run nothing (``via:
   "store"``);
2. acquire the lease beside the result entry; if a *live* peer — a
   sibling worker process or a whole other service instance sharing
   the store — holds it, poll until the peer's result appears (``via:
   "lease"``);
3. lease held (possibly taken over from a dead peer): run the
   campaign, write the canonical bytes, release.

Outcomes are plain dicts, and cell-cache traffic rides on them
(``cache_hits``/``cache_misses``) for the service to fold into its
aggregate hit rate — the same shape in both modes.
"""

import os
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Optional

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignRunner
from repro.errors import ConfigurationError
from repro.obs import NULL_OBS
from repro.obs.distributed import wall_span_records, write_spool
from repro.obs.logging import get_logger
from repro.obs.tracer import NullTracer, Tracer
from repro.provenance import build_envelope
from repro.serve.lease import DEFAULT_LEASE_TTL_S, try_acquire
from repro.serve.store import ResultStore

#: How the service runs jobs; ``repro serve --worker-mode``.
WORKER_MODES = ("thread", "process")

#: Default bound on waiting for a peer's lease to resolve.
DEFAULT_LEASE_WAIT_S = 600.0

#: Poll interval while waiting on a peer's lease.
_LEASE_POLL_S = 0.05


def build_result_payload(spec, campaign_result):
    """The deterministic result document for one completed spec.

    Contains only values that are pure functions of the spec (cell
    payloads are simulator output; the simulator is seeded), so the
    encoded bytes are identical no matter where or when the spec ran —
    which is what makes the store content-addressed rather than merely
    keyed.  Wall times, attempts, and worker counts live on the job
    record instead.
    """
    return {
        "schema": "repro-result-v1",
        "spec_hash": spec.spec_hash(),
        "spec": spec.to_dict(),
        "cells": [cell.payload for cell in campaign_result.cells],
    }


def encode_result(payload):
    """Canonical JSON bytes for a result payload (sorted keys, no
    whitespace) — the exact bytes stored and served."""
    import json

    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _done(executed, via, took_over=False, n_cells=0, n_executed=0,
          n_cached=0, cache_hits=0, cache_misses=0):
    return {
        "ok": True, "executed": executed, "via": via,
        "took_over": took_over, "n_cells": n_cells,
        "n_executed": n_executed, "n_cached": n_cached,
        "cache_hits": cache_hits, "cache_misses": cache_misses,
    }


def _failed(error, error_type, **extra):
    out = {"ok": False, "error": error, "error_type": error_type}
    out.update(extra)
    return out


@dataclass(frozen=True)
class JobRunner:
    """Runs one spec to a stored result under the single-flight lease.

    Plain values only, so it pickles to a worker process as it is.
    """

    result_dir: str
    store_shards: int = 1
    #: The campaign cell cache's root; ``None`` runs without one.
    cache_dir: Optional[str] = None
    cell_workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 1
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    lease_wait_s: float = DEFAULT_LEASE_WAIT_S

    def run(self, spec, trace_ctx=None, obs=None):
        """Run *spec*; returns an outcome dict:

        * ``{"ok": True, "executed": True, ...}`` — this call ran the
          campaign and wrote the result (``took_over`` marks a
          stale-lease takeover from a dead peer);
        * ``{"ok": True, "executed": False, "via": "store"|"lease",
          ...}`` — the result already existed, or a live peer produced
          it while we waited;
        * ``{"ok": False, "error", "error_type", ...}`` — failed cells,
          a raised error, or a lease that never resolved within
          :attr:`lease_wait_s`.

        With a :class:`~repro.obs.distributed.TraceContext` the job
        records its lease, campaign and store-write spans on one
        :class:`~repro.obs.tracer.Tracer` — the one its campaign runner
        receives — and the executing process spools that tracer's wall
        spans beside the result entry for the service to merge into
        the per-job trace.  Tracing never touches the result bytes: the
        payload is built from the campaign result alone, and the spool
        is a separate file.
        """
        job_id = spec.spec_hash()
        results = ResultStore(self.result_dir, shards=self.store_shards)
        log = get_logger().bind(job=job_id[:12], worker_pid=os.getpid())
        if job_id in results:
            log.debug("serve.job_via_store")
            return _done(False, "store")
        tracer = Tracer() if trace_ctx is not None else NullTracer()
        lease_start = tracer.now_wall()
        deadline = time.monotonic() + self.lease_wait_s
        lease = None
        while lease is None:
            if job_id in results:
                log.debug("serve.job_via_lease")
                return _done(False, "lease")
            lease = try_acquire(results.lease_path_for(job_id),
                                ttl_s=self.lease_ttl_s)
            if lease is None:
                if time.monotonic() >= deadline:
                    log.warning("serve.lease_timeout",
                                waited_s=round(self.lease_wait_s, 3))
                    return _failed(
                        f"gave up after {self.lease_wait_s:.0f} s "
                        f"waiting for the peer holding the lease on "
                        f"{job_id[:12]} to finish or go stale",
                        "LeaseTimeout",
                    )
                time.sleep(_LEASE_POLL_S)
        tracer.add_wall_span("lease acquire", "lease", lease_start,
                             tracer.now_wall() - lease_start,
                             took_over=lease.took_over)
        if lease.took_over:
            log.warning("serve.lease_takeover")
        try:
            # A peer may have finished in the takeover window between
            # our last store check and the acquisition.
            if job_id in results:
                log.debug("serve.job_via_lease",
                          took_over=lease.took_over)
                return _done(False, "lease", took_over=lease.took_over)
            try:
                return self._execute(spec, job_id, results,
                                     lease.took_over, tracer, obs, log)
            finally:
                # Only the executor spools (even on failure: a failed
                # run leaves no result, so no peer spool exists to
                # clobber).  A lease-coalesced waiter must not: its
                # atomic rename would replace the executor's spans for
                # the same content-addressed key.
                if trace_ctx is not None:
                    try:
                        write_spool(results.trace_spool_for(job_id),
                                    trace_ctx, wall_span_records(tracer))
                    except OSError as exc:
                        # Losing the trace must never fail the job.
                        log.warning("serve.spool_write_failed",
                                    error=str(exc))
        except BaseException as exc:  # noqa: BLE001 - folded, not raised
            log.warning("serve.job_error", error=str(exc),
                        error_type=type(exc).__name__)
            return _failed(str(exc), type(exc).__name__,
                           traceback=traceback.format_exc())
        finally:
            lease.release()

    def _execute(self, spec, job_id, results, took_over, tracer, obs,
                 log):
        """Run the campaign and store its canonical bytes."""
        cache = (ResultCache(self.cache_dir)
                 if self.cache_dir is not None else None)
        if tracer.enabled:
            obs = replace(obs if obs is not None else NULL_OBS,
                          tracer=tracer)
        result = CampaignRunner(
            workers=self.cell_workers, cache=cache,
            timeout_s=self.timeout_s, retries=self.retries, obs=obs,
        ).run(spec)
        failed = result.failed_cells()
        if failed:
            first = failed[0]
            log.warning("serve.job_cells_failed", n_failed=len(failed))
            return _failed(
                f"{len(failed)}/{len(result)} cells failed; first: "
                f"[{first.error_type}] {first.error}",
                "ConfigurationError",
            )
        data = encode_result(build_result_payload(spec, result))
        envelope = build_envelope(
            "result", job_id, spec_hash=job_id,
            spec_name=spec.name or None, n_cells=len(result),
        )
        with tracer.wall_span("store write", "store", n_bytes=len(data)):
            results.put_bytes(job_id, data, envelope=envelope)
        log.info("serve.job_executed", n_cells=len(result),
                 took_over=took_over)
        return _done(
            True, "run", took_over=took_over, n_cells=len(result),
            n_executed=result.summary.n_executed,
            n_cached=result.summary.n_cached,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
        )


class WorkerPool:
    """Where the service's worker threads run their jobs.

    In ``"process"`` mode the pool survives worker death: a
    ``BrokenProcessPool`` fails only the in-flight job, and the
    executor is rebuilt for the next one.  The dead worker's lease
    goes stale and is taken over by whichever peer retries the spec.
    """

    def __init__(self, mode, runner, workers=1, obs=None):
        if mode not in WORKER_MODES:
            raise ConfigurationError(
                f"unknown worker mode {mode!r}; expected one of "
                f"{WORKER_MODES}"
            )
        self.mode = mode
        self.runner = runner
        self.workers = int(workers)
        #: Reaches the campaign in thread mode only; a worker process
        #: reports through its outcome dict instead.
        self.obs = obs
        self._executor = None
        self._lock = threading.Lock()

    def start(self):
        if self.mode == "process":
            with self._lock:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers
                    )
        return self

    def run_job(self, spec, trace_ctx=None):
        """Run one job; returns the runner's outcome dict."""
        if self.mode == "thread":
            return self.runner.run(spec, trace_ctx, self.obs)
        with self._lock:
            executor = self._executor
        if executor is None:
            return _failed("worker pool is not running", "PoolShutdown")
        try:
            # The trace context rides beside the spec — never inside
            # it, so the spec hash (and the result bytes) are identical
            # traced or not.
            return executor.submit(self.runner.run, spec,
                                   trace_ctx).result()
        except BrokenProcessPool:
            # The job's worker died (OOM kill, segfault, operator).
            # Replace the executor so later jobs still run; the dead
            # worker's lease expires on its own TTL.
            with self._lock:
                if self._executor is executor:
                    executor.shutdown(wait=False, cancel_futures=True)
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers
                    )
            return _failed("worker process died mid-job",
                           "BrokenProcessPool")

    def shutdown(self):
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
